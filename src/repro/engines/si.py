"""The "SI" comparator: Wu et al.'s single-issue ACO exploration [8].

The previous work explores ISEs with the same ACO machinery but is
*location-unaware*: it considers only the legality of operations (I/O
ports, convexity, no memory ops), assumes a single-issue pipeline when
it measures execution time, and therefore happily packs operations that
a multi-issue schedule would have hidden off the critical path.

Reproduced here by running the ACO engine with

* a **1-issue** view of the target machine (same register file, same
  clock — the ISA-format constraints are identical), and
* the locality terms of the merit function disabled
  (``use_critical_path_boost = False``, ``use_slack_window = False``),

which is precisely the difference the thesis claims over [8].  The
returned candidates carry the *single-issue* cycle savings the
algorithm believes in; the design flow then evaluates them on the real
multi-issue machine — reproducing the "schedule the single-issue result
on a 2-issue processor" comparison of §1.4.
"""

from ..config import DEFAULT_PARAMS
from ..sched.machine import MachineConfig
from .aco import AcoEngine


class SingleIssueEngine(AcoEngine):
    """Legality-only ACO ISE exploration (the paper's baseline [8])."""

    name = "si"
    description = ("single-issue, locality-blind ant-colony search "
                   "(Wu et al., the paper's SI comparator)")
    source = "SI"

    def __init__(self, machine, params=None, **kwargs):
        params = (params or DEFAULT_PARAMS).with_(
            use_critical_path_boost=False, use_slack_window=False)
        single_issue = MachineConfig(
            1, machine.register_file,
            fu_counts={"alu": 1, "mul": 1, "mem": 1, "branch": 1, "asfu": 1},
            technology=machine.technology)
        super().__init__(single_issue, params=params, **kwargs)
