"""ISE selection and hardware sharing (§5.1's greedy method).

Selection ranks merged ISE candidates by their (profile-weighted)
performance improvement and greedily admits as many as fit the
predefined constraints — the ISE-count budget (unused opcodes) and the
total-silicon-area budget.  Hardware sharing is applied while costing:
on a machine with one ASFU issue slot, two ISEs never execute in the
same cycle, so identical (opcode, option) hardware instances can be
shared across ASFUs — the shared cost of a set of ISEs counts each
instance type by its *maximum* per-ISE multiplicity rather than the
sum.
"""

import math
from collections import Counter


def shared_area(merged_ises, enable_sharing=True):
    """Total silicon area of a set of ISEs with hardware sharing.

    The sum is exactly rounded (:func:`math.fsum`), so it does not
    depend on the order a candidate's ``members`` frozenset iterates
    in — which can differ once a candidate is pickled back from a pool
    worker — and a budget check never flips on the last bit.
    """
    if not enable_sharing:
        return math.fsum(entry.area for entry in merged_ises)
    peak = Counter()
    for entry in merged_ises:
        peak |= _instance_counts(entry.representative)   # element-wise max
    return math.fsum(area * count for (__, area), count in peak.items())


def _instance_counts(candidate):
    """Multiset of (option-key, area) hardware instances of one ISE."""
    counts = Counter()
    for uid in candidate.members:
        option = candidate.option_of[uid]
        opcode = candidate.dfg.op(uid).name
        counts[((opcode, option.label), option.area)] += 1
    return counts


class SelectionResult:
    """Chosen ISEs plus their shared-area cost."""

    def __init__(self, selected, area, considered):
        self.selected = list(selected)
        self.area = area
        self.considered = considered

    @property
    def count(self):
        """Number of selected ISEs."""
        return len(self.selected)

    def all_candidates(self):
        """Every candidate covered by the selection."""
        out = []
        for entry in self.selected:
            out.extend(entry.all_candidates())
        return out

    def __repr__(self):
        return "SelectionResult({} ISEs, {:.0f} um2)".format(
            self.count, self.area)


def select_ises(merged_ises, constraints, enable_sharing=True):
    """Greedy selection under ``constraints`` (max_ises / max_area).

    Candidates are ranked by profile-weighted saving (then smaller area
    first); each is admitted when the *incremental shared* area keeps
    the running total inside the budget.
    """
    ranked = sorted(
        merged_ises,
        key=lambda entry: (-entry.weighted_saving, entry.area,
                           -entry.representative.size))
    selected = []
    for entry in ranked:
        if entry.weighted_saving <= 0:
            continue
        if (constraints.max_ises is not None
                and len(selected) >= constraints.max_ises):
            break
        trial = selected + [entry]
        cost = shared_area(trial, enable_sharing)
        if constraints.max_area is not None and cost > constraints.max_area:
            continue
        selected.append(entry)
    return SelectionResult(selected, shared_area(selected, enable_sharing),
                           len(ranked))
