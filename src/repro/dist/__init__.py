"""Host-spanning pieces: the service wire format and sharded sweeps.

* :mod:`repro.dist.protocol` — the length-prefixed TCP wire format the
  exploration service (:mod:`repro.serve`) speaks;
* :mod:`repro.dist.sweep` — the shard dispatcher behind
  :func:`repro.api.sweep` (``repro sweep``): a deterministic
  fingerprint partition of the (workload × machine × budget) grid
  across hosts whose merged result is bit-identical to a serial run.
"""

from .sweep import SweepResult, SweepRow, merge_sweeps, run_sweep

__all__ = [
    "SweepResult",
    "SweepRow",
    "merge_sweeps",
    "run_sweep",
]
