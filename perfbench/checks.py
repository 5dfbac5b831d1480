"""Correctness checks and the run's attempted/failed tally.

Every operation the benchmark performs (an explore, a selection, a
sweep pass, a served request) is counted as attempted under a unique
label.  An operation that raises, is refused, or fails any check on its
result is counted once as failed.  ``error_rate`` is failed/attempted.
"""

import traceback


class Tally:
    """Counts operations and records why any of them failed.

    ``inject=True`` makes the first check fail on purpose; the
    self-tests use it to show a failing check is counted, not fatal.
    """

    def __init__(self, inject=False):
        self.attempted = 0
        self.failures = {}         # operation label -> first reason
        self._inject = inject

    @property
    def failed(self):
        """Number of operations that failed."""
        return len(self.failures)

    @property
    def error_rate(self):
        """Failed operations per attempted operation."""
        return self.failed / self.attempted if self.attempted else 1.0

    def attempt(self, n=1):
        """Count ``n`` operations as attempted."""
        self.attempted += n

    def fail(self, op, reason):
        """Mark operation ``op`` failed (the first reason is kept)."""
        self.failures.setdefault(op, reason)

    def check(self, ok, op, reason):
        """Mark ``op`` failed unless ``ok``; returns ``ok``."""
        if self._inject:
            self._inject = False
            ok, reason = False, "injected failure: " + reason
        if not ok:
            self.fail(op, reason)
        return ok

    def guard(self, op, func, *args, **kwargs):
        """Run operation ``op``; an exception marks it failed.

        Returns ``(ok, result)``, so the run goes on after a failure.
        """
        self.attempt()
        try:
            return True, func(*args, **kwargs)
        except Exception:
            self.fail(op, traceback.format_exc())
            return False, None


def illegal_candidate(explored):
    """Why the first illegal candidate of ``explored`` is illegal, or None.

    Legality is judged by the set-based reference oracle
    (``check_candidate_reference``), which never touches the packed
    bitset kernel the engine uses, plus the pipestage cycle limit.
    """
    from repro.errors import ConstraintError
    from repro.graph.analysis import check_candidate_reference

    constraints = explored.constraints
    limit = constraints.max_ise_cycles
    for candidate in explored.candidates:
        try:
            check_candidate_reference(candidate.dfg, candidate.members,
                                      constraints)
        except ConstraintError as error:
            return "{}: {}".format(candidate.describe(), error)
        if limit is not None and candidate.cycles > limit:
            return "{}: exceeds the pipestage limit".format(
                candidate.describe())
    return None


def check_explored(tally, op, explored):
    """Every candidate of one exploration is legal."""
    reason = illegal_candidate(explored)
    return tally.check(reason is None, op,
                       "illegal candidate {}".format(reason))


def check_selection(tally, op, final_cycles, baseline_cycles):
    """A selection never costs more cycles than the baseline."""
    return tally.check(
        final_cycles <= baseline_cycles, op,
        "final cycles {} exceed baseline {}".format(
            final_cycles, baseline_cycles))
