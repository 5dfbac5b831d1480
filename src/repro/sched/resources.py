"""Per-cycle resource reservation table (dense kernel).

Tracks, per cycle: issue slots, register-file read/write ports, and
function units by kind.  Both the exploration-internal incremental
scheduler (Operation-Scheduling) and the final list scheduler consult
and update the same table type; the exploration side additionally needs
to *revise* a placed reservation when a hardware operation joins an
existing ISE cluster, which :meth:`release` + re-:meth:`place` support.

Layout
------
Usage counters live in one dense ``numpy.int32`` matrix with one row
per resource — row 0 issue slots, row 1 RF reads, row 2 RF writes, one
further row per function-unit kind of the machine — and one column per
cycle.  The matrix grows geometrically as later cycles are touched, and
``_hi`` marks the end of the ever-touched prefix: every column at or
beyond ``_hi`` is known-empty, so feasibility there is a pure budget
check.  Scalar probes (:meth:`fits`, :meth:`place`, :meth:`release`)
go through per-row :class:`memoryview`\\ s over the same buffer — as
cheap as list indexing — while :meth:`first_fit` falls back to a
single vectorized boolean-AND scan over the occupied region when the
scalar fast path misses.  Infeasible demands (a :class:`Needs` that
exceeds a machine budget outright) are rejected upfront instead of
scanning the cycle horizon.

:class:`PackedReservations` keeps the same rows packed into one integer
word per cycle, for the lockstep ant runner's per-ant schedules, and
unpacks them back into a table for the schedule it materialises.
"""

import numpy as np

from ..errors import ConfigError, SchedulingError

#: Initial column capacity of the dense matrix; grows by doubling.
_INITIAL_CYCLES = 64

#: Rows 0-2 of the matrix; FU kinds follow.
_ISSUE, _READS, _WRITES = 0, 1, 2


class Needs:
    """Resource demand of one issued instruction in one cycle."""

    __slots__ = ("issue", "reads", "writes", "fu_kind", "fu_count")

    def __init__(self, reads=0, writes=0, fu_kind="alu", fu_count=1, issue=1):
        self.issue = int(issue)
        self.reads = int(reads)
        self.writes = int(writes)
        self.fu_kind = fu_kind
        self.fu_count = int(fu_count)

    def __repr__(self):
        return "Needs(issue={}, r={}, w={}, fu={}x{})".format(
            self.issue, self.reads, self.writes, self.fu_kind, self.fu_count)


class ReservationTable:
    """Dense per-cycle usage counters against a machine's budgets."""

    __slots__ = ("machine", "_use", "_views", "_size", "_hi",
                 "_issue_width", "_read_ports", "_write_ports",
                 "_fu_row", "_fu_avail", "stat_first_fit_scans",
                 "stat_scan_cycles")

    def __init__(self, machine):
        self.machine = machine
        self._issue_width = machine.issue_width
        rf = machine.register_file
        self._read_ports = rf.read_ports
        self._write_ports = rf.write_ports
        kinds = sorted(machine.fu_counts)
        self._fu_row = {kind: 3 + index for index, kind in enumerate(kinds)}
        self._fu_avail = dict(machine.fu_counts)
        self._size = _INITIAL_CYCLES
        self._use = np.zeros((3 + len(kinds), self._size), dtype=np.int32)
        self._views = [memoryview(row) for row in self._use]
        self._hi = 0                  # cycles >= _hi are known-empty
        #: Always-on kernel tallies, aggregated into the ``sched.*``
        #: observability counters at round end.
        self.stat_first_fit_scans = 0
        self.stat_scan_cycles = 0

    # -- storage ------------------------------------------------------------

    def _grow(self, cycles):
        """Ensure at least ``cycles`` columns exist (geometric growth)."""
        size = self._size
        while size < cycles:
            size *= 2
        grown = np.zeros((self._use.shape[0], size), dtype=np.int32)
        grown[:, :self._size] = self._use
        self._use = grown
        self._views = [memoryview(row) for row in grown]
        self._size = size

    # -- queries ------------------------------------------------------------

    def usage(self, cycle):
        """Current ``(issue, reads, writes, {fu: used})`` at a cycle.

        Only function-unit kinds with a non-zero count appear in the
        dict — released capacity never leaves stale zero entries.
        """
        if cycle < 0 or cycle >= self._hi:
            return (0, 0, 0, {})
        views = self._views
        fus = {}
        for kind, row in self._fu_row.items():
            used = views[row][cycle]
            if used:
                fus[kind] = used
        return (views[_ISSUE][cycle], views[_READS][cycle],
                views[_WRITES][cycle], fus)

    def fits(self, cycle, needs):
        """True when ``needs`` fits in the remaining budget of ``cycle``."""
        if cycle >= self._hi:
            # Untouched region: feasibility is the pure budget check.
            return (needs.issue <= self._issue_width
                    and needs.reads <= self._read_ports
                    and needs.writes <= self._write_ports
                    and needs.fu_count <= self._fu_avail.get(needs.fu_kind, 0))
        views = self._views
        if views[_ISSUE][cycle] + needs.issue > self._issue_width:
            return False
        if views[_READS][cycle] + needs.reads > self._read_ports:
            return False
        if views[_WRITES][cycle] + needs.writes > self._write_ports:
            return False
        row = self._fu_row.get(needs.fu_kind)
        if row is None:
            return needs.fu_count <= 0
        if views[row][cycle] + needs.fu_count > self._fu_avail[needs.fu_kind]:
            return False
        return True

    def place(self, cycle, needs):
        """Commit ``needs`` at ``cycle``; raises when it does not fit."""
        if cycle < 0:
            raise SchedulingError("cannot place at negative cycle")
        if not self.fits(cycle, needs):
            raise SchedulingError(
                "resources exhausted at cycle {}: {}".format(cycle, needs))
        if cycle >= self._size:
            self._grow(cycle + 1)
        if cycle >= self._hi:
            self._hi = cycle + 1
        views = self._views
        views[_ISSUE][cycle] += needs.issue
        views[_READS][cycle] += needs.reads
        views[_WRITES][cycle] += needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            views[row][cycle] += needs.fu_count

    def release(self, cycle, needs):
        """Undo a previous :meth:`place` (cluster-revision support)."""
        if cycle < 0 or cycle >= self._hi:
            raise SchedulingError("release without matching place")
        views = self._views
        views[_ISSUE][cycle] -= needs.issue
        views[_READS][cycle] -= needs.reads
        views[_WRITES][cycle] -= needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            views[row][cycle] -= needs.fu_count
        if (views[_ISSUE][cycle] < 0 or views[_READS][cycle] < 0
                or views[_WRITES][cycle] < 0
                or (row is not None and views[row][cycle] < 0)):
            raise SchedulingError("release without matching place")

    def first_fit(self, needs, not_before=0, horizon=1 << 20):
        """Earliest cycle ≥ ``not_before`` where ``needs`` fits.

        Demands that can *never* fit (exceeding a machine budget
        outright) raise immediately instead of scanning the horizon.
        The common case — the first candidate cycle fits — is a scalar
        probe; otherwise the occupied region is scanned with one
        vectorized boolean-AND feasibility mask.
        """
        self.stat_first_fit_scans += 1
        if (needs.issue > self._issue_width
                or needs.reads > self._read_ports
                or needs.writes > self._write_ports
                or needs.fu_count > self._fu_avail.get(needs.fu_kind, 0)):
            raise SchedulingError(
                "no feasible cycle below horizon: {} exceeds the machine "
                "budget".format(needs))
        cycle = max(0, int(not_before))
        if cycle >= horizon:
            raise SchedulingError("no feasible cycle below horizon")
        hi = self._hi
        if cycle >= hi:
            return cycle              # known-empty region
        if self.fits(cycle, needs):
            return cycle
        stop = hi if hi < horizon else horizon
        found = self._scan(cycle + 1, stop, needs)
        if found >= 0:
            return found
        if hi < horizon:
            return hi
        raise SchedulingError("no feasible cycle below horizon")

    def _scan(self, start, stop, needs):
        """Vectorized earliest-fit over ``[start, stop)``; -1 when full."""
        if start >= stop:
            return -1
        self.stat_scan_cycles += stop - start
        use = self._use
        ok = None
        for row, demand, budget in (
                (_ISSUE, needs.issue, self._issue_width),
                (_READS, needs.reads, self._read_ports),
                (_WRITES, needs.writes, self._write_ports),
                (self._fu_row.get(needs.fu_kind), needs.fu_count,
                 self._fu_avail.get(needs.fu_kind, 0))):
            if not demand or row is None:
                continue
            mask = use[row, start:stop] <= budget - demand
            ok = mask if ok is None else (ok & mask)
        if ok is None:
            return start              # demands nothing: first cycle fits
        index = int(ok.argmax())
        if ok[index]:
            return start + index
        return -1

    def capacity(self):
        """Per-row budgets as an int array, in the matrix's row order."""
        return np.array([self._issue_width, self._read_ports,
                         self._write_ports]
                        + [self._fu_avail[kind] for kind in
                           sorted(self._fu_row, key=self._fu_row.get)],
                        dtype=np.int64)

    def demand(self, needs):
        """``needs`` as a per-row int array (matrix row order), or
        ``None`` when the demand can never fit this machine."""
        if (needs.issue > self._issue_width
                or needs.reads > self._read_ports
                or needs.writes > self._write_ports
                or needs.fu_count > self._fu_avail.get(needs.fu_kind, 0)):
            return None
        vector = np.zeros(self._use.shape[0], dtype=np.int64)
        vector[_ISSUE] = needs.issue
        vector[_READS] = needs.reads
        vector[_WRITES] = needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            vector[row] = needs.fu_count
        return vector

    @classmethod
    def from_usage(cls, machine, use):
        """A table whose touched prefix holds the counters ``use``
        (one row per resource, one column per cycle)."""
        table = cls(machine)
        table._load(use)
        return table

    def _load(self, use):
        if use.shape[1]:
            self._grow(use.shape[1])
            self._use[:, :use.shape[1]] = use
            self._views = [memoryview(row) for row in self._use]
            self._hi = use.shape[1]

    # -- pickling (memoryviews do not pickle) -------------------------------

    def __getstate__(self):
        return {
            "machine": self.machine,
            "use": self._use[:, :self._hi].copy(),
            "scans": self.stat_first_fit_scans,
            "scan_cycles": self.stat_scan_cycles,
        }

    def __setstate__(self, state):
        self.__init__(state["machine"])
        self._load(state["use"])
        self.stat_first_fit_scans = state["scans"]
        self.stat_scan_cycles = state["scan_cycles"]

    # -- invariants ---------------------------------------------------------

    def verify_nonnegative(self):
        """Debug check: no usage counter anywhere went negative.

        Guards the place/release/re-place revision cycles of cluster
        growth against capacity leaks; raises
        :class:`~repro.errors.SchedulingError` on violation.
        """
        if self._hi and bool((self._use[:, :self._hi] < 0).any()):
            rows, cycles = np.nonzero(self._use[:, :self._hi] < 0)
            raise SchedulingError(
                "negative reservation at cycle(s) {} — release without "
                "matching place".format(sorted(set(int(c) for c in cycles))))
        return True


class PackedReservations:
    """A machine's per-cycle reservations packed into one int per cycle.

    Row ``r`` of the :class:`ReservationTable` matrix gets a field of
    ``budget.bit_length() + 1`` bits whose top bit is a guard.  A
    demand's *probe* code adds ``demand + offset`` to each field, the
    offset chosen so a field overflows into its guard exactly when
    usage plus demand exceeds the row's budget; usage and demand each
    stay within the budget, so no field carries into the next.  Whether
    a demand fits a cycle is then one add and one AND on that cycle's
    word, and placing it adds the demand's plain code.  A release is a
    negative add; a release without a matching place borrows from the
    field above, which :meth:`unpack` shows as a row over budget.
    """

    def __init__(self, machine):
        self._table = ReservationTable(machine)
        capacity = self._table.capacity()
        widths = [int(budget).bit_length() + 1 for budget in capacity]
        if sum(widths) > 63:
            raise ConfigError(
                "machine budgets {} do not pack into one 64-bit word per "
                "cycle".format(capacity.tolist()))
        self.capacity = capacity
        self._budgets = capacity.tolist()
        self.shifts = [sum(widths[:row]) for row in range(len(widths))]
        self.masks = [(1 << width) - 1 for width in widths]
        self.guard = sum(1 << (shift + width - 1)
                         for shift, width in zip(self.shifts, widths))
        self._offsets = [(1 << (width - 1)) - 1 - int(budget)
                         for width, budget in zip(widths, capacity)]

    def codes(self, needs):
        """``(probe, place)`` codes of a demand, or ``None`` when the
        demand can never fit the machine."""
        demand = self._table.demand(needs)
        if demand is None:
            return None
        demand = demand.tolist()
        place = sum(need << shift
                    for need, shift in zip(demand, self.shifts))
        probe = sum((need + offset) << shift for need, offset, shift
                    in zip(demand, self._offsets, self.shifts))
        return probe, place

    def first_fit(self, words, hi, probe, ready):
        """Earliest cycle ``>= ready`` whose word takes ``probe``.

        Every word at or beyond ``hi`` is empty.  Returns the cycle and
        the cycles :meth:`ReservationTable.first_fit` counts as scanned
        for the same probe (the rest of the touched prefix after a miss
        at ``ready``).
        """
        guard = self.guard
        cycle = ready
        while cycle < hi and (words[cycle] + probe) & guard:
            cycle += 1
        return cycle, (hi - ready - 1 if cycle != ready else 0)

    def room(self, word, row):
        """Budget left in ``row`` of the cycle packed as ``word``."""
        return self._budgets[row] - ((word >> self.shifts[row])
                                     & self.masks[row])

    def unpack(self, words):
        """Packed words back to a ``(rows, cycles)`` usage matrix."""
        words = np.asarray(words, dtype=np.int64)
        shifts = np.array(self.shifts, dtype=np.int64)
        masks = np.array(self.masks, dtype=np.int64)
        return (words[None, :] >> shifts[:, None]) & masks[:, None]

