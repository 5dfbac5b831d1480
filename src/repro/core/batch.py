"""Lockstep batched ant construction.

The scalar iteration loop draws one (operation, option) pair at a time
through Python: per-draw tuple lists from
:meth:`~repro.core.state.ExplorationState.cp_weights`, a scalar
roulette, and an :class:`~repro.core.iteration.IterationSchedule`
per ant.  Trails and merits only change *between* iterations, so
within one iteration — and therefore within any group of iterations run
against the same state — the Eq. 1 weight vector is a constant.
:class:`BatchedAntRunner` exploits that: ``B`` ants advance **in
lockstep**, one step per draw index,

* readiness as a ``(B, n_slots)`` remaining-predecessor matrix folded
  with a dense successor matrix (one subtraction per step for the whole
  batch),
* Eq. 1 weights from a single
  :meth:`~repro.core.state.ExplorationState.cp_weights_batch` call on
  the flat trail/merit vectors, masked per ant by the ready slots,
* the roulette as row-wise cumulative sums, one ``rng.random()`` per
  ant per step (ant-index order — at ``B == 1`` this is exactly the
  scalar draw stream) and a vectorised first-``cum >= pick`` search,
* the Operation-Scheduling placement (Figs. 4.3.3/4.3.4) on each ant's
  flat partial schedule (:class:`AntBatch`): data-ready over the
  parents' finishes, first fit on packed per-cycle reservation words
  (:class:`~repro.sched.resources.PackedReservations`), and cluster
  joins tested against per-cluster value counts that give the §4.2
  IN/OUT ports after a sparse update.

No placement goes through an ``IterationSchedule``: the caller folds
trails and merits on the batch winner only, so only that ant is
materialised as one.  Every ant is still verified (dependences,
reservations within budget) in array form.  The ``stat_*`` tallies
feed the ``batch.*`` observability counters.

``resolve_batch`` mirrors :func:`~repro.core.parallel.resolve_jobs`:
an explicit ``batch=`` argument wins, then ``REPRO_ANT_BATCH``, then
the default of 16.  ``REPRO_ANT_BATCH=1`` is the parity escape hatch —
the explorer then runs the scalar round loop, bit-identical to the
pre-batching engine.
"""

import os
from collections import Counter

import numpy as np

from ..errors import ConfigError, ExplorationError, SchedulingError
from ..graph.analysis import SubgraphIOTracker
from ..graph.bitset import BitsetDFG, bitset_view
from ..sched.resources import (_READS, _WRITES, Needs, PackedReservations,
                               ReservationTable)
from .iteration import Cluster, IterationSchedule

#: Environment variable supplying the default ant batch size.
BATCH_ENV = "REPRO_ANT_BATCH"

#: Ants per lockstep batch when neither ``batch=`` nor the environment
#: says otherwise.  16 amortises the per-batch trail/merit fold well
#: while keeping per-round RNG consumption moderate.
DEFAULT_BATCH = 16

#: "No placed external consumer yet" (and "never stops escaping"):
#: larger than any cycle or successor count.
_NEVER = 1 << 62


def resolve_batch(batch=None, obs=None):
    """Normalise a ``batch`` request into a positive ant count.

    ``None`` falls back to ``REPRO_ANT_BATCH`` (default
    :data:`DEFAULT_BATCH`); ``0`` or ``"auto"`` selects the default
    explicitly.  ``1`` selects the scalar path — the bit-exact parity
    escape hatch.  When an enabled ``obs`` observer is passed, the
    effective size is recorded as the ``batch.effective`` gauge.
    """
    if batch is None:
        batch = os.environ.get(BATCH_ENV, "").strip() or DEFAULT_BATCH
    if isinstance(batch, str):
        if batch.strip().lower() == "auto":
            batch = 0
        else:
            try:
                batch = int(batch)
            except ValueError:
                raise ConfigError(
                    "batch must be an integer or 'auto', got {!r}".format(
                        batch)) from None
    if batch == 0:
        batch = DEFAULT_BATCH
    if batch < 1:
        raise ConfigError(
            "batch must be a positive ant count, got {}".format(batch))
    if obs:
        obs.gauge("batch.effective", batch)
    return batch


def effective_batch(batch, n_nodes):
    """Per-round lockstep width: ``batch`` capped at ``n_nodes // 2``.

    Ants inside one lockstep batch all draw against the same frozen
    trail/merit state — the batch trades per-ant feedback for
    throughput.  On tiny DFGs that trade is all cost and no gain: the
    matrix step is O(B * n) work that scalar Python already does
    quickly, while the colony's convergence leans hard on seeing every
    ant's update.  Capping the width at half the node count keeps small
    rounds at (or near) the scalar loop's learning density and leaves
    the large, expensive rounds — where the vectorisation actually
    pays — at the full requested width.
    """
    return min(batch, max(1, n_nodes // 2))


class BatchedAntRunner:
    """Constructs ``B`` iteration schedules per call, in lockstep.

    One runner lives for one exploration round: the DFG topology, the
    flat slot layout of the round's
    :class:`~repro.core.state.ExplorationState` and every per-slot
    placement constant (packed resource codes, latency, delay, the
    IN/OUT value counts a join touches) are precomputed once;
    :meth:`run` then performs ``n_nodes`` lockstep steps per batch.
    Construction is exact — at any batch size each ant's schedule is
    the one the scalar loop would have built from the same per-ant draw
    stream.
    """

    def __init__(self, dfg, state, machine, technology, constraints):
        self.dfg = dfg
        self.state = state
        self.machine = machine
        self.technology = technology
        self.constraints = constraints
        uids = list(dfg.nodes)
        self._uids = uids
        index = {uid: i for i, uid in enumerate(uids)}
        n = len(uids)
        # Dense successor matrix: row u holds 1 for every successor of
        # u (adjacency is deduplicated, so counts match the scalar
        # remaining-predecessor bookkeeping).  The diagonal is -1: the
        # step loop subtracts the chosen node's row from the remaining
        # counts, which then *raises* the chosen node's own count to 1 —
        # a node is ready iff its count is exactly 0, so placed nodes
        # drop out without a separate done matrix.  (A ready node has
        # all predecessors placed, so its count never decreases again.)
        # Readiness is kept per slot: a slot's count is its node's.
        succ = np.zeros((n, n), dtype=np.int8)
        preds = np.zeros(n, dtype=np.int32)
        for src, dst in dfg.edge_pairs():
            succ[index[src], index[dst]] = 1
            preds[index[dst]] += 1
        np.fill_diagonal(succ, -1)
        pairs = state.slot_pairs()
        self._slot_pairs = pairs
        self._slot_node = np.fromiter(
            (index[uid] for uid, __ in pairs), dtype=np.intp,
            count=len(pairs))
        self._succ_slots = succ[:, self._slot_node]
        self._base_slot_preds = preds[self._slot_node]
        self._edges = np.array(
            [(index[src], index[dst]) for src, dst in dfg.edge_pairs()],
            dtype=np.intp).reshape(-1, 2)
        self.packing = PackedReservations(machine)
        self._tables(dfg, index, pairs)
        #: Always-on tallies feeding the ``batch.*`` obs counters.
        self.stat_ants_batched = 0
        self.stat_scalar_fallbacks = 0
        self.stat_rows_vectorized = 0

    def _tables(self, dfg, index, pairs):
        """The per-node and per-slot placement constants of the round.

        IN/OUT bookkeeping uses the bitset kernel's value-ownership
        tables (exact for non-SSA names): a cluster keeps one count per
        value id — IN values count their active reads (member external
        reads, and in-edges from parents outside the cluster), OUT
        values their escaping producers — and its ports are the nonzero
        counts.  Drawing in topological order, ``u`` joins as a sink,
        so a join only touches ``u``'s own values and its parents'
        in-edges and dests: per slot, each touched value's constant
        change, the parents whose edge counts while outside the
        cluster, and the member parents whose dests uncount when they
        stop escaping.
        """
        uids = self._uids
        view = bitset_view(dfg) or BitsetDFG(dfg)
        n_in = view.n_in_values
        self._preds = [tuple(index[p] for p in dfg.predecessors(uid))
                       for uid in uids]
        self._data_preds = [
            tuple(index[p] for p in dfg.data_predecessors(uid))
            for uid in uids]
        # A member stops escaping when the last of its data successors
        # outside the cluster joins it; output nodes never stop.
        self._outside = [
            _NEVER if view.output_flags[i]
            else len(dfg.data_successors(uid)) for i, uid in enumerate(uids)]
        touched = []
        opened = []
        for i, uid in enumerate(uids):
            own = list(view.ext_vids[i])
            if view.output_flags[i] or dfg.data_successors(uid):
                own += [n_in + vid for vid in view.dest_vids[i]]
            # value id -> [constant change, counting parents, stopping
            # parents]; a parent listed twice counts twice.
            changes = {}
            for vid in own:
                changes.setdefault(vid, [0, [], []])[0] += 1
            for pred, vid in view.pred_pairs[i]:
                changes.setdefault(vid, [0, [], []])[1].append(pred)
            for pred in self._data_preds[i]:
                for vid in view.dest_vids[pred]:
                    changes.setdefault(n_in + vid, [0, [], []])[2].append(pred)
            touched.append(tuple(
                (vid, vid >= n_in, change, tuple(reads), tuple(stops))
                for vid, (change, reads, stops) in sorted(changes.items())))
            # A fresh open: every parent is outside the cluster.
            counts = Counter(own)
            counts.update(vid for __, vid in view.pred_pairs[i])
            opened.append(tuple(counts.items()))
        open_ports = {}
        codes = {}
        self._slots = []
        self._slot_area = []
        for uid, option in pairs:
            i = index[uid]
            if option.is_hardware:
                if i not in open_ports:
                    io = SubgraphIOTracker(dfg)
                    io.add(uid)
                    open_ports[i] = (io.n_in, io.n_out)
                n_in_ports, n_out_ports = open_ports[i]
                needs = Needs(reads=n_in_ports, writes=n_out_ports,
                              fu_kind="asfu")
                cycles = self.technology.cycles_for_delay(option.delay_ns)
                delay, area = option.delay_ns, option.area
            else:
                operation = dfg.op(uid)
                needs = Needs(reads=len(operation.sources),
                              writes=len(operation.dests),
                              fu_kind=option.fu_kind)
                n_in_ports = n_out_ports = 0
                cycles, delay, area = option.cycles, 0.0, 0.0
            key = (needs.reads, needs.writes, needs.fu_kind)
            if key not in codes:
                codes[key] = self.packing.codes(needs)
            self._slots.append(
                (i, self._preds[i], option.is_hardware,
                 codes[key], needs, cycles, delay,
                 n_in_ports, n_out_ports, opened[i], touched[i]))
            self._slot_area.append(area)

    # -- one lockstep batch -------------------------------------------------

    def run(self, rng, n_ants):
        """Construct ``n_ants`` verified schedules with lockstep draws.

        Consumes exactly ``n_ants * n_nodes`` calls of ``rng.random()``
        in (step, ant) order; at ``n_ants == 1`` this is the scalar
        loop's draw stream.  Returns the :class:`AntBatch` holding the
        ants' partial schedules.
        """
        n_nodes = len(self._uids)
        ants = AntBatch(self, n_ants)
        self.stat_ants_batched += n_ants
        if not n_nodes:
            return ants.finish()
        n_slots = len(self._slot_pairs)
        weights = self.state.cp_weights_batch()
        remaining = np.tile(self._base_slot_preds, (n_ants, 1))
        draws = np.empty(n_ants, dtype=np.float64)
        picks = np.empty(n_ants, dtype=np.float64)
        chosen = np.empty(n_ants, dtype=np.intp)
        # Step-loop work buffers, reused across all n_nodes steps so the
        # hot loop allocates nothing per step.  Placed nodes carry a
        # remaining count of 1 (see the successor-matrix diagonal), so
        # readiness is the single comparison against zero.
        slot_ready = np.empty((n_ants, n_slots), dtype=bool)
        masked = np.empty((n_ants, n_slots), dtype=np.float64)
        cum = np.empty((n_ants, n_slots), dtype=np.float64)
        reached = np.empty((n_ants, n_slots), dtype=bool)
        succ_rows = np.empty((n_ants, n_slots), dtype=np.int8)
        for step in range(n_nodes):
            np.equal(remaining, 0, out=slot_ready)
            for ant in range(n_ants):
                draws[ant] = rng.random()
            slots = _roulette_rows(weights, slot_ready, draws,
                                   masked=masked, cum=cum, reached=reached,
                                   picks=picks)
            self.stat_rows_vectorized += n_ants
            ants.place(slots.tolist())
            np.take(self._slot_node, slots, out=chosen)
            np.take(self._succ_slots, chosen, axis=0, out=succ_rows)
            remaining -= succ_rows
        return ants.finish()


class AntBatch:
    """The ``B`` partial schedules of one lockstep batch.

    Each ant's schedule is flat state over node and cluster indices
    (:class:`_Ant`): no :class:`~repro.core.iteration.IterationSchedule`
    is built while the batch runs.  :meth:`place` applies one step's
    draws, :meth:`finish` verifies every ant in array form and tallies
    its makespan, preference key and counters, and :meth:`schedule`
    materialises one ant (in practice the batch winner) as an
    :class:`~repro.core.iteration.IterationSchedule`.
    """

    def __init__(self, runner, n_ants):
        self.runner = runner
        self._ants = [_Ant(runner) for __ in range(n_ants)]

    def __len__(self):
        return len(self._ants)

    def place(self, slots):
        """Apply one drawn slot per ant, in ant order."""
        for ant, slot in zip(self._ants, slots):
            ant.place(slot)

    def finish(self):
        """Verify every ant and tally its makespan, key and counters.

        Raises :class:`~repro.errors.SchedulingError` when an ant
        breaks a dependence edge or a reservation row left its budget
        (a release without matching place borrows from the row above).
        """
        runner = self.runner
        ants = self._ants
        n = len(runner._uids)
        cluster = np.array([ant.cluster_of for ant in ants],
                           dtype=np.int64).reshape(len(ants), n)
        start = np.array([ant.start for ant in ants],
                         dtype=np.int64).reshape(len(ants), n)
        finish = np.array([ant.sw_finish for ant in ants],
                          dtype=np.int64).reshape(len(ants), n)
        width = max(len(ant.cl_finish) for ant in ants) + 1
        cluster_finish = np.zeros((len(ants), width), dtype=np.int64)
        for row, ant in zip(cluster_finish, ants):
            row[:len(ant.cl_finish)] = ant.cl_finish
        clustered = cluster >= 0
        np.copyto(finish, np.take_along_axis(cluster_finish, cluster, 1),
                  where=clustered)
        src, dst = runner._edges[:, 0], runner._edges[:, 1]
        ok = ((start[:, dst] >= finish[:, src])
              | (clustered[:, src] & (cluster[:, src] == cluster[:, dst])))
        if not ok.all():
            edge = int(np.flatnonzero(~ok.all(0))[0])
            raise SchedulingError(
                "iteration schedule violates edge {}->{}".format(
                    runner._uids[src[edge]], runner._uids[dst[edge]]))
        words = [word for ant in ants for word in ant.words[:ant.hi]]
        usage = runner.packing.unpack(words)
        if (usage > runner.packing.capacity[:, None]).any():
            raise SchedulingError("negative reservation — release without "
                                  "matching place")
        self.makespans = (finish.max(1) if n
                          else np.zeros(len(ants), dtype=np.int64)).tolist()
        area = runner._slot_area
        #: Per ant: ``(makespan, ISE area)``, the round's preference key —
        #: the area summed in the scalar key's order (clusters in
        #: creation order, members in join order).
        self.keys = [(span, sum(area[slot] for members in ant.cl_slots
                                for slot in members))
                     for span, ant in zip(self.makespans, ants)]
        self.winner = min(range(len(ants)), key=self.keys.__getitem__)
        self.n_clusters = [len(ant.cl_start) for ant in ants]
        self.cluster_opens = self.n_clusters
        self.cluster_joins = [ant.joins for ant in ants]
        self.join_rejects = [ant.rejects for ant in ants]
        self.first_fit_scans = [n - ant.joins for ant in ants]
        self.scan_cycles = [ant.scanned for ant in ants]
        return self

    def schedule(self, ant):
        """Ant ``ant``'s completed schedule as an
        :class:`~repro.core.iteration.IterationSchedule`.

        Built from the ant's state without re-running placement:
        starts, options, draw order, clusters (members inserted in join
        order), reservation table and tallies equal the scalar
        schedule's.  It is complete, so it carries no incremental join
        trackers.
        """
        runner = self.runner
        state = self._ants[ant]
        schedule = IterationSchedule(runner.dfg, runner.machine,
                                     runner.technology, runner.constraints)
        clusters = []
        for cid, start in enumerate(state.cl_start):
            cluster = Cluster(cid, start)
            cluster.cycles = state.cl_cycles[cid]
            cluster.delay_ns = state.cl_delay[cid]
            cluster.needs = Needs(reads=state.cl_in[cid],
                                  writes=state.cl_out[cid], fu_kind="asfu")
            if state.cl_ceiling[cid] < _NEVER:
                cluster.min_ext_start = state.cl_ceiling[cid]
            clusters.append(cluster)
        makespan_sw = 0
        for step, slot in enumerate(state.seq):
            uid, option = runner._slot_pairs[slot]
            node = runner._slots[slot][0]
            schedule.start[uid] = state.start[node]
            schedule.chosen[uid] = option
            schedule.order[uid] = step
            cid = state.cluster_of[node]
            if cid < 0:
                makespan_sw = max(makespan_sw, state.sw_finish[node])
            else:
                clusters[cid].members.add(uid)
                clusters[cid].option_of[uid] = option
                schedule.cluster_of[uid] = clusters[cid]
        schedule.clusters = clusters
        schedule._next_order = len(state.seq)
        schedule._next_cluster = len(clusters)
        schedule._makespan_sw = makespan_sw
        schedule.table = ReservationTable.from_usage(
            runner.machine, runner.packing.unpack(state.words[:state.hi]))
        schedule.table.stat_first_fit_scans = self.first_fit_scans[ant]
        schedule.table.stat_scan_cycles = self.scan_cycles[ant]
        schedule.stat_cluster_opens = self.cluster_opens[ant]
        schedule.stat_cluster_joins = self.cluster_joins[ant]
        schedule.stat_join_rejects = self.join_rejects[ant]
        return schedule


class _Ant:
    """One ant's partial schedule as flat lists.

    Per node: software finish, cluster index (-1 when software or
    unplaced), start, arrival time inside its cluster and data
    successors outside its cluster.  Per cluster:
    start, cycles, finish, critical path, IN/OUT ports, the earliest
    start of a placed external consumer, value counts and member slots
    in join order.  Reservations are one packed word per cycle
    (:class:`~repro.sched.resources.PackedReservations`).
    """

    __slots__ = ("runner", "sw_finish", "cluster_of", "start", "arrival",
                 "outside", "cl_start", "cl_cycles", "cl_finish",
                 "cl_delay", "cl_in", "cl_out", "cl_ceiling", "cl_counts",
                 "cl_slots", "words", "hi", "joins", "rejects", "scanned",
                 "seq")

    def __init__(self, runner):
        n = len(runner._uids)
        self.runner = runner
        self.sw_finish = [0] * n
        self.cluster_of = [-1] * n
        self.start = [0] * n
        self.arrival = [0.0] * n
        self.outside = list(runner._outside)
        self.cl_start = []
        self.cl_cycles = []
        self.cl_finish = []
        self.cl_delay = []
        self.cl_in = []
        self.cl_out = []
        self.cl_ceiling = []
        self.cl_counts = []
        self.cl_slots = []
        self.words = [0] * 64
        self.hi = 0
        self.joins = self.rejects = self.scanned = 0
        self.seq = []

    def place(self, slot):
        """Place one drawn (operation, option) slot (Figs. 4.3.3/4.3.4)."""
        self.seq.append(slot)
        (node, preds, hardware, codes, needs, cycles, delay, n_in, n_out,
         opened, touched) = self.runner._slots[slot]
        cluster_of = self.cluster_of
        cl_finish = self.cl_finish
        sw_finish = self.sw_finish
        ready = 0
        parents = []              # distinct parent clusters, parent order
        for pred in preds:
            cid = cluster_of[pred]
            if cid >= 0:
                finish = cl_finish[cid]
                if cid not in parents:
                    parents.append(cid)
            else:
                finish = sw_finish[pred]
            if finish > ready:
                ready = finish
        if hardware:
            # Pack into a parent's cluster, latest start first.
            if len(parents) > 1:
                parents.sort(key=self.cl_start.__getitem__, reverse=True)
            for own in parents:
                if self._join(node, preds, own, delay, touched):
                    self.joins += 1
                    start = self.cl_start[own]
                    break
                self.rejects += 1
            else:
                start = self._first_fit(codes, needs, ready)
                own = len(self.cl_start)
                self.cl_start.append(start)
                self.cl_cycles.append(cycles)
                self.cl_finish.append(start + cycles)
                self.cl_delay.append(delay)
                self.cl_in.append(n_in)
                self.cl_out.append(n_out)
                self.cl_ceiling.append(_NEVER)
                self.cl_counts.append(dict(opened))
                self.cl_slots.append([slot])
                cluster_of[node] = own
                self.arrival[node] = delay
        else:
            start = self._first_fit(codes, needs, ready)
            sw_finish[node] = start + cycles
            own = -1
        self.start[node] = start
        # This placement is an external consumer of every other cluster
        # a parent sits in: tighten their growth ceilings.
        ceiling = self.cl_ceiling
        for cid in parents:
            if cid != own and start < ceiling[cid]:
                ceiling[cid] = start

    def _first_fit(self, codes, needs, ready):
        if codes is None:
            raise SchedulingError(
                "no feasible cycle below horizon: {} exceeds the machine "
                "budget".format(needs))
        probe, place = codes
        start, scanned = self.runner.packing.first_fit(
            self.words, self.hi, probe, ready)
        self.scanned += scanned
        if start >= len(self.words):
            self.words.extend([0] * (start + 1))
        self.words[start] += place
        if start >= self.hi:
            self.hi = start + 1
        return start

    def _join(self, node, preds, cid, delay, touched):
        """The scalar ``_try_join`` on flat state: fuse when every parent
        is a member or finished by the cluster start, the grown cluster
        keeps the §4.2 ports, the cycle budget and its external
        consumers' starts, and its reservation still fits."""
        runner = self.runner
        cluster_of = self.cluster_of
        at = self.cl_start[cid]
        arrival = 0.0
        for pred in preds:
            other = cluster_of[pred]
            if other == cid:
                if self.arrival[pred] > arrival:
                    arrival = self.arrival[pred]
            elif (self.cl_finish[other] if other >= 0
                  else self.sw_finish[pred]) > at:
                return False
        counts = self.cl_counts[cid]
        outside = self.outside
        n_in, n_out = self.cl_in[cid], self.cl_out[cid]
        grown = []
        for vid, is_out, change, reads, stops in touched:
            for pred in reads:
                if cluster_of[pred] != cid:
                    change += 1
            for pred in stops:
                if cluster_of[pred] == cid and outside[pred] == 1:
                    change -= 1
            if change:
                old = counts.get(vid, 0)
                new = old + change
                grown.append((vid, new))
                if (new > 0) != (old > 0):
                    if is_out:
                        n_out += 1 if new > 0 else -1
                    else:
                        n_in += 1 if new > 0 else -1
        constraints = runner.constraints
        if n_in > constraints.n_in or n_out > constraints.n_out:
            return False
        arrival += delay
        new_delay = max(arrival, self.cl_delay[cid])
        cycles = runner.technology.cycles_for_delay(new_delay)
        limit = constraints.max_ise_cycles
        if limit is not None and cycles > limit:
            return False
        if at + cycles > self.cl_ceiling[cid]:
            return False
        # Release-and-fit at the cluster start: only the port rows move
        # (the issue slot and the ASFU stay one each).
        packing = runner.packing
        word = self.words[at]
        moved_in, moved_out = n_in - self.cl_in[cid], n_out - self.cl_out[cid]
        if (moved_in > packing.room(word, _READS)
                or moved_out > packing.room(word, _WRITES)):
            return False
        self.words[at] = (word + (moved_in << packing.shifts[_READS])
                          + (moved_out << packing.shifts[_WRITES]))
        counts.update(grown)
        for pred in runner._data_preds[node]:
            if cluster_of[pred] == cid:
                outside[pred] -= 1
        self.cl_in[cid], self.cl_out[cid] = n_in, n_out
        self.cl_delay[cid] = new_delay
        self.cl_cycles[cid] = cycles
        self.cl_finish[cid] = at + cycles
        self.cl_slots[cid].append(self.seq[-1])
        cluster_of[node] = cid
        self.arrival[node] = arrival
        return True


def _roulette_rows(weights, slot_ready, draws,
                   masked=None, cum=None, reached=None, picks=None):
    """Batched Eq. 1 roulette: one chosen slot per ant row.

    Exact counterpart of the scalar ``_roulette`` over each row's ready
    slots: zero-weight (unready) slots leave the running cumulative sum
    unchanged, so the first slot whose cumulative weight reaches the
    scaled draw is the same candidate the scalar accumulation loop
    picks, bit for bit.  Degenerate all-zero rows fall back to the
    scalar path's uniform pick over that row's candidates.  The
    optional work arrays let the step loop reuse its buffers.
    """
    masked = np.multiply(weights, slot_ready, out=masked)
    cum = np.cumsum(masked, axis=1, out=cum)
    totals = cum[:, -1]
    picks = np.multiply(draws, totals, out=picks)
    reached = np.greater_equal(cum, picks[:, None], out=reached)
    slots = reached.argmax(1)
    # Fast path: every pick positive — the overwhelmingly common case.
    # A draw below one never scales past the total, and the first
    # cumulative weight to reach a positive pick grew there, so it
    # lands on a ready slot (weights are floored positive).
    if picks.min() > 0.0:
        return slots
    # Rare fix-ups, resolved per affected row:
    # * a zero (or underflowed) total mirrors the scalar uniform pick
    #   (and exposes a deadlocked row: no ready slot at all);
    # * ``pick <= 0`` lands on index 0 even when slot 0 is unready —
    #   the scalar loop returns the first candidate.
    for row in range(len(slots)):
        if picks[row] > 0.0:
            continue
        candidates = np.flatnonzero(slot_ready[row])
        count = len(candidates)
        if not count:
            raise ExplorationError("ready set empty with work remaining")
        if totals[row] <= 0.0:
            slots[row] = candidates[min(int(draws[row] * count), count - 1)]
        else:
            slots[row] = candidates[0]
    return slots
