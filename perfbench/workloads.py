"""The benchmark's three workloads.

Each workload runs a fixed set of results, sized from ``--seconds`` by
a nominal cost per unit on a 2-cpu host, so the same seed and seconds
always produce the same results.  It returns ``(values, digest)``:
``values`` maps every end-to-end and per-layer metric name to its
value (a layer the workload does not run in this process reads 0),
``digest`` is a SHA-256 over the results in order.

* ``explore-large`` — :func:`repro.api.explore` + :func:`repro.api.evaluate`
  on the big jpeg/blowfish blocks, in this process (``jobs=1``).
* ``sweep-small`` — :func:`repro.api.sweep` over small blocks on the
  worker pool, a cold pass then a warm pass per unit.
* ``serve-mixed`` — ``repro serve`` as a subprocess, driven closed-loop
  over two connections with pipelined bursts.
"""

import contextlib
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
from hostclock import HostClock
from tracer import ROUND_CHILDREN

clock = time.perf_counter

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

EXPLORE_PROGRAMS = ("jpeg", "blowfish")
EXPLORE_MACHINE = (2, "4/2")
EXPLORE_BUDGETS = (20_000, 80_000, 320_000)
#: Nominal seconds of one explore-large unit (one ACO seed, both programs).
EXPLORE_UNIT_S = 5.0

SWEEP_PROGRAMS = ("crc32", "adpcm", "bitcount", "dijkstra")
SWEEP_COLD_BUDGETS = (20_000, 80_000, 320_000)
#: The warm pass shares one budget (80 000) with the cold pass.
SWEEP_WARM_BUDGETS = (40_000, 80_000, 160_000)
SWEEP_SHARED_BUDGET = 80_000
SWEEP_JOBS = 2
#: Nominal seconds of one sweep-small unit (a cold and a warm pass).
SWEEP_UNIT_S = 12.0

SERVE_PROGRAMS = ("crc32", "adpcm", "dijkstra")
SERVE_MACHINES = ((2, "4/2"), (4, "8/4"))
SERVE_BUDGETS = (10_000, 20_000, 40_000, 80_000, 160_000, 320_000)
SERVE_CONNECTIONS = 2
#: Requests per burst: the server's default per-connection quota.
SERVE_BURST = 8
#: Fresh explores per burst, cycled: 8 of 40 requests, one in five.
SERVE_EXPLORES = (2, 1, 2, 2, 1)
#: An evaluate names one of its connection's last few explores, so the
#: lane memo (64 entries) still holds it.
SERVE_RECENT = 8
#: Nominal bursts per second per connection.
SERVE_BURSTS_PER_S = 1.6
#: Served answers recomputed one-shot through repro.api per run.
SERVE_SAMPLE = 4
#: Bursts between host calibrations; both connections pause for each,
#: so the server is idle while the calibration kernels run.
SERVE_CALIBRATE_EVERY = 4


class Context:
    """Everything one run needs: arguments, tally, tracer, paths."""

    def __init__(self, workload, seed, seconds, root, tally, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.tally = tally
        self.tracer = tracer
        self.host = HostClock()
        self.observer = None
        if tracer is not None:
            from repro.obs import Observer

            self.observer = Observer()

    def span(self, name):
        """A benchmark-level span in traced runs, else a no-op."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def counters(self):
        """The observer's counters and gauges ({} when untraced)."""
        if self.observer is None:
            return {}
        snap = self.observer.metrics.snapshot()
        return dict(snap["gauges"], **snap["counters"])


# -- shared helpers ---------------------------------------------------------

def units_for(seconds, unit_seconds):
    """Fixed units of work that fill about ``seconds`` (at least one)."""
    return max(1, int(round(seconds / unit_seconds)))


def derived_seeds(workload, seed, count):
    """``count`` ACO seeds drawn from the workload seed."""
    rng = random.Random("{}:{}".format(workload, seed))
    return [rng.randrange(1 << 31) for __ in range(count)]


def percentile(values, q):
    """The ``q``-quantile of ``values`` (linear interpolation)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest_of(parts):
    """SHA-256 over a list of JSON-able result records, in order."""
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def vm_hwm_mb(pid="self"):
    """Peak resident set of a process in MB, from /proc (0 if gone)."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_env(root):
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def median_setup(ctx, set_up):
    """Median of ``SETUP_REPEATS`` calls of ``set_up``, each timed.

    ``set_up()`` returns the seconds it measured.  A calibration point
    is taken before the first call and after each, and each sample is
    divided by the mean of the points either side of it: a set-up is
    short, so the host speed while it ran is the one around it.
    """
    samples = []
    before = ctx.host.calibrate()
    for __ in range(SETUP_REPEATS):
        elapsed = set_up()
        after = ctx.host.calibrate()
        samples.append(elapsed / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def probe_setup(ctx, workload):
    """Median set-up time of fresh set-up processes (:func:`median_setup`).

    Each probe is a new interpreter that imports the program, builds the
    workload's programs and (for sweep-small) forks the worker pool.
    """
    script = os.path.join(ctx.root, "perfbench", "run.py")

    def probe():
        start = clock()
        subprocess.run([sys.executable, script, "--setup-probe", workload],
                       cwd=ctx.root, env=child_env(ctx.root), check=True,
                       timeout=120)
        return clock() - start

    return median_setup(ctx, probe)


def setup_probe(workload):
    """The body of one set-up probe process (see :func:`probe_setup`)."""
    import repro.api  # noqa: F401  (the import is part of set-up)
    from repro.workloads import get_workload

    programs = {"explore-large": EXPLORE_PROGRAMS,
                "sweep-small": SWEEP_PROGRAMS}[workload]
    for name in programs:
        get_workload(name).build()
    if workload == "sweep-small":
        from repro.core.pool import get_pool, shutdown_pools

        get_pool(SWEEP_JOBS)
        shutdown_pools()


def warm_up():
    """Finish lazy set-up (engine registry, lazy imports) before timing.

    One tiny exploration, so the first timed operation of a run does
    not also pay one-time costs that later operations skip.
    """
    from repro import api

    result = api.explore("crc32", iterations=4, jobs=1)
    api.evaluate(result, max_area=EXPLORE_BUDGETS[0])


def aco_layers(ctx, values):
    """Fill the in-process layer metrics from the tracer and counters."""
    totals = ctx.tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    values["ir.optimize_s"] = total("ir.optimize")
    values["flow.profile_s"] = own("flow.profile")
    values["graph.build_dfg_s"] = total("graph.build_dfg")
    values["graph.bitset_build_s"] = total("graph.bitset_build")
    values["graph.bitset_builds"] = totals.get(
        "graph.bitset_build", (0, 0.0, 0.0))[0]
    explore = total("aco.explore")
    values["aco.explore_s"] = explore
    for program in EXPLORE_PROGRAMS:
        values["explore.{}_s".format(program)] = ctx.tracer.covered(
            ["aco.explore"], "op." + program)
    values["aco.weights_s"] = total("aco.weights")
    values["aco.construct_s"] = own("aco.construct")
    values["aco.cluster_join_s"] = total("aco.cluster_join")
    values["aco.trail_s"] = total("aco.trail")
    values["aco.merit_s"] = own("aco.merit")
    values["aco.grouping_s"] = total("aco.grouping")
    values["aco.legalize_s"] = total("aco.legalize")
    values["aco.evaluate_s"] = total("aco.evaluate")
    values["aco.round_coverage"] = (
        ctx.tracer.covered(ROUND_CHILDREN, "aco.explore") / explore
        if explore else 0.0)
    values["select.evaluate_s"] = total("select.evaluate")
    values["select.merge_s"] = total("select.merge")
    values["select.select_s"] = total("select.select")
    values["select.replace_s"] = total("select.replace")


def counter_layers(ctx, values):
    """Fill the count and ratio layer metrics from observer counters."""
    counters = ctx.counters()

    def get(name):
        return counters.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values["aco.rounds"] = get("explore.rounds")
    values["aco.iterations"] = get("explore.iterations")
    values["aco.ants_batched"] = get("batch.ants_batched")
    values["aco.scalar_fallbacks"] = get("batch.scalar_fallbacks")
    values["aco.first_fit_scans"] = get("sched.first_fit_scans")
    values["aco.join_reject_ratio"] = ratio(
        get("iter.join_rejects"),
        get("iter.join_rejects") + get("iter.cluster_joins"))
    values["aco.grouping_memo_hit_ratio"] = ratio(
        get("grouping.memo_hits"),
        get("grouping.memo_hits") + get("grouping.memo_misses"))
    lookups = get("evalcache.hits") + get("evalcache.misses")
    values["evalcache.lookups"] = lookups
    values["evalcache.hit_ratio"] = ratio(get("evalcache.hits"), lookups)
    values["evalcache.shared_hit_ratio"] = ratio(
        get("evalcache.shared_hits"), lookups)
    values["select.legality_checked"] = get("match.legality_checked")
    values["select.prefilter_rejected"] = get("match.prefilter_rejected")
    values["pool.dispatches"] = get("pool.dispatches")
    values["pool.tasks"] = get("pool.tasks")
    values["pool.steals"] = get("pool.steals")
    values["pool.broadcast_bytes"] = get("pool.broadcast_bytes")
    values["pool.occupancy"] = get("pool.worker_occupancy")


def trace_summary(ctx, values, measured_s, untraced_s, traced_s):
    """Unattributed share and tracing overhead of a traced run.

    ``untraced_s``/``traced_s`` time the same first unit of work without
    and with the wrappers, each divided by the host slowness measured
    just before it, so the overhead compares like with like.
    """
    from tracer import LAYERS

    layer_names = {name for __, __, name in LAYERS} | {"pool.dispatch"}
    claimed = ctx.tracer.top_level(layer_names)
    values["trace.unattributed_share"] = (
        max(0.0, 1.0 - claimed / measured_s) if measured_s else 0.0)
    values["trace.overhead_pct"] = (
        100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0)


# -- explore-large ----------------------------------------------------------

def explore_large(ctx):
    """ACO exploration + selection on the big jpeg/blowfish blocks."""
    from repro import api
    from repro.serve import schema

    tally = ctx.tally
    setup_s = probe_setup(ctx, "explore-large")
    seeds = derived_seeds(ctx.workload, ctx.seed,
                          units_for(ctx.seconds, EXPLORE_UNIT_S))
    issue, ports = EXPLORE_MACHINE

    def one_program(program, aco_seed, observer, tally):
        """Explore + select one program; returns (seconds, results)."""
        op = "explore {} seed {}".format(program, aco_seed)
        start = clock()
        ok, result = tally.guard(
            op, api.explore, program, issue=issue, ports=ports,
            profile="quick", jobs=1, seed=aco_seed, observer=observer)
        selections = []
        if ok:
            for budget in EXPLORE_BUDGETS:
                sel_op = "{} budget {}".format(op, budget)
                ok, selection = tally.guard(
                    sel_op, api.evaluate, result, max_area=budget,
                    observer=observer)
                if ok:
                    selections.append((sel_op, selection))
        return clock() - start, op, result, selections

    warm_up()
    untraced_first = None
    if ctx.tracer is not None:
        # The overhead reference: the first unit once without wrappers.
        untraced_first = 0.0
        for program in EXPLORE_PROGRAMS:
            slowness = ctx.host.calibrate()
            untraced_first += one_program(
                program, seeds[0], None, checks.Tally())[0] / slowness
        ctx.tracer.install()

    latencies, reductions, records = [], [], []
    first_unit = 0.0
    for index, aco_seed in enumerate(seeds):
        for program in EXPLORE_PROGRAMS:
            slowness = ctx.host.calibrate()
            with ctx.span("op." + program):
                elapsed, op, result, selections = one_program(
                    program, aco_seed, ctx.observer, tally)
            latencies.append(elapsed)
            if index == 0:
                first_unit += elapsed / slowness
            if result is None:
                continue
            checks.check_explored(tally, op, result.explored)
            records.append(schema.payload_digest(
                schema.explore_payload(result)))
            for sel_op, selection in selections:
                checks.check_selection(tally, sel_op,
                                       selection.final_cycles,
                                       selection.baseline_cycles)
                reductions.append(100.0 * selection.reduction)
                records.append(schema.payload_digest(
                    schema.selection_payload(selection)))
    if ctx.tracer is not None:
        ctx.tracer.uninstall()
    ctx.host.calibrate()
    wall = sum(latencies)
    values = _end_to_end(ctx, setup_s, wall, reductions, latencies,
                         vm_hwm_mb())
    if ctx.tracer is not None:
        aco_layers(ctx, values)
        counter_layers(ctx, values)
        trace_summary(ctx, values, wall, untraced_first, first_unit)
    return values, digest_of(records)


def _end_to_end(ctx, setup_s, wall_s, reductions, latencies, rss_mb):
    """The end-to-end metrics every workload reports.

    ``setup_s`` is already in reference-host seconds; the other times
    are divided by the run's mean host slowness here (see
    ``hostclock.py``).  The raw ones are kept under ``raw.*``, with the
    calibration points, for the run's record.
    """
    slowness = ctx.host.slowness()
    values = {"reduction_pct": (statistics.fmean(reductions)
                                if reductions else 0.0),
              "peak_rss_mb": rss_mb, "setup_s": setup_s,
              "host.slowness": slowness,
              "host.points": list(ctx.host.points),
              "raw.latencies": list(latencies)}
    for prefix, scale in (("raw.", 1.0), ("", 1.0 / slowness)):
        values.update({
            prefix + "wall_s": wall_s * scale,
            prefix + "latency_p50_ms": 1000.0 * scale * percentile(
                latencies, 0.5),
            prefix + "latency_p90_ms": 1000.0 * scale * percentile(
                latencies, 0.9),
            prefix + "throughput_rps": (len(latencies) / (wall_s * scale)
                                        if wall_s else 0.0),
        })
    return values


# -- sweep-small ------------------------------------------------------------

class _CellClock:
    """Times the api calls a sweep makes, one cell at a time.

    :func:`repro.dist.sweep.run_sweep` looks ``repro.api.explore`` and
    ``repro.api.evaluate`` up at call time; this wraps both so each
    cell's latency (its explore plus its evaluates) is measured, and
    keeps each cell's exploration for the legality check.
    """

    def __init__(self, api):
        self.api = api
        self.cells = []            # [start, end, ExploreResult]
        self._explore = api.explore
        self._evaluate = api.evaluate

    def __enter__(self):
        def explore(*args, **kwargs):
            start = clock()
            result = self._explore(*args, **kwargs)
            self.cells.append([start, clock(), result])
            return result

        def evaluate(*args, **kwargs):
            result = self._evaluate(*args, **kwargs)
            self.cells[-1][1] = clock()
            return result

        self.api.explore = explore
        self.api.evaluate = evaluate
        return self

    def __exit__(self, *exc):
        self.api.explore = self._explore
        self.api.evaluate = self._evaluate
        return False


def sweep_small(ctx):
    """Cold + warm design-space sweeps of small blocks on the pool."""
    from repro import api
    from repro.core import pool as pool_module
    from repro.sched.machine import PAPER_CASES

    tally = ctx.tally
    setup_s = probe_setup(ctx, "sweep-small")
    seeds = derived_seeds(ctx.workload, ctx.seed,
                          units_for(ctx.seconds, SWEEP_UNIT_S))
    cells_per_pass = len(SWEEP_PROGRAMS) * len(PAPER_CASES)
    tracer = ctx.tracer

    opened = []

    def hook(phase, info):
        if phase == "start":
            opened.append(clock())
        elif opened:
            tracer.add("pool.dispatch", opened.pop(), clock())

    def one_pass(name, budgets, aco_seed, observer, tally):
        op = "sweep {} seed {}".format(name, aco_seed)
        with _CellClock(api) as cell_clock:
            start = clock()
            ok, result = tally.guard(
                op, api.sweep, SWEEP_PROGRAMS, budgets=budgets,
                jobs=SWEEP_JOBS, seed=aco_seed, observer=observer)
            elapsed = clock() - start
        return elapsed, op, result, cell_clock.cells

    def fork_pool():
        start = clock()
        pool_module.get_pool(SWEEP_JOBS)
        return clock() - start

    warm_up()
    untraced_first = None
    if tracer is not None:
        # The overhead reference: the first cold pass without wrappers.
        fork_pool()
        slowness = ctx.host.calibrate()
        untraced_first = one_pass("cold", SWEEP_COLD_BUDGETS, seeds[0],
                                  None, checks.Tally())[0] / slowness
        pool_module.shutdown_pools()
        tracer.install()
        pool_module.add_dispatch_hook(hook)

    passes = {"cold": [], "warm": []}
    latencies, reductions, records = [], [], []
    startup_s = 0.0
    peak_rss = 0.0
    first_cold = 0.0
    try:
        for aco_seed in seeds:
            if tracer is not None:
                with tracer.suspended():
                    startup_s += fork_pool()
            else:
                startup_s += fork_pool()
            rows_by_pass = {}
            for name, budgets in (("cold", SWEEP_COLD_BUDGETS),
                                  ("warm", SWEEP_WARM_BUDGETS)):
                slowness = ctx.host.calibrate()
                with ctx.span("op.sweep." + name):
                    elapsed, op, result, cells = one_pass(
                        name, budgets, aco_seed, ctx.observer, tally)
                passes[name].append(elapsed)
                if not first_cold:
                    first_cold = elapsed / slowness
                latencies.extend(end - start for start, end, __ in cells)
                for index, (__, __, explored) in enumerate(cells):
                    cell_op = "{} cell {}".format(op, index)
                    tally.attempt()
                    checks.check_explored(tally, cell_op, explored.explored)
                if result is None:
                    continue
                tally.check(len(result.rows) == cells_per_pass * len(budgets),
                            op, "expected {} rows, got {}".format(
                                cells_per_pass * len(budgets),
                                len(result.rows)))
                for row in result.rows:
                    row_op = "{} row {}".format(op, row)
                    tally.attempt()
                    checks.check_selection(tally, row_op, row.final_cycles,
                                           row.baseline_cycles)
                    reductions.append(100.0 * row.reduction)
                records.append(result.digest)
                rows_by_pass[name] = [row for row in result.rows
                                      if row.budget == SWEEP_SHARED_BUDGET]
            if len(rows_by_pass) == 2:
                tally.check(
                    rows_by_pass["cold"] == rows_by_pass["warm"],
                    "sweep seed {}".format(aco_seed),
                    "rows at the shared budget differ between passes")
            live = pool_module.active_pool()
            workers = live.worker_pids() if live is not None else []
            peak_rss = max(peak_rss, vm_hwm_mb() + sum(
                vm_hwm_mb(pid) for pid in workers))
            pool_module.shutdown_pools()
    finally:
        pool_module.remove_dispatch_hook(hook)
        pool_module.shutdown_pools()
        if tracer is not None:
            tracer.uninstall()
    ctx.host.calibrate()
    wall = sum(passes["cold"]) + sum(passes["warm"])
    values = _end_to_end(ctx, setup_s, wall, reductions, latencies,
                         peak_rss)
    if tracer is not None:
        aco_layers(ctx, values)
        counter_layers(ctx, values)
        totals = tracer.totals()
        values["pool.startup_s"] = startup_s
        values["pool.dispatch_s"] = totals.get(
            "pool.dispatch", (0, 0.0, 0.0))[1]
        values["sweep.cell_p50_s"] = percentile(latencies, 0.5)
        values["sweep.pass_cold_s"] = statistics.median(passes["cold"])
        values["sweep.pass_warm_s"] = statistics.median(passes["warm"])
        trace_summary(ctx, values, wall, untraced_first, first_cold)
    return values, digest_of(records)


# -- serve-mixed ------------------------------------------------------------

def serve_sequence(seed, connection, bursts):
    """The seeded request bursts of one connection.

    Each connection works on its own machine, so the two connections
    keep two scope lanes live and a request waits only behind its own
    connection's work.  Exactly one request in five is a fresh explore
    (explores per burst cycle through :data:`SERVE_EXPLORES`), with a new
    ACO seed per burst, rotating through the programs, so every run
    serves the same mix; the rest evaluate one of the connection's
    recent explores, all finished in earlier bursts, at a random budget.
    A burst sends its evaluates first, so a memo hit never queues behind
    a fresh exploration of its own lane: the median request is a hit and
    the 90th percentile a fresh explore.  The first burst is a single
    explore.
    """
    rng = random.Random("serve-mixed:{}:{}".format(seed, connection))
    issue, ports = SERVE_MACHINES[connection % len(SERVE_MACHINES)]
    explored = []
    sequence = [[_explore_request(SERVE_PROGRAMS[0], issue, ports,
                                  2 * rng.randrange(1 << 30) + connection)]]
    explored.extend(sequence[0])
    for index in range(bursts - 1):
        # Odd/even seeds keep the two connections' explorations apart.
        aco_seed = 2 * rng.randrange(1 << 30) + connection
        fresh = SERVE_EXPLORES[index % len(SERVE_EXPLORES)]
        recent = explored[-SERVE_RECENT:]
        burst = [dict(rng.choice(recent), op="evaluate",
                      max_area=rng.choice(SERVE_BUDGETS))
                 for __ in range(SERVE_BURST - fresh)]
        for __ in range(fresh):
            program = SERVE_PROGRAMS[len(explored) % len(SERVE_PROGRAMS)]
            explored.append(_explore_request(program, issue, ports,
                                             aco_seed))
            burst.append(explored[-1])
        sequence.append(burst)
    return sequence


def _explore_request(workload, issue, ports, seed):
    return {"op": "explore", "workload": workload, "issue": issue,
            "ports": ports, "seed": seed}


class _Server:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, root):
        # The server's own log (including its shutdown traceback on
        # SIGINT) goes to a file, not into the benchmark's output.
        self.log = open(os.path.join(root, ".perfbench", "serve.log"), "a")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("repro serve did not start: {!r}".format(
                line))
        self.address = line.rsplit(" ", 1)[1].strip()

    def stop(self):
        """Interrupt the server and wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self.log.close()


def _start_server(ctx):
    """Start the server and wait for its first ``status`` reply."""
    from repro.serve.client import ServiceClient

    start = clock()
    server = _Server(ctx.root)
    try:
        with ServiceClient(server.address) as client:
            client.status()
    except Exception:
        server.stop()
        raise
    return clock() - start, server


def _timed_client(address):
    """A ServiceClient that stamps when each answer arrives."""
    from repro.serve.client import ServiceClient

    class TimedClient(ServiceClient):
        def __init__(self, address):
            super().__init__(address)
            self.arrivals = {}

        def _read_response(self):
            kind, answered, body = super()._read_response()
            if kind != "event":
                self.arrivals[answered] = clock()
            return kind, answered, body

    return TimedClient(address)


def _send_burst(client, burst, answers):
    """Pipeline one burst, then collect every answer with its latency."""
    from repro.serve.client import ServiceError

    sent = [(request, clock(), client.send(request)) for request in burst]
    for request, start, request_id in sent:
        try:
            body, ok = client.wait(request_id), True
        except ServiceError as error:
            if error.code == "connection":
                raise
            body, ok = {"error": str(error), "code": error.code}, False
        answers.append((request, ok, body,
                        client.arrivals.get(request_id, clock()) - start))


def serve_mixed(ctx):
    """Closed-loop mixed explore/evaluate traffic against repro serve."""
    from repro import api
    from repro.serve import schema
    from repro.serve.client import ServiceError

    tally = ctx.tally
    server = None

    def restart():
        nonlocal server
        if server is not None:
            server.stop()
            server = None
        elapsed, server = _start_server(ctx)
        return elapsed

    try:
        setup_s = median_setup(ctx, restart)
        bursts = max(2, int(round(ctx.seconds * SERVE_BURSTS_PER_S)))
        sequences = [serve_sequence(ctx.seed, c, bursts)
                     for c in range(SERVE_CONNECTIONS)]
        # (request, ok, body, seconds) per answer
        answers = [[] for __ in sequences]
        errors = []
        paused = []

        def calibrate():
            start = clock()
            ctx.host.calibrate()
            paused.append(clock() - start)

        barrier = threading.Barrier(SERVE_CONNECTIONS, action=calibrate)

        def drive(connection):
            try:
                with _timed_client(server.address) as client:
                    for index, burst in enumerate(sequences[connection]):
                        if index and index % SERVE_CALIBRATE_EVERY == 0:
                            barrier.wait(timeout=170)
                        _send_burst(client, burst, answers[connection])
            except Exception as error:  # a dead connection ends the run
                barrier.abort()
                errors.append("connection {}: {!r}".format(connection,
                                                            error))

        threads = [threading.Thread(target=drive, args=(c,))
                   for c in range(SERVE_CONNECTIONS)]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall = clock() - start - sum(paused)
        ctx.host.calibrate()
        try:
            with _timed_client(server.address) as client:
                status = client.status()
        except ServiceError as error:
            status = {"counters": {}}
            errors.append("status: {!r}".format(error))
        peak_rss = vm_hwm_mb() + vm_hwm_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    expected = sum(len(burst) for seq in sequences for burst in seq)
    tally.attempt(expected)
    for message in errors:
        tally.fail(message, message)
    latencies, reductions, records = [], [], []
    hit, fresh = [], []
    served = []
    for connection, conn_answers in enumerate(answers):
        for index, (request, ok, body, seconds) in enumerate(conn_answers):
            op = "serve connection {} request {}".format(connection, index)
            latencies.append(seconds)
            (fresh if request["op"] == "explore" else hit).append(seconds)
            if not ok:
                tally.fail(op, "{}: {}".format(body["code"], body["error"]))
                continue
            if request["op"] == "evaluate":
                checks.check_selection(tally, op, body["final_cycles"],
                                       body["baseline_cycles"])
                reductions.append(100.0 * body["reduction"])
                digest = schema.selection_digest(body)
            else:
                digest = schema.explore_digest(body)
            tally.check(digest == body.get("digest"), op,
                        "served digest does not match its payload")
            records.append(digest)
            served.append((op, request, digest))
    if len(records) != expected:
        tally.fail("serve answers", "{} of {} requests answered".format(
            len(records), expected))

    # One-shot recomputation of a seeded sample of served answers.
    rng = random.Random("serve-mixed-sample:{}".format(ctx.seed))
    for op, request, digest in rng.sample(served,
                                          min(SERVE_SAMPLE, len(served))):
        params = {name: request[name]
                  for name in ("issue", "ports", "seed")}
        ok, result = tally.guard(op + " one-shot", api.explore,
                                 request["workload"], **params)
        if not ok:
            continue
        checks.check_explored(tally, op, result.explored)
        if request["op"] == "evaluate":
            ok, result = tally.guard(op + " one-shot select", api.evaluate,
                                     result, max_area=request["max_area"])
            if not ok:
                continue
            expect = schema.selection_digest(schema.selection_payload(result))
        else:
            expect = schema.explore_digest(schema.explore_payload(result))
        tally.check(expect == digest, op,
                    "served answer differs from the one-shot api answer")

    values = _end_to_end(ctx, setup_s, wall, reductions, latencies,
                         peak_rss)
    if ctx.tracer is not None:
        counters = status["counters"]
        explores = sum(1 for seq in sequences for burst in seq
                       for request in burst if request["op"] == "explore")
        values["serve.hit_latency_p50_ms"] = 1000.0 * percentile(hit, 0.5)
        values["serve.fresh_latency_p50_ms"] = 1000.0 * percentile(fresh,
                                                                   0.5)
        values["serve.memo_hit_ratio"] = (
            counters.get("serve.memo_hits", 0) / expected)
        values["serve.fusion_ratio"] = (
            counters.get("serve.batched_requests", 0) / explores)
        values["serve.quota_rejections"] = counters.get(
            "serve.quota_rejections", 0)
        # The client side records no spans, so nothing is unattributed
        # and tracing costs nothing.
        values["trace.unattributed_share"] = 1.0
        values["trace.overhead_pct"] = 0.0
    return values, digest_of(records)


WORKLOADS = {
    "explore-large": explore_large,
    "sweep-small": sweep_small,
    "serve-mixed": serve_mixed,
}
