"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore-large --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same work with the layer wrappers of ``tracer.py`` installed and
reports the per-layer metrics instead.  The metric names and units are
those declared in ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full record (environment, digest, failures) is written under
``.perfbench/`` in the checkout, with the spans of a traced run.

The exit code is 0 when every check passed, 1 when a check failed (the
result line is still printed) and 2 when the benchmark cannot run.

On every way out, the run waits until each process it started has
ended: the set-up probes, the calibration helper, the worker pool, the
server, and the ``multiprocessing`` resource tracker that the pool's
shared memory starts in each of them.  A tracker whose process exits
outlives it for a moment as an orphan, so the run makes itself the
reaper of its orphaned descendants and waits for those too.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Environment knobs that change outcomes or speed; a run refuses them.
REFUSED_KNOBS = ("REPRO_ANT_BATCH", "REPRO_BITSET", "REPRO_EVALCACHE",
                 "REPRO_JOBS", "REPRO_EVAL_PROFILE")
REFUSED_PREFIX = "REPRO_POOL_"

WORKLOAD_NAMES = ("explore-large", "sweep-small", "serve-mixed")

#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds the children get to end on their own before they are killed.
REAP_GRACE_S = 20.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail the first check on purpose (self-test)")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES[:2],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def refuse(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def prepare_environment():
    """Refuse tuning knobs, pin a clean environment, find the program."""
    knobs = sorted(name for name in os.environ
                   if name in REFUSED_KNOBS
                   or name.startswith(REFUSED_PREFIX))
    if knobs:
        refuse("refusing to run with {} set: they change outcomes or "
               "speed".format(", ".join(knobs)))
    os.environ["REPRO_CACHE"] = "0"
    os.environ.pop("REPRO_REMOTE_CACHE", None)
    scratch = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        refuse("no program source at {} (run from a checkout "
               "root)".format(src))
    sys.path.insert(0, src)


def adopt_orphans():
    """Become the reaper of orphaned descendants (Linux; else a no-op)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids():
    """PIDs of this process's children, live or not yet reaped."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        # The parent PID is the second field after the ")" that ends
        # the command name (which may itself hold spaces).
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children():
    """Stop the pool and resource tracker, then wait for every child.

    The workloads stop what they start; this also covers a run cut
    short by an error.  A child still running after :data:`REAP_GRACE_S`
    is killed; children it leaves behind are adopted (see
    :func:`adopt_orphans`) and waited for in turn.
    """
    from multiprocessing import resource_tracker

    pool = sys.modules.get("repro.core.pool")
    if pool is not None:
        pool.shutdown_pools()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _terminated(signum, frame):
    """SIGTERM ends the run through its clean-up path."""
    sys.exit(128 + signum)


def declared_metrics():
    """``(end_to_end, per_layer)`` as ``[(name, unit)]`` lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        refuse("cannot read {}: {}".format(path, error))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def environment_record():
    """Host and code identity stored with every result."""
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True,
                timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, __, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    # A launcher may start the run with SIGINT ignored (a background job
    # does); children would inherit that, and the server is stopped with
    # SIGINT.  A handled SIGINT is reset to the default in children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminated)
    adopt_orphans()
    try:
        return run(args)
    finally:
        stop_children()


def run(args):
    """Set up, run and report one workload (or one set-up probe)."""
    prepare_environment()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.setup_probe:
        workloads.setup_probe(args.setup_probe)
        return 0
    end_to_end, per_layer = declared_metrics()

    import checks
    from tracer import Tracer

    tally = checks.Tally(inject=args.inject_failure)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(args.workload, args.seed, args.seconds, ROOT,
                            tally, tracer=tracer)
    started = time.time()
    try:
        values, digest = workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.host.close()
    if args.trace:
        # A layer that does not run in this process on this workload
        # (the pool on explore-large, the ACO round inside pool workers
        # or the server) did no work here and reads 0.
        declared = per_layer
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in declared}
    else:
        declared = end_to_end
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared}
    correct = tally.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": started, "environment": environment_record(),
        "digest": digest, "attempted": tally.attempted,
        "failed": tally.failed, "error_rate": tally.error_rate,
        "failures": tally.failures, "values": values,
    }
    out = os.path.join(ROOT, ".perfbench")
    stem = "{}-seed{}-trace{}".format(args.workload, args.seed, args.trace)
    with open(os.path.join(out, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(out, stem + ".spans.jsonl"))

    print("environment {}".format(json.dumps(record["environment"],
                                             sort_keys=True)))
    print("digest {}".format(digest))
    for name, unit in declared:
        print("{:32s} {:>16.6f} {}".format(name, metrics[name]["value"],
                                           unit))
    print("{:32s} {:>16.6f} {}".format("error_rate", tally.error_rate,
                                       "fraction"))
    for op, reason in list(tally.failures.items())[:5]:
        print("FAILED {}: {}".format(op, reason.strip().splitlines()[-1]))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
