"""Self-tests of the benchmark, each workload at its smallest size.

Run from the repository root (about four minutes on a 2-cpu host)::

    python3 -m pytest perfbench/tests -q

Every test starts ``perfbench/run.py`` as a fresh process, exactly as a
benchmark run is started, and reads what it prints.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ("explore-large", "sweep-small", "serve-mixed")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _clean_env(**extra):
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(extra)
    return env


def _launch(workload, seed=SEED, trace=0, extra=(), env=None, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, env=env if env is not None else _clean_env(),
        capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def run(workload, trace=0, repeat=0):
    """One smallest-size run (``repeat`` tells same-seed runs apart)."""
    return _launch(workload, trace=trace)


def result(process):
    """The JSON result object on the last line of standard output."""
    return json.loads(process.stdout.strip().splitlines()[-1])


def printed(process, key):
    """The text after ``key`` on the first stdout line starting with it."""
    for line in process.stdout.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:].strip()
    raise AssertionError("no {!r} line in:\n{}".format(key, process.stdout))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    process = run(workload, trace)
    assert process.returncode == 0, process.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    outcome = result(process)
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    assert set(outcome["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = outcome["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        value, unit = printed(process, metric["name"]).split()
        assert unit == metric["unit"] and float(value) == pytest.approx(
            reported["value"], abs=1e-6)
    assert float(printed(process, "error_rate").split()[0]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_return_identical_results(workload):
    assert printed(run(workload, 1), "digest") == printed(run(workload, 0),
                                                         "digest")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_results_and_quality(workload):
    first, second = run(workload, 0), run(workload, 0, repeat=1)
    assert printed(first, "digest") == printed(second, "digest")
    assert (result(first)["metrics"]["reduction_pct"]["value"]
            == result(second)["metrics"]["reduction_pct"]["value"])


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        for name, metric in result(run(workload, 0))["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_explore_large_trace_covers_the_aco_round():
    metrics = result(run("explore-large", 1))["metrics"]
    assert metrics["aco.round_coverage"]["value"] >= 0.8
    assert metrics["aco.explore_s"]["value"] > 0
    assert metrics["aco.iterations"]["value"] > 0


def test_injected_failing_check_is_counted_not_fatal():
    process = _launch("serve-mixed", extra=("--inject-failure",))
    assert process.returncode == 1, process.stderr
    outcome = result(process)
    assert outcome["correct"] is False
    assert outcome["failed"] == 1 and outcome["attempted"] > 1
    assert set(outcome["metrics"]) == {m["name"]
                                       for m in SPEC["end_to_end"]}
    assert float(printed(process, "error_rate").split()[0]) > 0.0
    assert "injected failure" in printed(process, "FAILED")


@pytest.mark.parametrize("knob", ("REPRO_ANT_BATCH", "REPRO_JOBS",
                                  "REPRO_POOL_PERSIST"))
def test_refuses_outcome_or_speed_knobs(knob):
    process = _launch("serve-mixed", env=_clean_env(**{knob: "1"}))
    assert process.returncode == 2
    assert knob in process.stderr
    assert process.stdout.strip() == ""


#: Runs a command as a reaper of its orphans, sends it SIGTERM after
#: ``argv[1]`` seconds unless that is 0, then prints whether any process
#: it started (or their descendants) was still there after it exited:
#: once it has, every such process is this script's child.
_LEFTOVER_PROBE = """
import ctypes, json, os, signal, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
delay = float(sys.argv[1])
child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
if delay:
    try:
        child.wait(timeout=delay)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGTERM)
code = child.wait()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"code": code, "left": left}))
"""


@pytest.mark.parametrize("workload,stop_after,code", [
    *((workload, 0, 0) for workload in WORKLOADS),
    # Terminated mid-run, on a 2-cpu host while its pool is up.
    ("sweep-small", 12, 128 + 15),
])
def test_leaves_no_process_behind(workload, stop_after, code):
    script = os.path.join(ROOT, "perfbench", "run.py")
    process = subprocess.run(
        [sys.executable, "-c", _LEFTOVER_PROBE, str(stop_after),
         sys.executable, script, "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=_clean_env(), capture_output=True, text=True,
        timeout=600)
    assert json.loads(process.stdout) == {"code": code, "left": False}


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _launch("explore-large", cwd=str(tmp_path))
    assert process.returncode != 0
    assert process.stdout.strip() == ""
