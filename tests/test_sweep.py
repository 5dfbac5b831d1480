"""The sharded sweep dispatcher: partitioning, merging, bit-parity.

The headline contract: for any shard count, running every shard
independently and merging the parts yields *bit-identical* rows (and
digest) to one serial sweep — partitioning is deterministic by cell
fingerprint, cells are independent, and the merge re-imposes canonical
grid order.  Everything here runs a tiny effort grid so the whole
module stays in CI-smoke territory.
"""

import json

import pytest

from repro.api import sweep as api_sweep
from repro.dist.sweep import (
    SweepResult,
    SweepRow,
    cell_fingerprint,
    cell_grid,
    merge_sweeps,
    parse_shard,
    render_sweep,
    run_sweep,
    shard_of,
    sweep_digest,
)
from repro.errors import ReproError
from repro.eval.persistence import CACHE_DIR_ENV, CACHE_ENV

MACHINES = (("4/2", 2), ("6/3", 3))
BUDGETS = (20_000.0, 320_000.0)
TINY = dict(workloads=("crc32",), machines=MACHINES, budgets=BUDGETS,
            iterations=6, restarts=1)


@pytest.fixture
def shared_disk_cache(tmp_path_factory, monkeypatch):
    """One disk cache for the module's repeated identical explorations."""
    monkeypatch.setenv(CACHE_ENV, "1")
    monkeypatch.setenv(
        CACHE_DIR_ENV,
        str(tmp_path_factory.getbasetemp() / "sweep_cache"))


# -- partitioning -----------------------------------------------------------

def test_cell_grid_order_is_machines_outer():
    cells = cell_grid(("a", "b"), MACHINES)
    assert cells == (("a", "4/2", 2), ("b", "4/2", 2),
                     ("a", "6/3", 3), ("b", "6/3", 3))


def test_shard_partition_is_disjoint_complete_deterministic():
    cells = cell_grid(("adpcm", "jpeg", "crc32", "sha"), MACHINES)
    for count in (1, 2, 3, 5):
        owners = {
            cell: shard_of(
                cell_fingerprint(cell, "O3", "quick", 0, "aco"), count)
            for cell in cells
        }
        assert set(owners.values()) <= set(range(count))
        # Every cell lands on exactly one shard (dict: trivially), and
        # re-hashing assigns the same owner.
        again = {
            cell: shard_of(
                cell_fingerprint(cell, "O3", "quick", 0, "aco"), count)
            for cell in cells
        }
        assert owners == again
    # The fingerprint covers every grid-spec field: changing any one
    # moves to a fresh fingerprint (no accidental collisions).
    base = cell_fingerprint(("w", "4/2", 2), "O3", "quick", 0, "aco")
    assert base != cell_fingerprint(("w", "4/2", 2), "O0", "quick", 0, "aco")
    assert base != cell_fingerprint(("w", "4/2", 2), "O3", "quick", 1, "aco")
    assert base != cell_fingerprint(("w", "8/4", 2), "O3", "quick", 0, "aco")


def test_parse_shard():
    assert parse_shard("0/4") == (0, 4)
    assert parse_shard("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "0/0", "nope", "1", ""):
        with pytest.raises(ReproError):
            parse_shard(bad)


def test_run_sweep_validates_inputs():
    with pytest.raises(ReproError):
        run_sweep(workloads=(), machines=MACHINES, budgets=BUDGETS)
    with pytest.raises(ReproError):
        run_sweep(workloads=("crc32",), machines=MACHINES,
                  budgets=BUDGETS, shard=(2, 2))


# -- the bit-parity contract ------------------------------------------------

def test_sharded_merge_equals_serial(shared_disk_cache):
    serial = api_sweep(**TINY)
    assert len(serial.rows) == len(MACHINES) * len(BUDGETS)
    parts = [api_sweep(**TINY, shard=(i, 2)) for i in range(2)]
    assert sum(len(part.rows) for part in parts) == len(serial.rows)
    merged = merge_sweeps(parts)
    assert merged.rows == serial.rows                 # bit-identical
    assert merged.digest == serial.digest
    assert merged.shard_index is None


def test_sweep_payload_roundtrip(shared_disk_cache):
    result = api_sweep(**TINY, shard=(0, 2))
    payload = json.loads(json.dumps(result.to_payload()))
    assert SweepResult.from_payload(payload) == result
    # Tampering with a row breaks the digest check on load.
    payload["rows"][0]["final_cycles"] += 1
    with pytest.raises(ReproError):
        SweepResult.from_payload(payload)
    payload["_schema"] = 999
    with pytest.raises(ReproError):
        SweepResult.from_payload(payload)


# -- merge error paths ------------------------------------------------------

def _row(workload="w", ports="4/2", issue=2, budget=1.0):
    return SweepRow(workload=workload, ports=ports, issue=issue,
                    budget=budget, baseline_cycles=100, final_cycles=80,
                    reduction=0.2, num_ises=1, area=50.0)


def _result(rows, workloads=("w",), machines=(("4/2", 2),),
            budgets=(1.0,), shard_index=0, shard_count=1, seed=0):
    return SweepResult(workloads=workloads, machines=machines,
                       budgets=budgets, opt="O3", profile="quick",
                       seed=seed, engine="aco", shard_index=shard_index,
                       shard_count=shard_count, rows=tuple(rows))


def test_merge_rejects_empty_and_mismatched_specs():
    with pytest.raises(ReproError):
        merge_sweeps([])
    with pytest.raises(ReproError):
        merge_sweeps([_result([_row()]), _result([_row()], seed=1)])


def test_merge_rejects_duplicate_and_missing_cells():
    with pytest.raises(ReproError, match="duplicate"):
        merge_sweeps([_result([_row()]), _result([_row()])])
    with pytest.raises(ReproError, match="missing"):
        merge_sweeps([_result([], workloads=("w",))])


def test_merge_reimposes_canonical_order():
    rows = [_row(budget=2.0), _row(budget=1.0)]       # reversed order
    part = _result(rows, budgets=(1.0, 2.0))
    merged = merge_sweeps([part])
    assert [row.budget for row in merged.rows] == [1.0, 2.0]
    assert merged.digest == sweep_digest(merged.rows)


# -- rendering and observability --------------------------------------------

def test_render_sweep_matrix():
    part = _result([_row(budget=1.0), _row(budget=2.0)],
                   budgets=(1.0, 2.0))
    text = render_sweep(part)
    assert "(4/2, 2IS)" in text and "20.00%" in text
    assert "Best cell" in text


def test_sweep_trace_summary(shared_disk_cache, tmp_path):
    from repro.obs import load_trace, render_summary, summarize_trace

    trace = str(tmp_path / "sweep.jsonl")
    api_sweep(**TINY, shard=(0, 2), trace=trace)
    summary = summarize_trace(load_trace(trace))
    assert summary["sweep"] is not None
    assert summary["sweep"]["sweep.cells"] == len(MACHINES)
    assert summary["sweep"]["done"]["shard_index"] == 0
    rendered = render_summary(summary)
    assert "sweep:" in rendered


def test_cli_sweep_shard_and_merge(shared_disk_cache, tmp_path, capsys):
    from repro.cli import main

    parts = []
    for i in range(2):
        out = str(tmp_path / "part{}.json".format(i))
        code = main(["sweep", "--workloads", "crc32",
                     "--machines", "2:4/2,3:6/3",
                     "--budgets", "20000,320000",
                     "--iterations", "6", "--restarts", "1",
                     "--shard", "{}/2".format(i), "--out", out])
        assert code == 0
        parts.append(out)
    code = main(["sweep", "--merge"] + parts)
    assert code == 0
    merged_text = capsys.readouterr().out
    assert "digest   :" in merged_text and "Execution-time" in merged_text
