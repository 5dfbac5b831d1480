"""Regression: the disk ExplorationCache and the in-memory tiers
compose as store-once / hit-from-nearest-tier.

An exploration result exists in up to three places: the EvalContext's
in-process memo, the on-disk ExplorationCache, and (transitively) the
evalcache that accelerated the exploration itself.  The contract under
test: each tier stores a result exactly once, a repeat request is
served by the *nearest* tier that has it, and a farther tier is never
written again for a result that was served from a nearer one — across
two full :class:`EvalContext` lifetimes sharing one cache directory.
"""

from repro.core.batch import BATCH_ENV
from repro.eval import persistence
from repro.eval.persistence import CACHE_DIR_ENV, CACHE_ENV
from repro.eval.runner import EvalContext
from repro.sched.machine import MachineConfig


def test_store_once_hit_from_nearest_tier(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    machine = MachineConfig(2, "4/2")
    cell = ("crc32", machine, "O3", "MI")

    # Lifetime 1: cold miss explores + stores to disk once; the repeat
    # request is a memory hit that never touches the disk tier again.
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as first:
        __, explored_cold = first.explored(*cell)
        ___, explored_repeat = first.explored(*cell)
        assert explored_repeat is explored_cold        # memory tier
        stats = first.cache_stats()
        assert stats["memory_misses"] == 1 and stats["memory_hits"] == 1
        assert stats["disk_misses"] == 1               # the cold probe
        assert stats["disk_stores"] == 1               # stored exactly once
        assert stats["disk_hits"] == 0
        assert first.disk_cache.stored_bytes > 0

    stored = sorted(tmp_path.glob("*.pkl"))
    assert len(stored) == 1

    # Lifetime 2: fresh memory tier, so the disk tier serves the hit —
    # and nothing is re-stored (no double-storing across lifetimes).
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as second:
        __, explored_disk = second.explored(*cell)
        ___, explored_mem = second.explored(*cell)
        assert explored_mem is explored_disk
        stats = second.cache_stats()
        assert stats["disk_hits"] == 1 and stats["disk_misses"] == 0
        assert stats["disk_stores"] == 0
        assert stats["memory_misses"] == 1 and stats["memory_hits"] == 1
        assert second.disk_cache.stored_bytes == 0
        # The served bundle is equivalent to the one explored cold.
        assert explored_disk.baseline_cycles == explored_cold.baseline_cycles
        assert len(explored_disk.candidates) == len(explored_cold.candidates)

    assert sorted(tmp_path.glob("*.pkl")) == stored    # still one file


def test_disk_key_covers_batch_and_code(tmp_path, monkeypatch):
    """Bundles answer only for the batch size and the algorithm code
    that produced them: changing either is a miss, an identical re-run
    hits."""
    monkeypatch.setenv(CACHE_ENV, "1")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(BATCH_ENV, raising=False)
    cell = ("crc32", MachineConfig(2, "4/2"), "O3", "MI")
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as context:
        key = context._disk_key(*cell)
        context.disk_cache.store(key, {"bundle": 1})
        assert context._disk_key(*cell) == key
        assert context.disk_cache.load(context._disk_key(*cell)) == {
            "bundle": 1}
        monkeypatch.setenv(BATCH_ENV, "1")
        assert context.disk_cache.load(context._disk_key(*cell)) is None
        monkeypatch.delenv(BATCH_ENV)
        other = persistence.code_fingerprint()[::-1]
        monkeypatch.setattr(persistence, "code_fingerprint", lambda: other)
        assert context.disk_cache.load(context._disk_key(*cell)) is None


def test_code_fingerprint_tracks_algorithm_sources(tmp_path, monkeypatch):
    """The fingerprint digests every module source of the package:
    the algorithm, and also the IR passes and the workloads that decide
    DFGs and block frequencies."""
    root = tmp_path / "repro"
    packages = ("core", "engines", "sched", "graph", "hwlib", "ir",
                "ir/passes", "isa", "workloads")
    for package in packages:
        (root / package).mkdir(parents=True, exist_ok=True)
        (root / package / "module.py").write_text("VALUE = 1\n")
    (root / "config.py").write_text("VALUE = 1\n")
    (root / "eval").mkdir()
    (root / "eval" / "notes.txt").write_text("not a module\n")
    monkeypatch.setattr(persistence, "__file__",
                        str(root / "eval" / "persistence.py"))

    def fingerprint():
        persistence.code_fingerprint.cache_clear()
        return persistence.code_fingerprint()

    try:
        seen = [fingerprint()]
        assert fingerprint() == seen[0]
        (root / "eval" / "notes.txt").write_text("edited\n")
        assert fingerprint() == seen[0]       # only .py sources count
        for path in ("core/module.py", "ir/passes/module.py",
                     "workloads/module.py", "config.py"):
            (root / path).write_text("VALUE = 2\n")
            seen.append(fingerprint())
            assert seen[-1] not in seen[:-1], path
    finally:
        persistence.code_fingerprint.cache_clear()
