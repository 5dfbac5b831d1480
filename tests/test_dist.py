"""The remote evalcache tier: protocol, server, client and the stack.

The contracts under test, bottom-up:

* the wire format round-trips every op and rejects truncation,
  trailing bytes and unknown tags as :class:`ProtocolError`;
* the server store is a bounded first-write-wins LRU;
* the client never raises on network trouble — a dead server, a rogue
  peer speaking garbage, a mid-sweep kill all degrade to local misses
  behind a circuit breaker, bit-identically;
* the four-tier stack (local dict → shared shm table → remote TCP →
  recompute) answers from the *nearest* tier that has the value and
  promotes farther hits into nearer tiers;
* scope isolation: a cycle count stored under one machine scope never
  answers a probe from another.
"""

import pickle
import socket
import socketserver
import threading

import pytest

from repro.core.evalcache import EvalCache
from repro.core.pool import SharedEvalCache, shared_key_bytes
from repro.dist import protocol
from repro.dist.client import (
    REMOTE_ENV,
    CircuitBreaker,
    RemoteEvalCache,
    remote_cache,
    reset_remote_cache,
)
from repro.dist.server import CacheStore, EvalCacheServer
from repro.eval.persistence import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    CACHE_MAX_BYTES_ENV,
    ExplorationCache,
)


@pytest.fixture
def server():
    instance = EvalCacheServer(port=0)
    instance.start_in_thread()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    instance = RemoteEvalCache(server.address, timeout=5.0)
    yield instance
    instance.close()


@pytest.fixture
def remote_env(server, monkeypatch):
    """Point the process-wide singleton at the fixture server."""
    monkeypatch.setenv(REMOTE_ENV, server.address)
    monkeypatch.setenv("REPRO_REMOTE_TIMEOUT", "5.0")
    reset_remote_cache()
    yield server
    reset_remote_cache()


# -- protocol ---------------------------------------------------------------

def test_request_roundtrips():
    cases = [
        (protocol.encode_get(b"key"), protocol.OP_GET, (b"key",)),
        (protocol.encode_mget([b"a", b"b"]), protocol.OP_MGET,
         ([b"a", b"b"],)),
        (protocol.encode_put(b"k", b"v"), protocol.OP_PUT, (b"k", b"v")),
        (protocol.encode_mput([(b"k", b"v"), (b"l", b"w")]),
         protocol.OP_MPUT, ([(b"k", b"v"), (b"l", b"w")],)),
        (protocol.encode_stats(), protocol.OP_STATS, ()),
        (protocol.encode_snap(10, 8), protocol.OP_SNAP, (10, 8)),
    ]
    for payload, want_op, want_args in cases:
        op, args = protocol.decode_request(payload)
        assert (op, args) == (want_op, want_args)


def test_response_roundtrips():
    assert protocol.decode_get_response(
        protocol.encode_ok(protocol.encode_found(b"value"))) == b"value"
    assert protocol.decode_get_response(
        protocol.encode_ok(protocol.encode_found(None))) is None
    assert protocol.decode_mget_response(
        protocol.encode_mget_response([b"x", None]), 2) == [b"x", None]
    assert protocol.decode_count_response(
        protocol.encode_count_response(7)) == 7
    assert protocol.decode_stats_response(
        protocol.encode_stats_response({"hits": 3})) == {"hits": 3}
    assert protocol.decode_snap_response(
        protocol.encode_snap_response([(b"k", b"v")])) == [(b"k", b"v")]


def test_protocol_rejects_malformed_frames():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(b"")                  # empty
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(b"Z")                 # unknown op
    truncated = protocol.encode_put(b"key", b"value")[:-3]
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(truncated)
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(protocol.encode_get(b"k") + b"extra")
    with pytest.raises(protocol.ProtocolError):
        protocol.frame_length(b"\xff\xff\xff\xff")    # > MAX_FRAME
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_get_response(
            protocol.encode_err("boom"))              # ERR status raises
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_mget_response(
            protocol.encode_mget_response([b"x"]), 2)  # count mismatch


def test_cycles_pack_unpack():
    for value in (0, 1, 123456789, -1, 2**62):
        assert protocol.unpack_cycles(protocol.pack_cycles(value)) == value
    assert protocol.unpack_cycles(b"short") is None   # blobs are not cycles


# -- the server store -------------------------------------------------------

def test_store_first_write_wins_and_lru():
    store = CacheStore(max_entries=3)
    assert store.put(b"a", b"1") and store.put(b"b", b"2") \
        and store.put(b"c", b"3")
    assert store.put(b"a", b"other") is False         # first write wins
    assert store.get(b"a") == b"1"
    # "a" was just refreshed, so inserting two more evicts b then c.
    store.put(b"d", b"4")
    store.put(b"e", b"5")
    assert store.get(b"b") is None and store.get(b"c") is None
    assert store.get(b"a") == b"1"
    assert store.evictions == 2


def test_store_byte_bound_and_snapshot():
    store = CacheStore(max_entries=100, max_bytes=10)
    store.put(b"big", b"x" * 8)
    store.put(b"small", b"yy")                        # 10 bytes: both fit
    assert len(store) == 2
    store.put(b"third", b"zzz")                       # over budget: evict
    assert store.get(b"big") is None
    assert store.value_bytes <= 10
    # Snapshot returns youngest first and filters by value length.
    pairs = store.snapshot(limit=10, max_value_len=2)
    assert (b"small", b"yy") in pairs
    assert all(len(value) <= 2 for __, value in pairs)
    assert store.snapshot(limit=0, max_value_len=0) == []


def test_store_never_evicts_sole_entry():
    store = CacheStore(max_entries=10, max_bytes=4)
    store.put(b"huge", b"x" * 100)                    # alone: stays
    assert store.get(b"huge") is not None


# -- client against a live server -------------------------------------------

def test_cycles_roundtrip_and_batching(client):
    client.put_cycles(b"scope|k1", 123)
    assert client.pending == 1                        # logged, not sent
    assert client.get_cycles(b"scope|k1") is None     # not flushed yet
    assert client.flush() == 1
    assert client.get_cycles(b"scope|k1") == 123
    assert client.tallies["hits"] == 1
    assert client.mget_cycles([b"scope|k1", b"scope|k2"]) == [123, None]
    assert client.mget_cycles([]) == []


def test_flush_threshold_triggers_mput(server):
    client = RemoteEvalCache(server.address, timeout=5.0,
                             flush_threshold=3)
    try:
        client.put_cycles(b"a", 1)
        client.put_cycles(b"b", 2)
        assert client.pending == 2
        client.put_cycles(b"c", 3)                    # hits the threshold
        assert client.pending == 0
        assert client.tallies["flushes"] == 1
        assert server.store.inserted == 3
    finally:
        client.close()


def test_blob_roundtrip_and_size_cap(server):
    client = RemoteEvalCache(server.address, timeout=5.0, max_blob=16)
    try:
        assert client.put_blob(b"blob|k", b"payload") is True
        assert client.get_blob(b"blob|k") == b"payload"
        assert client.get_blob(b"blob|missing") is None
        assert client.put_blob(b"blob|big", b"x" * 17) is False  # capped
    finally:
        client.close()


def test_server_stats_and_snapshot(client):
    client.put_cycles(b"k1", 11)
    client.flush()
    client.put_blob(b"k2", b"not-a-cycle-count")
    stats = client.server_stats()
    assert stats["entries"] == 2 and stats["inserted"] == 2
    rows = client.snapshot_cycle_rows()
    assert rows == [(b"k1", 11)]                      # blob filtered out


def test_cross_scope_isolation(client):
    key = ("fingerprint", (), 100)
    client.put_cycles(shared_key_bytes("2is|4/2", key), 42)
    client.flush()
    assert client.get_cycles(shared_key_bytes("2is|4/2", key)) == 42
    assert client.get_cycles(shared_key_bytes("4is|8/4", key)) is None


def test_code_version_isolation(client, monkeypatch):
    """Shared-tier rows answer only for the algorithm code that wrote
    them: the remote server outlives client upgrades, so a changed
    code fingerprint misses in both the remote and the shm tier."""
    from repro.eval import persistence

    key = ("fingerprint", (), 100)
    written = shared_key_bytes("2is|4/2", key)
    client.put_cycles(written, 42)
    client.flush()
    shared = SharedEvalCache(slots=256)
    try:
        shared.insert(written, 42)
        other = persistence.code_fingerprint()[::-1]
        monkeypatch.setattr(persistence, "code_fingerprint", lambda: other)
        upgraded = shared_key_bytes("2is|4/2", key)
        assert upgraded != written
        assert client.get_cycles(upgraded) is None
        assert shared.lookup(upgraded) is None
        assert shared.lookup(written) == 42
    finally:
        shared.close()


# -- fault paths ------------------------------------------------------------

def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_dead_server_is_instant_miss_behind_breaker():
    client = RemoteEvalCache("127.0.0.1:{}".format(_free_port()),
                             timeout=0.2)
    try:
        assert client.get_cycles(b"k") is None
        assert client.tallies["errors"] == 1
        assert client.available is False              # breaker open
        assert client.get_cycles(b"k") is None        # no dial attempted
        assert client.tallies["errors"] == 1
        assert client.tallies["skipped"] >= 1
        client.put_cycles(b"k", 1)
        assert client.flush() == 0                    # dropped, not raised
        assert client.tallies["put_drops"] == 1
    finally:
        client.close()


def test_breaker_backoff_doubles_and_resets():
    breaker = CircuitBreaker()
    assert breaker.allow(now=0.0)
    breaker.record_failure(now=0.0)
    assert not breaker.allow(now=0.4) and breaker.allow(now=0.6)
    breaker.record_failure(now=1.0)                   # backoff now 1.0s
    assert not breaker.allow(now=1.9) and breaker.allow(now=2.1)
    assert breaker.opens == 2
    breaker.record_success()
    assert breaker.allow(now=0.0) and breaker.backoff == 0.5


class _RogueHandler(socketserver.BaseRequestHandler):
    """Answers any frame with a corrupt (truncated-body) response."""

    def handle(self):
        try:
            self.request.recv(4096)
            # Valid length prefix, garbage body: decodes must fail.
            self.request.sendall(protocol.pack_frame(b"K\xff\xff\xff\xff"))
        except OSError:
            pass


def test_corrupted_response_counts_error_not_crash():
    rogue = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RogueHandler)
    thread = threading.Thread(target=rogue.serve_forever, daemon=True)
    thread.start()
    client = RemoteEvalCache(
        "127.0.0.1:{}".format(rogue.server_address[1]), timeout=2.0)
    try:
        assert client.get_cycles(b"k") is None        # corrupt GET body
        assert client.tallies["errors"] == 1
        assert client.tallies["misses"] == 1
    finally:
        client.close()
        rogue.shutdown()
        rogue.server_close()
        thread.join(timeout=5.0)


def test_server_rejects_garbage_and_stays_up(server, client):
    """A malformed frame gets an ERR answer; the server keeps serving."""
    raw = socket.create_connection((server.host, server.port), timeout=5.0)
    try:
        raw.sendall(protocol.pack_frame(b"Z-unknown-op"))
        prefix = raw.recv(4)
        body = raw.recv(protocol.frame_length(prefix))
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_count_response(body)      # ERR raises
    finally:
        raw.close()
    client.put_cycles(b"after", 9)
    client.flush()
    assert client.get_cycles(b"after") == 9           # unaffected
    assert server.protocol_errors == 1


# -- the four-tier stack ----------------------------------------------------

def test_evalcache_promotes_remote_hits(remote_env):
    """A remote hit is served, tallied and promoted into the local dict."""
    writer = EvalCache(scope="2is|4/2")
    writer.put(("key", 1), 777)
    remote_cache().flush()

    reader = EvalCache(scope="2is|4/2")
    assert reader.get(("key", 1)) == 777
    assert reader.remote_hits == 1 and reader.hits == 1
    # Promoted: the repeat probe is a pure dict hit (no new remote get).
    gets_before = remote_cache().tallies["gets"]
    assert reader.get(("key", 1)) == 777
    assert remote_cache().tallies["gets"] == gets_before

    other_scope = EvalCache(scope="4is|8/4")
    assert other_scope.get(("key", 1)) is None        # isolation holds


def test_shared_tier_answers_before_remote(remote_env, monkeypatch):
    """Tier order: the shm table wins; its hit never dials the server."""
    from repro.core import pool as pool_module

    shared = SharedEvalCache(slots=256)
    try:
        cache = EvalCache(scope="s")
        key = ("k",)
        shared.insert(shared_key_bytes("s", key), 555)
        monkeypatch.setattr(pool_module, "_WORKER_SHARED", shared)
        gets_before = remote_cache().tallies["gets"]
        assert cache.get(key) == 555
        assert cache.shared_hits == 1 and cache.remote_hits == 0
        assert remote_cache().tallies["gets"] == gets_before
    finally:
        shared.close()


def test_worker_remote_hit_feeds_insert_log(remote_env, monkeypatch):
    """In a worker, a remote hit lands in the shm insert log (promotion
    into the shared table happens via the parent's fold), and a worker
    put never writes to the server directly."""
    from repro.core import parallel as parallel_module
    from repro.core import pool as pool_module

    writer = EvalCache(scope="s")
    writer.put(("warm",), 888)
    remote_cache().flush()

    log = []
    monkeypatch.setattr(pool_module, "_WORKER_LOG", log)
    monkeypatch.setattr(parallel_module, "_in_worker", True)
    worker_cache = EvalCache(scope="s")
    assert worker_cache.get(("warm",)) == 888
    assert log == [(shared_key_bytes("s", ("warm",)), 888)]

    pending_before = remote_cache().pending
    worker_cache.put(("computed",), 999)
    assert remote_cache().pending == pending_before   # parent's job
    assert log[-1] == (shared_key_bytes("s", ("computed",)), 999)


def test_disk_cache_remote_blob_promotion(remote_env, tmp_path,
                                          monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    monkeypatch.delenv(CACHE_MAX_BYTES_ENV, raising=False)
    payload = {"result": [1, 2, 3]}

    first = ExplorationCache(directory=str(tmp_path / "host_a"))
    first.store("deadbeef", payload)
    assert first.stats["remote_stores"] == 1

    # A different "host" (fresh directory) misses disk, hits remote,
    # and promotes the bundle onto its own disk.
    second = ExplorationCache(directory=str(tmp_path / "host_b"))
    assert second.load("deadbeef") == payload
    assert second.stats["remote_hits"] == 1
    assert (tmp_path / "host_b" / "deadbeef.pkl").exists()
    # Third load is a pure disk hit.
    assert second.load("deadbeef") == payload
    assert second.stats["hits"] == 1


def test_disk_cache_corrupt_remote_blob_is_miss(remote_env, tmp_path):
    client = remote_cache()
    client.put_blob(b"explored|badblob", b"this is not a pickle")
    cache = ExplorationCache(directory=str(tmp_path), enabled=True)
    assert cache.load("badblob") is None
    assert cache.stats["remote_hits"] == 0
    assert cache.stats["misses"] == 1


def test_disk_cache_lru_eviction(tmp_path, monkeypatch):
    monkeypatch.delenv(REMOTE_ENV, raising=False)
    reset_remote_cache()
    blob_size = len(pickle.dumps("x" * 100, pickle.HIGHEST_PROTOCOL))
    cache = ExplorationCache(directory=str(tmp_path), enabled=True,
                             max_bytes=2 * blob_size)
    cache.store("aa", "x" * 100)
    cache.store("bb", "x" * 100)
    assert sorted(p.name for p in tmp_path.glob("*.pkl")) \
        == ["aa.pkl", "bb.pkl"]
    # Refresh "aa" so "bb" is the LRU victim of the next store.
    import os
    import time
    old = time.time() - 1000
    os.utime(tmp_path / "bb.pkl", (old, old))
    assert cache.load("aa") == "x" * 100
    cache.store("cc", "x" * 100)
    names = sorted(p.name for p in tmp_path.glob("*.pkl"))
    assert names == ["aa.pkl", "cc.pkl"]
    assert cache.evictions == 1
    assert cache.load("bb") is None


def test_fresh_store_never_self_evicts(tmp_path, monkeypatch):
    monkeypatch.delenv(REMOTE_ENV, raising=False)
    reset_remote_cache()
    cache = ExplorationCache(directory=str(tmp_path), enabled=True,
                             max_bytes=8)
    cache.store("oversized", "y" * 1000)              # alone over budget
    assert (tmp_path / "oversized.pkl").exists()
    assert cache.load("oversized") == "y" * 1000


def test_pool_preloads_shared_table_from_remote(remote_env):
    """A new pool seeds its shm table from the server before forking."""
    from repro.core.pool import WorkerPool

    writer = EvalCache(scope="s")
    writer.put(("hot",), 321)
    remote_cache().flush()

    pool = WorkerPool(workers=1)
    try:
        assert pool.stats["remote_preload_rows"] >= 1
        assert pool.cache.lookup(shared_key_bytes("s", ("hot",))) == 321
    finally:
        pool.shutdown()


def test_singleton_lifecycle(monkeypatch):
    monkeypatch.delenv(REMOTE_ENV, raising=False)
    reset_remote_cache()
    assert remote_cache() is None
    monkeypatch.setenv(REMOTE_ENV, "not-an-address")
    assert remote_cache() is None                     # malformed: disabled
    monkeypatch.setenv(REMOTE_ENV, "127.0.0.1:1")
    first = remote_cache()
    assert first is not None and remote_cache() is first
    monkeypatch.setenv(REMOTE_ENV, "127.0.0.1:2")
    assert remote_cache() is not first                # address change
    reset_remote_cache()
