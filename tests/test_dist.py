"""The service wire format and the local disk cache's byte bound.

The contracts under test:

* the wire format round-trips every request and response kind and
  rejects truncation, trailing bytes, unknown tags, non-object JSON
  bodies and oversized frames as :class:`ProtocolError`;
* the disk cache evicts least-recently-used bundles down to its byte
  budget, but never the bundle it has just written.
"""

import pickle

import pytest

from repro.dist import protocol
from repro.eval.persistence import ExplorationCache


# -- protocol ---------------------------------------------------------------

def test_request_roundtrips():
    for request_id, body in ((0, {}), (7, {"op": "status"}),
                             (2**64 - 1, {"op": "explore", "seed": 3})):
        payload = protocol.encode_serve_request(request_id, body)
        assert payload[:1] == protocol.OP_SERVE
        assert protocol.decode_serve_request(payload) == (request_id, body)


def test_response_roundtrips():
    body = {"digest": "abc", "cycles": [1, 2]}
    cases = [
        (protocol.encode_serve_ok(5, body), ("ok", 5, body)),
        (protocol.encode_serve_event(6, {"kind": "round"}),
         ("event", 6, {"kind": "round"})),
        (protocol.encode_serve_err(8, "boom", code="timeout"),
         ("err", 8, {"error": "boom", "code": "timeout"})),
    ]
    for payload, want in cases:
        assert protocol.decode_serve_response(payload) == want
    framed = protocol.pack_frame(protocol.encode_serve_ok(5, body))
    length = protocol.frame_length(framed[:4])
    assert length == len(framed) - 4
    assert protocol.decode_serve_response(framed[4:]) == ("ok", 5, body)


def test_protocol_rejects_malformed_frames():
    request = protocol.encode_serve_request(1, {"op": "status"})
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(b"")                 # empty
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(b"Z" + request[1:])  # unknown op
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(request[:-3])        # truncated
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(request + b"extra")  # trailing
    with pytest.raises(protocol.ProtocolError):            # not an object
        protocol.decode_serve_request(
            protocol.OP_SERVE + request[1:9]
            + protocol.pack_frame(b"[1, 2]"))
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_response(b"Z" + request[1:])  # bad status
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_serve_ok(1, {"bad": object()})     # not JSON-able
    with pytest.raises(protocol.ProtocolError):
        protocol.frame_length(b"\xff\xff\xff\xff")         # > MAX_FRAME
    with pytest.raises(protocol.ProtocolError):
        protocol.frame_length(b"\x00\x01")                 # short prefix


# -- the disk cache's byte bound ----------------------------------------------

def test_disk_cache_lru_eviction(tmp_path):
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


def test_fresh_store_never_self_evicts(tmp_path):
    cache = ExplorationCache(directory=str(tmp_path), enabled=True,
                             max_bytes=8)
    cache.store("oversized", "y" * 1000)              # alone over budget
    assert (tmp_path / "oversized.pkl").exists()
    assert cache.load("oversized") == "y" * 1000
