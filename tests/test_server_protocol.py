"""Tests for message framing, encryption, servlets, and transport."""

import importlib
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.applet import MemexApplet, replay_events
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import decode_message, encode_message, rc4_stream
from repro.server.servlets import BATCH_SERVLET, ServletRegistry
from repro.server.transport import HttpTunnelTransport
from repro.shard.gather import LocalBackend, ShardDispatcher
from repro.webgen import build_workload

from .rc4_reference import (
    _reference_decode_message,
    _reference_encode_message,
    _reference_rc4_stream,
)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


# -- rc4 -------------------------------------------------------------------

def test_rc4_is_an_involution():
    key = b"secret"
    data = b"the quick brown fox \x00\xff"
    assert rc4_stream(key, rc4_stream(key, data)) == data


def test_rc4_different_keys_differ():
    data = b"payload-bytes"
    assert rc4_stream(b"k1", data) != rc4_stream(b"k2", data)


def test_rc4_empty_key_rejected():
    with pytest.raises(ProtocolError):
        rc4_stream(b"", b"data")


@given(st.binary(max_size=200), st.binary(min_size=1, max_size=16))
def test_rc4_roundtrip_property(data, key):
    assert rc4_stream(key, rc4_stream(key, data)) == data


@pytest.mark.parametrize("key, plaintext, ciphertext", [
    # RFC 6229, 40-bit key: the first 16 keystream bytes.
    (bytes.fromhex("0102030405"), bytes(16), "b2396305f03dc027ccc3524a0a1118a8"),
    (b"Key", b"Plaintext", "bbf316e8d940af0ad3"),
    (b"Wiki", b"pedia", "1021bf0420"),
    (b"Secret", b"Attack at dawn", "45a01f645fc35b383552544b9bf5"),
])
def test_rc4_known_answers(key, plaintext, ciphertext):
    assert rc4_stream(key, plaintext).hex() == ciphertext
    assert _reference_rc4_stream(key, plaintext).hex() == ciphertext


def _bytes_of_length(n):
    return random.Random(n).randbytes(n)


#: ``protocol._KEYSTREAM_FIRST`` and ``protocol.KEYSTREAM_BYTES``, spelled
#: out so the differential tests also run against the per-byte cipher's
#: own module (the bounds test checks they still match).
_FIRST, _CAP = 1024, 64 * 1024
#: Frame lengths on both sides of every step the per-key prefix grows by
#: (first allocation, each doubling, the retained-bytes cap).
_GROWTH_EDGES = sorted({
    edge + delta
    for edge in (0, _FIRST, 2 * _FIRST, 4 * _FIRST, _CAP)
    for delta in (-1, 0, 1)
    if edge + delta >= 0
} | {_CAP + 300})


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=1, max_size=256),
    st.lists(
        st.one_of(st.integers(0, 5000), st.sampled_from(_GROWTH_EDGES)),
        min_size=1, max_size=8,
    ),
)
def test_rc4_equals_the_reference_for_any_sequence_of_lengths(key, lengths):
    """What a key has sent before (longer frames, shorter ones, empty
    ones, one past the cap) never shows in the next frame's bytes."""
    for n in lengths:
        data = _bytes_of_length(n)
        assert rc4_stream(key, data) == _reference_rc4_stream(key, data), n


def test_rc4_threads_sharing_keys_agree_with_the_reference():
    """Eight threads start three cold keys together (no other test uses
    them) and keep outgrowing each other's prefixes; a torn or shortened
    memo entry would show as a wrong byte."""
    keys = [b"shared-key-%d" % i for i in range(3)]
    lengths = [7, 1500, 300, 2049, 5000, 0, 9000, 1024, 64]
    frames = {n: _bytes_of_length(n) for n in lengths}
    expected = {
        (key, n): _reference_rc4_stream(key, frames[n])
        for key in keys for n in lengths
    }
    start = threading.Barrier(8)
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        start.wait(timeout=10)
        for _ in range(60):
            key, n = rng.choice(keys), rng.choice(lengths)
            if rc4_stream(key, frames[n]) != expected[key, n]:
                wrong.append((key, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_rc4_memo_is_bounded_by_its_module_constants():
    """One key more than the memo holds and one frame longer than it
    retains: the oldest key goes, the long frame's tail is not kept."""
    assert (protocol._KEYSTREAM_FIRST, protocol.KEYSTREAM_BYTES) == (_FIRST, _CAP)
    memo = protocol._keystreams
    first = b"bounded-key-0"
    over_cap = _bytes_of_length(protocol.KEYSTREAM_BYTES + 17)
    assert rc4_stream(first, over_cap) == _reference_rc4_stream(first, over_cap)
    for i in range(1, protocol.KEYSTREAM_KEYS + 1):
        rc4_stream(b"bounded-key-%d" % i, b"frame")
    assert len(memo) == protocol.KEYSTREAM_KEYS
    assert first not in memo   # least recently used
    assert all(len(e.prefix) <= protocol.KEYSTREAM_BYTES for e in memo.values())
    # Evicted is not broken: the key starts cold again, same bytes.
    assert rc4_stream(first, b"again") == _reference_rc4_stream(first, b"again")
    assert len(memo) == protocol.KEYSTREAM_KEYS
    assert len(memo[first].prefix) == protocol._KEYSTREAM_FIRST
    assert len(memo[first].state) == 256


# -- framing ------------------------------------------------------------------

def test_encode_decode_plaintext():
    msg = {"servlet": "visit", "url": "http://x/", "n": 3}
    assert decode_message(encode_message(msg)) == msg


def test_encode_decode_encrypted():
    key = b"user-key"
    msg = {"servlet": "visit", "private": True}
    wire = encode_message(msg, key=key)
    assert decode_message(wire, key=key) == msg
    # Ciphertext does not contain the plaintext.
    assert b"servlet" not in wire


def test_encrypted_without_key_fails():
    wire = encode_message({"a": 1}, key=b"k")
    with pytest.raises(ProtocolError):
        decode_message(wire)


def test_wrong_key_fails():
    wire = encode_message({"a": 1}, key=b"right")
    with pytest.raises(ProtocolError):
        decode_message(wire, key=b"wrong")


def test_truncated_and_garbage_messages():
    wire = encode_message({"a": 1})
    with pytest.raises(ProtocolError):
        decode_message(wire[:3])
    with pytest.raises(ProtocolError):
        decode_message(wire + b"extra")
    with pytest.raises(ProtocolError):
        decode_message(b"\xff\xff\xff\x7f\x00garbage")


def test_non_object_body_rejected():
    import json
    import struct
    body = json.dumps([1, 2, 3]).encode()
    wire = struct.pack("<I", len(body) + 1) + b"\x00" + body
    with pytest.raises(ProtocolError):
        decode_message(wire)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=20), st.booleans(), st.none()),
        max_size=8,
    )
)
def test_frame_roundtrip_property(payload):
    assert decode_message(encode_message(payload)) == payload
    assert decode_message(encode_message(payload, key=b"k"), key=b"k") == payload


# -- servlet registry ------------------------------------------------------------

def test_registry_dispatch():
    reg = ServletRegistry()
    reg.register("echo", lambda req: {"echoed": req.get("x")})
    out = reg.dispatch({"servlet": "echo", "x": 42})
    assert out == {"echoed": 42, "status": "ok"}
    assert reg.stats()["served"] == 1
    assert reg.stats()["by_servlet"] == {"echo": 1}


def test_registry_unknown_servlet():
    reg = ServletRegistry()
    out = reg.dispatch({"servlet": "nope"})
    assert out["status"] == "error"
    assert reg.stats()["failed"] == 1
    out2 = reg.dispatch({})
    assert out2["status"] == "error"


def test_registry_isolates_handler_exceptions():
    reg = ServletRegistry()

    def broken(req):
        raise RuntimeError("kaboom")

    reg.register("broken", broken)
    out = reg.dispatch({"servlet": "broken"})
    assert out["status"] == "error"
    assert "kaboom" in out["error"]
    assert "traceback" in out
    # The registry keeps serving afterwards.
    reg.register("fine", lambda r: {})
    assert reg.dispatch({"servlet": "fine"})["status"] == "ok"


def test_registry_duplicate_registration():
    from repro.errors import ServletError
    reg = ServletRegistry()
    reg.register("a", lambda r: {})
    with pytest.raises(ServletError):
        reg.register("a", lambda r: {})
    assert reg.names() == ["a"]


# -- servlet metrics --------------------------------------------------------------

def test_registry_records_request_and_latency_metrics():
    from repro.obs import ManualClock, MetricsRegistry

    clk = ManualClock()
    metrics = MetricsRegistry(clock=clk)
    reg = ServletRegistry(metrics=metrics)

    def slow(req):
        clk.advance(0.02)
        return {}

    reg.register("slow", slow)
    for _ in range(3):
        reg.dispatch({"servlet": "slow"})
    assert metrics.counter_value("server.servlets.requests", servlet="slow") == 3
    assert metrics.counter_value("server.servlets.errors", servlet="slow") == 0
    h = metrics.histogram("server.servlets.latency", servlet="slow")
    assert h.count == 3
    assert h.summary()["max"] == pytest.approx(0.02)
    assert reg.latency_summary()["slow"]["count"] == 3


def test_registry_records_error_metrics():
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    reg = ServletRegistry(metrics=metrics)

    def broken(req):
        raise RuntimeError("kaboom")

    reg.register("broken", broken)
    reg.dispatch({"servlet": "broken"})
    reg.dispatch({"servlet": "no-such-servlet"})
    val = metrics.counter_value
    assert val("server.servlets.requests", servlet="broken") == 1
    assert val("server.servlets.errors", servlet="broken") == 1
    assert val("server.servlets.errors", servlet="<unknown>") == 1
    # Failed requests still contribute a latency sample.
    assert metrics.histogram(
        "server.servlets.latency", servlet="broken").count == 1


def test_registry_traces_dispatch():
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    reg = ServletRegistry(metrics=MetricsRegistry(), tracer=tracer)
    reg.register("echo", lambda req: {"x": 1})
    reg.dispatch({"servlet": "echo"})
    spans = tracer.finished("servlet.echo")
    assert len(spans) == 1
    assert spans[0].error is None


def test_stats_servlet_exposes_observability(live_system):
    server = live_system.server
    user_id = next(server.repo.db.table("users").scan())["user_id"]
    out = server.registry.dispatch({
        "servlet": "stats", "user_id": user_id, "include_metrics": True,
    })
    assert out["status"] == "ok"
    # Live counters from the replay, not zeros.
    snap = out["metrics"]
    assert snap["counters"].get("storage.relational.commits", 0) > 0
    assert snap["counters"].get("storage.kvstore.puts", 0) > 0
    assert any(k.startswith("server.servlets.requests") for k in snap["counters"])
    # Per-servlet latency percentiles for the servlets the replay hit.
    # Replay ships visits inside batch frames, so latency samples are
    # amortized under the batch pseudo-servlet; per-item counts remain.
    assert out["latency"]["batch"]["count"] >= 1
    assert out["latency"]["batch"]["p95"] >= 0.0
    assert out["servlets"]["by_servlet"].get("visit", 0) >= 1
    assert out["servlets"]["batches"] >= 1
    # The headline gauge: per-consumer versioning lag.
    assert set(out["versioning_lag"]) == set(out["versions"])
    assert all(lag >= 0 for lag in out["versioning_lag"].values())


# -- transport ----------------------------------------------------------------------

@pytest.fixture
def transport():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req["user_id"]})
    return HttpTunnelTransport(reg)


def test_transport_roundtrip(transport):
    out = transport.request("alice", {"servlet": "whoami"})
    assert out["you"] == "alice"
    assert transport.bytes_in > 0 and transport.bytes_out > 0


def test_transport_encrypted_user(transport):
    transport.set_key("bob", b"bobs-key")
    out = transport.request("bob", {"servlet": "whoami"})
    assert out["you"] == "bob"
    assert transport.key_for("bob") == b"bobs-key"
    transport.set_key("bob", None)
    assert transport.key_for("bob") is None


def test_transport_error_response(transport):
    out = transport.request("alice", {"servlet": "missing"})
    assert out["status"] == "error"
    assert out["error_code"] == "unknown_servlet"
    assert out["retryable"] is False


def test_tunnel_refuses_cleartext_from_a_keyed_user():
    """The key is the credential: without it nobody speaks for bob."""
    served = []
    reg = ServletRegistry()
    reg.register("whoami", lambda req: served.append(req) or {"you": req["user_id"]})
    transport = HttpTunnelTransport(reg)
    transport.set_key("bob", b"bobs-key")
    forged = encode_message({"servlet": "whoami", "user_id": "bob"})
    response = decode_message(transport._serve(forged, "bob"), key=b"bobs-key")
    assert response["status"] == "error"
    assert response["error_code"] == "bad_request"
    assert served == []
    # Bob himself, and keyless users, are served as before.
    assert transport.request("bob", {"servlet": "whoami"})["you"] == "bob"
    assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
    assert len(served) == 2


def test_decode_refuses_cleartext_when_a_key_is_supplied():
    with pytest.raises(ProtocolError) as exc_info:
        decode_message(encode_message({"a": 1}), key=b"k")
    assert exc_info.value.code == "bad_request"


def test_tunnel_rejects_an_empty_key(transport):
    with pytest.raises(ValueError):
        transport.set_key("bob", b"")
    assert transport.key_for("bob") is None
    assert transport.request("bob", {"servlet": "whoami"})["you"] == "bob"


# -- the wire is what it was -------------------------------------------------------

def test_mixed_stream_frames_equal_the_reference(monkeypatch):
    """Every request and response of the benchmark's seed-7 ``mixed``
    stream, replayed in process on two shards: the frame the keyed
    encoder writes is the frame the per-byte cipher wrote, and it decodes
    back to the payload."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    mixed = workloads.Mixed()
    archive = build_workload(seed=workloads.ARCHIVE_SEED, **mixed.sizes(False))
    mixed.plan(archive, 7, 15.0)
    keys = {user: bytes.fromhex(key) for user, key in mixed.keys.items()}

    fetch = corpus_fetcher(archive.corpus)
    servers = [MemexServer(fetch) for _ in range(mixed.shards)]
    dispatcher = ShardDispatcher([LocalBackend(s.registry) for s in servers])
    try:
        tunnel = HttpTunnelTransport(servers[0].registry, dispatcher=dispatcher)
        surfers = [p.user_id for p in archive.profiles]
        for user in dict.fromkeys(surfers + mixed.schedule_users):
            response = tunnel.request(user, {
                "servlet": "register_user", "community": archive.name,
                "archive_mode": "community",
            })
            assert response["status"] == "ok", response
        replay_events(
            archive.events, lambda user: MemexApplet(tunnel, user),
            batch_size=32)
        for server in servers:
            server.process_background_work()

        frames = encrypted_bytes = 0
        for req in mixed.requests:
            if isinstance(req.payload, list):
                request = {"servlet": BATCH_SERVLET, "user_id": req.user,
                           "requests": req.payload}
            else:
                request = {**req.payload, "user_id": req.user}
            response = dispatcher.dispatch(request)
            assert response["status"] == "ok", response
            key = keys[req.user]
            for payload in (request, response):
                frame = encode_message(payload, key=key)
                assert frame == _reference_encode_message(payload, key)
                assert decode_message(frame, key=key) \
                    == _reference_decode_message(frame, key)
                frames += 1
                encrypted_bytes += len(frame) - 5
    finally:
        dispatcher.close()
        for server in servers:
            server.close()
    assert frames == 2 * len(mixed.requests) == 1500
    assert encrypted_bytes > 500_000


# -- protocol versioning ----------------------------------------------------------

def test_v1_frames_still_decode():
    """Back-compat: frames produced by the v1 encoder (flags byte carries
    only the cipher bit) decode unchanged by the current decoder."""
    import json
    import struct

    from repro.server.protocol import rc4_stream as _rc4

    payload = {"servlet": "visit", "url": "http://x/"}
    body = json.dumps(payload, separators=(",", ":")).encode()
    v1_plain = struct.pack("<I", len(body) + 1) + b"\x00" + body
    assert decode_message(v1_plain) == payload
    key = b"user-key"
    cipher = _rc4(key, body)
    v1_enc = struct.pack("<I", len(cipher) + 1) + b"\x01" + cipher
    assert decode_message(v1_enc, key=key) == payload


def test_current_frames_stamp_version():
    from repro.server.protocol import PROTOCOL_VERSION, frame_version

    wire = encode_message({"a": 1})
    assert frame_version(wire[4]) == PROTOCOL_VERSION
    wire_enc = encode_message({"a": 1}, key=b"k")
    assert frame_version(wire_enc[4]) == PROTOCOL_VERSION
    assert wire_enc[4] & 1


def test_future_version_rejected_with_typed_error():
    import struct

    wire = bytearray(encode_message({"a": 1}))
    wire[4] = 99 << 1   # stamp an unknown future version
    with pytest.raises(ProtocolError) as exc_info:
        decode_message(bytes(wire))
    assert exc_info.value.code == "unsupported_version"
    assert struct.unpack_from("<I", wire)[0] == len(wire) - 4


# -- protocol fuzz: malformed frames never kill the dispatch loop -----------------

def _registry_transport():
    reg = ServletRegistry()
    reg.register("echo", lambda req: {"x": req.get("x")})
    return HttpTunnelTransport(reg)


def test_fuzz_truncated_frames_every_cut():
    wire = encode_message({"servlet": "echo", "x": 1})
    for cut in range(len(wire)):
        with pytest.raises(ProtocolError):
            decode_message(wire[:cut])


def test_fuzz_flipped_flag_bits():
    """Every single-bit corruption of the flags byte either still decodes
    or raises a typed ProtocolError — never any other exception."""
    wire = bytearray(encode_message({"servlet": "echo", "x": 1}))
    for bit in range(8):
        mutated = bytearray(wire)
        mutated[4] ^= 1 << bit
        try:
            decode_message(bytes(mutated))
        except ProtocolError as exc:
            assert exc.code in ("bad_request", "unsupported_version")


def test_fuzz_declared_length_mismatches():
    wire = bytearray(encode_message({"a": 1}))
    for delta in (-3, -1, 1, 7, 1 << 20):
        mutated = bytearray(wire)
        declared = int.from_bytes(wire[:4], "little") + delta
        mutated[:4] = declared.to_bytes(4, "little")
        with pytest.raises(ProtocolError):
            decode_message(bytes(mutated))


def test_fuzz_encrypted_frame_without_key_is_typed():
    wire = encode_message({"a": 1}, key=b"k")
    with pytest.raises(ProtocolError) as exc_info:
        decode_message(wire)
    assert exc_info.value.code == "bad_request"


def test_fuzz_garbage_survives_dispatch_loop():
    """A hostile client cannot take the serve loop down: every malformed
    frame yields a typed error response and the next good request works."""
    transport = _registry_transport()
    good = encode_message({"servlet": "echo", "x": 1, "user_id": "u"})
    frames = [
        b"",
        b"\x00",
        good[:7],
        good + b"trailing",
        b"\xff\xff\xff\x7f\x00garbage",
        bytes([good[0], good[1], good[2], good[3], 99 << 1]) + good[5:],
        encode_message({"servlet": "echo"}, key=b"secret"),  # key not on file
    ]
    for frame in frames:
        response = decode_message(transport._serve(frame, "u"))
        assert response["status"] == "error"
        assert response["error_code"] in ("bad_request", "unsupported_version")
        assert isinstance(response["retryable"], bool)
    assert transport.request("u", {"servlet": "echo", "x": 5})["x"] == 5


def test_fuzz_batch_envelopes_with_hostile_items():
    transport = _registry_transport()
    out = transport.request_batch("u", [
        {"servlet": "echo", "x": 1},
        {"servlet": 42},
        {"no_servlet_at_all": True},
        {"servlet": "batch", "requests": []},   # nesting refused
        {"servlet": "echo", "x": 2},
    ])
    assert [r["status"] for r in out] == ["ok", "error", "error", "error", "ok"]
    assert all("error_code" in r for r in out if r["status"] == "error")
    # Loop is alive.
    assert transport.request("u", {"servlet": "echo", "x": 9})["x"] == 9
