"""The packed wire format: exact, and closed against hostile bytes.

Three groups.  *Fails closed*: one seeded table of raw byte strings, each
played on a ``socketpair`` (``recv_frame`` raises ``ValueError`` or
``ConnectionError``, nothing else) and against a live ``ShardServer``
(answered ``ok: false`` or that one connection dropped, the index
untouched).  *Exactness*: every packed kind round-trips bit for bit, and
an answer read over the socket equals the router's own.  *Regressions*:
the three serving bugs fixed with the format (non-finite coordinates
acknowledged, an oversized answer killing the connection, dead
connection threads kept until ``stop()``).

Every socket here has a timeout, so a hang is a failure, not a stall.
"""

import json
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rtree.geometry import Rect
from repro.rtree.zorder import shards_for_window
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.serving import protocol
from repro.serving.protocol import (
    MAX_FRAME,
    encode_frame,
    recv_frame,
    results_from_wire,
    results_to_wire,
    send_frame,
)

TIMEOUT = 10.0
INT64_MAX = 2**63 - 1
FULL = Rect(0.0, 0.0, 1.0, 1.0)


def _square(x, y, half=0.01):
    return Rect(x - half, y - half, x + half, y + half)


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _seeded_objects(n, seed):
    rng = random.Random(seed)
    return {
        oid: _square(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        for oid in range(n)
    }


def _brute_force(objects, window):
    return sorted(
        (oid, rect) for oid, rect in objects.items()
        if rect.intersects(window)
    )


# ---------------------------------------------------------------------------
# The hostile table
# ---------------------------------------------------------------------------

PACKED = {
    "insert": {"op": "insert", "oid": 7, "rect": [0.1, 0.2, 0.3, 0.4]},
    "update": {"op": "update", "oid": -7, "rect": [0.1, 0.2, 0.3, 0.4]},
    "query": {"op": "query", "window": [0.1, 0.2, 0.3, 0.4]},
    "ack": {"ok": True, "result": {"shard": 3, "migrated": True}},
    "rows": {
        "ok": True,
        "result": [[1, 2, 3], [float(i) for i in range(12)]],
    },
}
FIXED_BODY = {"insert": 40, "update": 40, "query": 32, "ack": 5}


def _rows_payload(claimed: int, held: int) -> bytes:
    """A rows payload whose count field says ``claimed`` over ``held`` rows."""
    return b"R" + struct.pack("<I", claimed) + bytes(40 * held)


def _malformed_frames():
    """``(name, bytes)``: every one must make ``recv_frame`` raise."""
    rng = random.Random(18)
    cases = []
    for kind, message in PACKED.items():
        frame = encode_frame(message)
        for cut in range(1, len(frame)):
            cases.append((f"{kind} cut at {cut}", frame[:cut]))
    cases.append(("length 0", struct.pack(">I", 0)))
    cases.append(("length over MAX_FRAME", struct.pack(">I", MAX_FRAME + 1)))
    for tag in b"IUQARJ":
        cases.append((f"length 1, tag {chr(tag)}", _framed(bytes([tag]))))
    known = set(b"IUQARJ")
    unknown = [t for t in range(256) if t not in known]
    for tag in [0, 255, ord("{"), ord("[")] + rng.sample(unknown, 12):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        cases.append((f"unknown tag {tag:#04x}", _framed(bytes([tag]) + body)))
    for kind, size in FIXED_BODY.items():
        tag = encode_frame(PACKED[kind])[4:5]
        for wrong in (size - 1, size + 1, 0, size + 8):
            cases.append(
                (f"{kind} body of {wrong}", _framed(tag + bytes(wrong)))
            )
    for claimed, held in [(4, 3), (2, 3), (0, 1), (1, 0), (2**32 - 1, 0),
                          (2**32 - 1, 3), (26_215, 3)]:
        cases.append(
            (f"rows: n={claimed} over {held}",
             _framed(_rows_payload(claimed, held)))
        )
    cases.append(("rows: no count field", _framed(b"R\x01\x00")))
    for name, text in [
        ("JSON array", b"[1,2,3]"),
        ("JSON scalar", b"17"),
        ("JSON empty", b""),
        ("JSON cut", b'{"op":"pi'),
        ("not UTF-8", b'{"op":"\xff\xfe"}'),
        ("deep nesting", b"[" * 20_000),
        ("query under J", json.dumps(PACKED["query"]).encode()),
        ("update under J", json.dumps(PACKED["update"]).encode()),
        ("insert under J", json.dumps(PACKED["insert"]).encode()),
        ("ack under J", json.dumps(PACKED["ack"]).encode()),
        ("rows under J", json.dumps(PACKED["rows"]).encode()),
        ("NaN rect under J",
         b'{"op":"update","oid":999,"rect":[NaN,NaN,NaN,NaN]}'),
    ]:
        cases.append((name, _framed(b"J" + text)))
    # The parent's frames (no tag byte) are garbage now, not a dialect.
    cases.append(("untagged JSON", _framed(b'{"op":"count"}')))
    # Random tag, random body of any length but a fixed kind's own: under
    # this seed none of them happens to be a well-formed frame.
    lengths = [n for n in range(96) if n not in FIXED_BODY.values()]
    for i in range(80):
        body = bytes(rng.randrange(256) for _ in range(rng.choice(lengths)))
        cases.append(
            (f"garbage #{i}", _framed(bytes([rng.randrange(256)]) + body))
        )
    for i, tag in enumerate(b"IUQARJ" * 4):
        body = bytes(rng.randrange(256) for _ in range(rng.choice(lengths)))
        cases.append((f"garbage {chr(tag)} #{i}", _framed(bytes([tag]) + body)))
    return cases


def _rejected_frames():
    """``(name, bytes)``: well-formed frames the *server* must refuse."""
    nan, inf = float("nan"), float("inf")
    cases = []
    for name, rect in [
        ("inverted x", [0.5, 0.5, 0.4, 0.6]),
        ("inverted y", [0.5, 0.5, 0.6, 0.4]),
        ("NaN rect", [nan, nan, nan, nan]),
        ("one NaN", [0.5, 0.5, nan, 0.6]),
        ("inf extent", [0.5, 0.5, inf, inf]),
        ("-inf corner", [-inf, 0.5, 0.6, 0.6]),
    ]:
        for op in ("insert", "update"):
            cases.append((
                f"{op}: {name}",
                encode_frame({"op": op, "oid": 999, "rect": rect}),
            ))
        cases.append(
            (f"query: {name}", encode_frame({"op": "query", "window": rect}))
        )
    for x, y in [(nan, 0.5), (0.5, inf), (-inf, nan)]:
        cases.append((
            f"knn at ({x}, {y})",
            encode_frame({"op": "knn", "x": x, "y": y, "k": 3}),
        ))
    cases.append(("ack as a request", encode_frame(PACKED["ack"])))
    cases.append(("rows as a request", encode_frame(PACKED["rows"])))
    cases.append(("unknown op", encode_frame({"op": "drop-all"})))
    cases.append(("unhashable op", encode_frame({"op": [1, 2]})))
    cases.append(("delete without oid", encode_frame({"op": "delete"})))
    cases.append(
        ("knn without k", encode_frame({"op": "knn", "x": 0.5, "y": 0.5}))
    )
    return cases


MALFORMED = _malformed_frames()
REJECTED = _rejected_frames()


def _play_on_socketpair(data: bytes):
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    try:
        a.sendall(data)
        a.close()
        return recv_frame(b)
    finally:
        a.close()
        b.close()


def _play_on_server(address, data: bytes):
    """Send ``data`` on a throw-away connection and half-close; returns
    the frames answered before the server's EOF (or its drop)."""
    answers = []
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while True:
            try:
                frame = recv_frame(sock)
            except ConnectionError:
                break  # dropped, unread bytes pending: a reset, not a hang
            if frame is None:
                break
            answers.append(frame)
    return answers


class TestFailsClosed:
    def test_malformed_frames_raise_only_the_two_documented_errors(
        self, monkeypatch
    ):
        layouts = []  # row counts a layout was compiled for
        rows_struct = protocol._rows_struct
        monkeypatch.setattr(
            protocol, "_rows_struct",
            lambda n: layouts.append(n) or rows_struct(n),
        )
        for name, data in MALFORMED:
            try:
                got = _play_on_socketpair(data)
            except (ValueError, ConnectionError):
                continue
            # Anything else (struct.error, IndexError, MemoryError,
            # RecursionError ...) propagates and fails the test by itself.
            pytest.fail(f"{name}: recv_frame returned {got!r}")
        assert layouts == []  # a lying count is refused unallocated

    def test_rejected_frames_decode(self):
        # The table's second half is hostile in *content*, not in form.
        for name, data in REJECTED:
            assert isinstance(_play_on_socketpair(data), dict), name

    def test_live_server_survives_the_whole_table(self):
        objects = _seeded_objects(150, seed=18)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        pad = router._query_pad()
        stamp = router.stamps.current
        with ShardServer(router) as server:
            address = server.address
            for name, data in MALFORMED:
                for answer in _play_on_server(address, data):
                    assert answer.get("ok") is False, (name, answer)
            for name, data in REJECTED:
                answers = _play_on_server(address, data)
                assert len(answers) == 1, name
                assert answers[0].get("ok") is False, (name, answers)
            # A refused frame must have touched nothing.
            assert router._query_pad() == pad
            assert router.stamps.current == stamp
            with ServingClient(*address, timeout=TIMEOUT) as client:
                assert client.count() == len(objects)
                assert client.query(FULL) == _brute_force(objects, FULL)
                window = Rect(0.2, 0.2, 0.45, 0.4)
                assert client.query(window) == _brute_force(objects, window)

    @pytest.mark.parametrize(
        "oid", [INT64_MAX + 1, -INT64_MAX - 2, 2**64 + 5, 7.0, "7", None]
    )
    def test_oid_outside_int64_is_refused_at_send(self, oid):
        rect = [0.1, 0.2, 0.3, 0.4]
        for message in (
            {"op": "update", "oid": oid, "rect": rect},
            {"op": "insert", "oid": oid, "rect": rect},
            {"ok": True, "result": [[oid], rect]},
        ):
            with pytest.raises(ValueError):
                encode_frame(message)

    @pytest.mark.parametrize("message", [
        {"op": "update", "oid": 1},
        {"op": "update", "oid": 1, "rect": [0.1, 0.2, 0.3]},
        {"op": "update", "oid": 1, "rect": [0.1, 0.2, 0.3, 0.4, 0.5]},
        {"op": "update", "oid": 1, "rect": ["a", "b", "c", "d"]},
        {"op": "query"},
        {"op": "query", "window": 5},
        {"ok": True, "result": {"shard": -1, "migrated": False}},
        {"ok": True, "result": {"shard": 2**32, "migrated": False}},
        {"ok": True, "result": [[1, 2], [0.0] * 4]},
        {"op": "stats", "blob": object()},
    ])
    def test_unpackable_message_is_a_value_error(self, message):
        with pytest.raises(ValueError):
            encode_frame(message)


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------

# Every f64 but NaN (which no ``==`` round trip can see): signed zeros,
# subnormals, the infinities and the largest finite values included.
floats = st.floats(allow_nan=False)
oids = st.integers(-INT64_MAX - 1, INT64_MAX)
quads = st.lists(floats, min_size=4, max_size=4)


def _round_trip(message):
    """``send_frame`` -> ``recv_frame`` over a socketpair; the sender gets
    its own thread so an answer larger than the socket buffer fits."""
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    sender = threading.Thread(target=send_frame, args=(a, message))
    try:
        sender.start()
        return recv_frame(b)
    finally:
        sender.join(TIMEOUT)
        a.close()
        b.close()


def _assert_exact(message):
    got = _round_trip(message)
    assert got == message
    # ``==`` cannot tell -0.0 from 0.0 or True from 1; the repr can.
    assert repr(got) == repr(message)


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(op=st.sampled_from(["insert", "update"]), oid=oids, rect=quads)
    @example(op="update", oid=INT64_MAX, rect=[-0.0, 5e-324, 1e308, -1e308])
    @example(op="insert", oid=-INT64_MAX, rect=[0.0, -0.0, 2.2e-308, 1e308])
    def test_move_requests(self, op, oid, rect):
        _assert_exact({"op": op, "oid": oid, "rect": rect})

    @settings(max_examples=40, deadline=None)
    @given(window=quads)
    @example(window=[-0.0, 5e-324, 1e308, -1e308])
    def test_query_requests(self, window):
        _assert_exact({"op": "query", "window": window})

    @settings(max_examples=20, deadline=None)
    @given(shard=st.integers(0, 2**32 - 1), migrated=st.booleans())
    def test_acks(self, shard, migrated):
        _assert_exact(
            {"ok": True, "result": {"shard": shard, "migrated": migrated}}
        )

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(oids, quads), max_size=40))
    def test_rows(self, rows):
        flat = [c for _oid, quad in rows for c in quad]
        _assert_exact({"ok": True, "result": [[o for o, _ in rows], flat]})

    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_rows_at_fixed_sizes(self, n):
        rng = random.Random(n)
        edge = [-0.0, 5e-324, 1e308, -1e308]
        id_column = [rng.choice((-1, 1)) * (INT64_MAX - i) for i in range(n)]
        flat = [rng.choice(edge + [rng.random()]) for _ in range(4 * n)]
        message = {"ok": True, "result": [id_column, flat]}
        assert len(encode_frame(message)) == 9 + 40 * n
        _assert_exact(message)

    def test_frame_sizes(self):
        sizes = {kind: len(encode_frame(m)) for kind, m in PACKED.items()}
        assert sizes == {
            "insert": 45, "update": 45, "query": 37, "ack": 10,
            "rows": 9 + 40 * 3,
        }

    def test_a_frame_holds_26214_rows(self):
        def answer(n):
            return {"ok": True, "result": [[0] * n, [0.0] * (4 * n)]}

        assert (MAX_FRAME - 5) // protocol.ROW_BYTES == 26_214
        assert len(encode_frame(answer(26_214))) <= 4 + MAX_FRAME
        with pytest.raises(ValueError, match="26215 rows exceed MAX_FRAME"):
            encode_frame(answer(26_215))

    def test_columns_invert(self):
        rows = sorted(_seeded_objects(40, seed=3).items())
        assert results_from_wire(results_to_wire(rows)) == rows
        assert results_to_wire([]) == [[], []]
        with pytest.raises(ValueError):
            results_from_wire([[1, 2], [0.0] * 4])
        with pytest.raises(ValueError):  # Rect still validates each row
            results_from_wire([[1], [0.5, 0.5, 0.4, 0.6]])

    def test_socket_answers_equal_the_routers(self):
        rng = random.Random(47)
        objects = _seeded_objects(500, seed=47)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        for oid in rng.sample(sorted(objects), 300):  # most cross a cell
            objects[oid] = _square(
                rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
            )
            router.upsert(oid, objects[oid])
        assert router.stats()["tallies"]["migrations"] > 50
        with ShardServer(router) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                windows = [FULL] + [
                    _square(rng.random(), rng.random(), rng.uniform(0.01, 0.3))
                    for _ in range(25)
                ]
                for window in windows:
                    served = client.query(window)
                    assert served == router.query(window)
                    assert served == _brute_force(objects, window)
                for k in (1, 7, 60):
                    x, y = rng.random(), rng.random()
                    served = client.nearest_neighbors(x, y, k)
                    assert served == router.nearest_neighbors(x, y, k)
                    assert len(served) == k

    def test_single_shard_and_fan_out_agree_with_brute_force(self):
        objects = _seeded_objects(300, seed=5)
        with ShardRouter(4) as router:
            for oid, rect in objects.items():
                router.upsert(oid, rect)
            # Object 0, caught mid-migration: step 1 (insert on the new
            # shard) has run, step 2 (memo delete on the old) has not.
            objects[0] = _square(0.2, 0.2)
            router.upsert(0, objects[0])
            objects[0] = _square(0.8, 0.8)
            new_home = router.shards[router.shard_for_rect(objects[0])]
            new_home.tree.insert_object(0, objects[0])
            on_both = [
                shard.index for shard in router.shards
                if any(oid == 0 for oid, _ in shard.tree.search(FULL))
            ]
            assert len(on_both) == 2

            def fan_out(window):
                pad = router._query_pad()
                grown = Rect(window.xmin - pad, window.ymin - pad,
                             window.xmax + pad, window.ymax + pad)
                return len(shards_for_window(grown, router._bits))

            single = Rect(0.7, 0.7, 0.9, 0.9)
            spanning = Rect(0.1, 0.1, 0.9, 0.9)
            assert fan_out(single) == 1 and fan_out(spanning) == 4
            for window in (single, spanning, FULL):
                got = router.query(window)
                assert got == _brute_force(objects, window)
                assert (0, objects[0]) in got  # once, at the newer rect


# ---------------------------------------------------------------------------
# Regressions: each of these fails on the JSON-framed parent
# ---------------------------------------------------------------------------


class TestServingBugs:
    def test_non_finite_coordinates_are_refused(self):
        """The parent acknowledged a NaN rect (``count`` 202, full-square
        query 201) and one inf extent made every later query fan out."""
        nan, inf = float("nan"), float("inf")
        objects = _seeded_objects(200, seed=11)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        pad = router._query_pad()
        with ShardServer(router) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                for message in (
                    {"op": "update", "oid": 999, "rect": [nan] * 4},
                    {"op": "insert", "oid": 998, "rect": [0.5, 0.5, inf, inf]},
                    {"op": "update", "oid": 3, "rect": [-inf, 0.1, 0.2, 0.2]},
                    {"op": "query", "window": [0.0, 0.0, nan, 1.0]},
                    {"op": "query", "window": [-inf, -inf, inf, inf]},
                    {"op": "knn", "x": nan, "y": 0.5, "k": 3},
                    {"op": "knn", "x": 0.5, "y": -inf, "k": 3},
                ):
                    with pytest.raises(RuntimeError, match="non-finite"):
                        client.request(message)
                assert client.count() == len(client.query(FULL)) == 200
                assert client.query(FULL) == _brute_force(objects, FULL)
        assert router._query_pad() == pad

    def test_oversized_answer_is_an_error_on_a_live_connection(
        self, monkeypatch
    ):
        """The parent's ``send_frame`` raised inside the connection loop:
        the client saw ``ConnectionError`` and so did its next ``ping``."""
        monkeypatch.setattr(protocol, "MAX_FRAME", 2048)  # 51 rows a frame
        objects = _seeded_objects(120, seed=13)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        with ShardServer(router) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                with pytest.raises(
                    RuntimeError, match="120 rows exceed MAX_FRAME"
                ):
                    client.query(FULL)
                assert client.ping()
                window = Rect(0.4, 0.4, 0.6, 0.6)
                assert client.query(window) == _brute_force(objects, window)

    def test_finished_connection_threads_are_reaped(self):
        """50 connect / ping / close cycles left 51 ``Thread`` objects."""
        router = ShardRouter(1)
        with ShardServer(router) as server:
            address = server.address
            with ServingClient(*address, timeout=TIMEOUT) as keeper:
                for _ in range(50):
                    with ServingClient(*address, timeout=TIMEOUT) as client:
                        assert client.ping()
                deadline = time.monotonic() + TIMEOUT
                while (
                    len(server._conns) > 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)  # the accept loop reaps every 0.2 s
                assert len(server._conns) == 1  # the keeper's
                assert keeper.ping()

    def test_stop_joins_idle_and_mid_request_clients(self):
        router = ShardRouter(1)
        server = ShardServer(router)
        address = server.start()
        idle = ServingClient(*address, timeout=TIMEOUT)
        assert idle.ping()
        mid = socket.create_connection(address, timeout=TIMEOUT)
        mid.sendall(encode_frame(PACKED["update"])[:20])  # half a frame
        deadline = time.monotonic() + TIMEOUT
        while len(server._conns) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        threads = list(server._conns)
        assert len(threads) == 2
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stopper.join(TIMEOUT)
        try:
            assert not stopper.is_alive()
            assert not any(thread.is_alive() for thread in threads)
            assert not server._conns
        finally:
            idle.close()
            mid.close()
