"""The packed wire format: exact, and closed against hostile bytes.

Four groups.  *Fails closed*: one seeded table of raw byte strings, each
played on a ``socketpair`` (``recv_frame`` and ``FrameReader.read`` raise
``ValueError`` or ``ConnectionError``, nothing else) and against a live
``ShardServer`` (answered ``ok: false`` or that one connection dropped,
the index untouched).  *The reader*: one ``recv`` a frame, over-read bytes
kept, a frame split anywhere still read, EOF told apart at and inside a
frame.  *Exactness*: every packed kind round-trips bit for bit, and an
answer read over the socket equals the router's own.  *Regressions*: the
serving bugs fixed with the format and with the reader (non-finite
coordinates acknowledged, an oversized answer killing the connection,
dead connection threads kept until ``stop()``, a timed-out client
answering the next request with the previous reply, ``int()`` coercing an
oid).

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
    READ_AHEAD,
    FrameReader,
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
    "update": {"op": "update", "oid": -7, "rect": [0.1, 0.2, 0.3, 0.4]},
    "query": {"op": "query", "window": [0.1, 0.2, 0.3, 0.4]},
    "ack": {"ok": True, "result": {"shard": 3, "migrated": True}},
    "rows": {
        "ok": True,
        "result": [
            (oid, *(float(4 * row + i) for i in range(4)))
            for row, oid in enumerate((1, 2, 3))
        ],
    },
}
FIXED_BODY = {"update": 40, "query": 32, "ack": 5}
#: Every tag the protocol knows: the packed kinds' own, then ``J``.
TAGS = b"".join(encode_frame(m)[4:5] for m in PACKED.values()) + b"J"
#: The retired second move verb: a JSON frame now, refused as an op.
RETIRED_INSERT = {"op": "insert", "oid": 7, "rect": [0.1, 0.2, 0.3, 0.4]}


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
    for tag in TAGS:
        cases.append((f"length 1, tag {chr(tag)}", _framed(bytes([tag]))))
    known = set(TAGS)
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
    for i, tag in enumerate(TAGS * 4):
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
        cases.append((
            f"update: {name}",
            encode_frame({"op": "update", "oid": 999, "rect": rect}),
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
    cases.append(("insert, a retired verb", encode_frame(RETIRED_INSERT)))
    cases.append(("unhashable op", encode_frame({"op": [1, 2]})))
    cases.append(("delete without oid", encode_frame({"op": "delete"})))
    # ``int()`` would have made these object 1, object 2, object 1, k = 1.
    for oid in (1.9, "2", True, None, [1]):
        cases.append((
            f"delete: oid {oid!r}", encode_frame({"op": "delete", "oid": oid})
        ))
    for k in (1.9, "3", True, None):
        cases.append((
            f"knn: k {k!r}",
            encode_frame({"op": "knn", "x": 0.5, "y": 0.5, "k": k}),
        ))
    cases.append(
        ("knn without k", encode_frame({"op": "knn", "x": 0.5, "y": 0.5}))
    )
    return cases


MALFORMED = _malformed_frames()
REJECTED = _rejected_frames()


def _play_on_socketpair(data: bytes, read=recv_frame):
    """What ``read`` (``recv_frame``, or a ``FrameReader``'s ``read``)
    makes of ``data`` followed by EOF."""
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    try:
        a.sendall(data)
        a.close()
        return read(b)
    finally:
        a.close()
        b.close()


def _reader_read(sock):
    return FrameReader(sock).read()


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
        unpacked = []  # sizes of the row regions handed to the unpacker
        row = protocol._ROW

        class Spy:
            def iter_unpack(self, buffer):
                unpacked.append(len(buffer))
                return row.iter_unpack(buffer)

        monkeypatch.setattr(protocol, "_ROW", Spy())
        assert len(MALFORMED) == 372
        for read in (recv_frame, _reader_read):
            for name, data in MALFORMED:
                try:
                    got = _play_on_socketpair(data, read)
                except (ValueError, ConnectionError):
                    continue
                # Anything else (struct.error, IndexError, MemoryError,
                # RecursionError ...) propagates and fails the test by
                # itself.
                pytest.fail(f"{name}: {read.__name__} returned {got!r}")
        assert unpacked == []  # a lying count is refused unread

    def test_rejected_frames_decode(self):
        # The table's second half is hostile in *content*, not in form.
        for name, data in REJECTED:
            assert isinstance(_play_on_socketpair(data), dict), name
            assert repr(_play_on_socketpair(data, _reader_read)) == repr(
                _play_on_socketpair(data)
            ), name  # by repr: NaN != NaN

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
            {"ok": True, "result": [(oid, *rect)]},
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
        {"ok": True, "result": [(1, 0.0, 0.0, 0.0)]},
        {"op": "stats", "blob": object()},
    ])
    def test_unpackable_message_is_a_value_error(self, message):
        with pytest.raises(ValueError):
            encode_frame(message)


# ---------------------------------------------------------------------------
# The per-connection reader
# ---------------------------------------------------------------------------


class _ScriptedSocket:
    """``recv`` hands out the scripted segments one call each (never more
    than asked for), then EOF; every call's size is kept."""

    def __init__(self, segments):
        self._segments = [bytes(s) for s in segments if s]
        self.asked = []

    def recv(self, size):
        self.asked.append(size)
        if not self._segments:
            return b""
        head = self._segments[0]
        if len(head) <= size:
            return self._segments.pop(0)
        self._segments[0] = head[size:]
        return head[:size]


class TestFrameReader:
    MESSAGES = [PACKED["update"], PACKED["ack"], {"op": "ping"},
                PACKED["rows"], PACKED["query"], {"op": "count"}]

    def test_several_frames_in_one_segment_cost_one_recv(self):
        frames = b"".join(encode_frame(m) for m in self.MESSAGES)
        sock = _ScriptedSocket([frames])
        reader = FrameReader(sock)
        assert [reader.read() for _ in self.MESSAGES] == self.MESSAGES
        assert len(sock.asked) == 1  # the rest came out of what was kept
        assert reader.read() is None  # clean EOF at a frame edge
        assert len(sock.asked) == 2

    def test_one_frame_per_segment_costs_one_recv_each(self):
        sock = _ScriptedSocket([encode_frame(m) for m in self.MESSAGES])
        reader = FrameReader(sock)
        for count, message in enumerate(self.MESSAGES, start=1):
            assert reader.read() == message
            assert len(sock.asked) == count

    @pytest.mark.parametrize("kind", sorted(PACKED))
    def test_a_frame_split_at_every_offset_is_read(self, kind):
        frame = encode_frame(PACKED[kind])
        follower = encode_frame({"op": "ping"})
        for cut in range(1, len(frame)):
            sock = _ScriptedSocket([frame[:cut], frame[cut:] + follower])
            reader = FrameReader(sock)
            assert reader.read() == PACKED[kind], cut
            assert reader.read() == {"op": "ping"}, cut
            assert reader.read() is None

    def test_a_frame_arriving_byte_by_byte_is_read(self):
        frame = encode_frame(PACKED["rows"])
        reader = FrameReader(_ScriptedSocket([bytes([b]) for b in frame]))
        assert reader.read() == PACKED["rows"]
        assert reader.read() is None

    def test_eof_inside_a_frame_is_a_connection_error(self):
        frame = encode_frame(PACKED["update"])
        for cut in range(1, len(frame)):
            # ... also when whole frames came first, in the same segment.
            for lead in (b"", encode_frame(PACKED["ack"])):
                reader = FrameReader(_ScriptedSocket([lead + frame[:cut]]))
                if lead:
                    assert reader.read() == PACKED["ack"]
                with pytest.raises(ConnectionError):
                    reader.read()

    def test_length_is_checked_before_the_body_is_asked_for(self):
        for header in (struct.pack(">I", MAX_FRAME + 1), struct.pack(">I", 0)):
            sock = _ScriptedSocket([header, bytes(64)])
            with pytest.raises(ValueError, match="outside 1..MAX_FRAME"):
                FrameReader(sock).read()
            assert len(sock.asked) == 1

    def test_the_largest_answer_is_read_in_linear_recvs(self):
        n = 26_214
        message = {
            "ok": True, "result": [(i, 0.5, 0.5, 0.5, 0.5) for i in range(n)]
        }
        frame = encode_frame(message)
        assert len(frame) > MAX_FRAME - 40
        segment = 16_384  # what loopback hands over at a time
        sock = _ScriptedSocket(
            [frame[i:i + segment] for i in range(0, len(frame), segment)]
        )
        reader = FrameReader(sock)
        assert reader.read() == message
        # One a segment, and one for the first segment's tail (the first
        # call only knows of a header).
        assert len(sock.asked) == -(-len(frame) // segment) + 1
        # ... and no call asks for more than the frame lacks, plus the
        # look-ahead: nothing is buffered that the length has not paid for.
        assert max(sock.asked) <= len(frame) + READ_AHEAD
        assert reader.read() is None

    def test_pipelined_requests_are_answered_in_order(self):
        objects = _seeded_objects(60, seed=21)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        window = Rect(0.1, 0.1, 0.7, 0.7)
        requests = [
            {"op": "count"},
            {"op": "update", "oid": 7, "rect": [0.8, 0.8, 0.81, 0.81]},
            {"op": "query", "window": [0.1, 0.1, 0.7, 0.7]},
            {"op": "ping"},
        ]
        with ShardServer(router) as server:
            answers = _play_on_server(
                server.address, b"".join(map(encode_frame, requests))
            )
        objects[7] = Rect(0.8, 0.8, 0.81, 0.81)
        assert [a["ok"] for a in answers] == [True] * 4
        assert answers[0]["result"] == 60
        assert answers[1]["result"]["shard"] == 3
        assert results_from_wire(answers[2]["result"]) == _brute_force(
            objects, window
        )
        assert answers[3]["result"] == "pong"


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
    @given(oid=oids, rect=quads)
    @example(oid=INT64_MAX, rect=[-0.0, 5e-324, 1e308, -1e308])
    @example(oid=-INT64_MAX, rect=[0.0, -0.0, 2.2e-308, 1e308])
    def test_move_requests(self, oid, rect):
        _assert_exact({"op": "update", "oid": oid, "rect": rect})

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
        _assert_exact(
            {"ok": True, "result": [(oid, *quad) for oid, quad in rows]}
        )

    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_rows_at_fixed_sizes(self, n):
        rng = random.Random(n)
        edge = [-0.0, 5e-324, 1e308, -1e308]
        rows = [
            (rng.choice((-1, 1)) * (INT64_MAX - i),
             *(rng.choice(edge + [rng.random()]) for _ in range(4)))
            for i in range(n)
        ]
        message = {"ok": True, "result": rows}
        assert len(encode_frame(message)) == 9 + 40 * n
        _assert_exact(message)

    def test_frame_sizes(self):
        sizes = {kind: len(encode_frame(m)) for kind, m in PACKED.items()}
        assert sizes == {
            "update": 45, "query": 37, "ack": 10,
            "rows": 9 + 40 * 3,
        }

    def test_a_frame_holds_26214_rows(self):
        def answer(n):
            return {"ok": True, "result": [(0, 0.0, 0.0, 0.0, 0.0)] * n}

        assert (MAX_FRAME - 5) // protocol.ROW_BYTES == 26_214
        assert len(encode_frame(answer(26_214))) <= 4 + MAX_FRAME
        with pytest.raises(ValueError, match="26215 rows exceed MAX_FRAME"):
            encode_frame(answer(26_215))

    def test_rows_invert(self):
        rows = sorted(_seeded_objects(40, seed=3).items())
        assert results_from_wire(results_to_wire(rows)) == rows
        assert results_to_wire([]) == []
        with pytest.raises(ValueError):
            results_from_wire([(1, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):  # Rect still validates each row
            results_from_wire([(1, 0.5, 0.5, 0.4, 0.6)])

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
                    assert served == results_from_wire(router.query(window))
                    assert served == _brute_force(objects, window)
                for k in (1, 7, 60):
                    x, y = rng.random(), rng.random()
                    served = client.nearest_neighbors(x, y, k)
                    assert served == results_from_wire(
                        router.nearest_neighbors(x, y, k)
                    )
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
                got = results_from_wire(router.query(window))
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
                    {"op": "update", "oid": 998, "rect": [0.5, 0.5, inf, inf]},
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


    def test_a_client_that_timed_out_is_closed_not_desynchronised(self):
        """On HEAD the ``count()`` after the timeout read the stale ack
        (``TypeError: int() argument ... not 'dict'``) and a following
        ``upsert`` would have *returned* it."""

        class SlowRouter:
            def upsert(self, oid, rect):
                time.sleep(0.5)
                return {"shard": 0, "migrated": False}

            def count_objects(self):
                return 5

            def close(self):
                pass

        with ShardServer(SlowRouter()) as server:
            client = ServingClient(*server.address, timeout=0.2)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.upsert(1, _square(0.5, 0.5))
            assert 0.15 < time.monotonic() - started < 0.45
            for call in (client.count, client.ping,
                         lambda: client.upsert(2, _square(0.5, 0.5))):
                with pytest.raises(OSError):
                    call()
            with ServingClient(*server.address, timeout=TIMEOUT) as fresh:
                assert fresh.count() == 5

    def test_any_transport_failure_closes_the_client(self):
        """A malformed answer and a vanished server poison it too; a
        server-side error and an unsendable message do not."""
        listener = socket.create_server(("127.0.0.1", 0))
        replies = [_framed(b"\x00garbage"), b""]  # unknown tag; then hang up

        def serve():
            for reply in replies:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(TIMEOUT)
                    assert recv_frame(conn) == {"op": "ping"}
                    conn.sendall(reply)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            for expected in (ValueError, ConnectionError):
                client = ServingClient(
                    *listener.getsockname()[:2], timeout=TIMEOUT
                )
                with pytest.raises(expected):
                    client.ping()
                with pytest.raises(OSError):
                    client.ping()
        finally:
            thread.join(TIMEOUT)
            listener.close()
        assert not thread.is_alive()
        with ShardServer(ShardRouter(1)) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                with pytest.raises(RuntimeError, match="unknown op"):
                    client.request({"op": "drop-all"})
                with pytest.raises(ValueError):
                    client.upsert(2**63, _square(0.5, 0.5))
                assert client.ping()

    def test_dispatch_checks_integers_instead_of_coercing(self):
        """On HEAD ``"oid": 1.9`` deleted object 1, ``"oid": "2"`` object
        2, and ``"k": 1.9`` was answered as ``k = 1``."""
        objects = _seeded_objects(10, seed=4)
        router = ShardRouter(4)
        for oid, rect in objects.items():
            router.upsert(oid, rect)
        with ShardServer(router) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                for message in (
                    {"op": "delete", "oid": 1.9},
                    {"op": "delete", "oid": "2"},
                    {"op": "delete", "oid": True},
                    {"op": "knn", "x": 0.5, "y": 0.5, "k": 1.9},
                    {"op": "knn", "x": 0.5, "y": 0.5, "k": "3"},
                ):
                    with pytest.raises(RuntimeError, match="expected an int"):
                        client.request(message)
                assert client.count() == 10  # and the connection lives
                assert client.delete(1) is True
                assert len(client.nearest_neighbors(0.5, 0.5, 3)) == 3

    def test_a_raising_shard_is_an_error_answer_and_no_directory_entry(self):
        router = ShardRouter(4)

        def refuse(*_args, **_kwargs):
            raise RuntimeError("disk full")

        for shard in router.shards:
            shard.tree.update_object = refuse
        with ShardServer(router) as server:
            with ServingClient(*server.address, timeout=TIMEOUT) as client:
                with pytest.raises(RuntimeError, match="disk full"):
                    client.upsert(1, _square(0.2, 0.2))
                assert client.count() == 0
                assert client.delete(1) is False
