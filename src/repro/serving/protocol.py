"""Length-prefixed wire protocol for the shard server: packed data frames.

Every message is a 4-byte **big-endian unsigned length**, then that many
bytes: one tag byte and the tag's body (``frame := len:u32be tag:u8
body``).  A length of 0 or above :data:`MAX_FRAME` is rejected before
allocation, in both directions, so a corrupt prefix cannot balloon
memory.  The data path's frames are struct-packed, little-endian like
every format :mod:`repro.storage.codec` owns; whatever has no fixed shape
rides as UTF-8 JSON under one more tag:

=====  =========================  ==========================  ==========
tag    message                    body                        frame size
=====  =========================  ==========================  ==========
``U``  ``update`` request         ``oid:i64 rect:4×f64``      45 B
``Q``  ``query`` request          ``window:4×f64``            37 B
``A``  answer to update           ``shard:u32 migrated:u8``   10 B
``R``  answer to query / knn      ``n:u32 n×(i64 4×f64)``     9 + 40n B
``J``  everything else            one UTF-8 JSON object       5 + len B
=====  =========================  ==========================  ==========

A rows frame is row-major — per row the oid, then ``x1 y1 x2 y2`` — and
holds at most ``(MAX_FRAME - 5) // 40`` = 26 214 rows.  Every message has
exactly **one** encoding: the tag follows from the shape of its dict form
(:func:`_kind`), and a data verb arriving under ``J`` is a protocol
error.

In dict form (what :func:`send_frame` takes and :func:`recv_frame`
returns) a request carries an ``op``: ``ping``, ``count``, ``stats``,
``delete`` (``oid``), ``update`` (``oid``, ``rect: [x1, y1, x2, y2]``;
it inserts an object it does not know), ``query`` (``window``) or ``knn``
(``x``, ``y``, ``k``).  Responses are ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "<message>"}``; query and kNN results are the
list of flat rows ``(oid, x1, y1, x2, y2)`` the router answers both in,
which the server packs as they are (any list result is a rows frame;
:func:`results_to_wire` builds them from ``(oid, rect)`` pairs).  The
connection is persistent: frames are processed in order until the client
closes its end.  Each end reads through a :class:`FrameReader`: one
``recv`` per frame, over-read bytes kept for the next, so a client may
pipeline requests.  A client whose round trip failed in transport
(timeout, reset, malformed answer) is closed, not reused: the late answer
would be read as the next reply.
"""

from __future__ import annotations

import json
import socket
import struct
from itertools import starmap
from math import isfinite
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.rtree.geometry import Rect

#: Hard cap on one frame's payload (26 214 answer rows: far beyond any
#: legitimate request or response at the supported scales).
MAX_FRAME = 1 << 20
#: Bytes one answer row costs on the wire: an i64 oid and four f64.
ROW_BYTES = 40

_LEN = struct.Struct(">I")
_COUNT = struct.Struct("<I")
_MOVE = struct.Struct("<q4d")
#: One answer row: the same layout as an update request's body.
_ROW = _MOVE
#: The fixed-shape kinds, one row each: tag, body layout, message ->
#: values to pack, unpacked values -> message.  The variable-length kinds
#: ("rows" under ``R``, "json" under ``J``) are branches of the codec.
_FIXED: Dict[str, Tuple[bytes, struct.Struct, Any, Any]] = {
    "update": (b"U", _MOVE, lambda m: (m["oid"], *m["rect"]),
               lambda v: {"op": "update", "oid": v[0], "rect": list(v[1:])}),
    "query": (b"Q", struct.Struct("<4d"), lambda m: m["window"],
              lambda v: {"op": "query", "window": list(v)}),
    "ack": (b"A", struct.Struct("<I?"),
            lambda m: (m["result"]["shard"], m["result"]["migrated"]),
            lambda v: {"ok": True,
                       "result": {"shard": v[0], "migrated": v[1]}}),
}
_BY_TAG = {row[0]: row for row in _FIXED.values()}


def _kind(message: Dict[str, Any]) -> str:
    """Which frame ``message`` travels as — decided by its shape alone."""
    op = message.get("op")
    if op in ("update", "query"):  # a tuple: op may be unhashable
        return op
    result = message.get("result") if message.get("ok") is True else None
    if type(result) is dict and result.keys() == {"shard", "migrated"}:
        return "ack"
    if type(result) is list:
        return "rows"
    return "json"


def float_from_wire(value: Any) -> float:
    """One kNN coordinate, coerced; JSON carries NaN / inf as well as a
    packed f64 does, and neither may reach a shard."""
    number = float(value)
    if not isfinite(number):
        raise ValueError(f"non-finite coordinate {number!r}")
    return number


def int_from_wire(value: Any) -> int:
    """An oid or ``k``, checked: ``int()`` would coerce 1.9, "2", True."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def rect_to_wire(rect: Rect) -> List[float]:
    return [rect.xmin, rect.ymin, rect.xmax, rect.ymax]


def rect_from_wire(coords: Sequence[float]) -> Rect:
    if len(coords) != 4:
        raise ValueError(f"rect needs 4 coordinates, got {len(coords)}")
    return Rect(*coords)  # finite or not is the router's check, once


def results_to_wire(results: Sequence[Tuple[int, Rect]]) -> List[tuple]:
    """Pairs ``(oid, rect)`` as the flat rows ``(oid, x1, y1, x2, y2)``."""
    return [(oid, r.xmin, r.ymin, r.xmax, r.ymax) for oid, r in results]


def results_from_wire(rows: Sequence[Sequence[Any]]) -> List[Tuple[int, Rect]]:
    """Inverse of :func:`results_to_wire`, in one pass; ``Rect``
    validates each row, and a row of other than five values is a
    ``ValueError`` too."""
    return [(oid, Rect(x1, y1, x2, y2)) for oid, x1, y1, x2, y2 in rows]


def encode_frame(message: Dict[str, Any]) -> bytes:
    """``message`` as one frame; ``ValueError`` when it cannot be one (a
    field missing or outside its packed range, or more than MAX_FRAME)."""
    kind = _kind(message)
    try:
        if kind == "json":
            tag = b"J"
            body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        elif kind == "rows":
            tag, rows = b"R", message["result"]
            n = len(rows)
            # Refused before packing, not after building a megabyte.
            if 1 + _COUNT.size + ROW_BYTES * n > MAX_FRAME:
                raise ValueError(f"{n} rows exceed MAX_FRAME")
            # Each row packs straight from its tuple, in one C-level pass
            # (a row of other than five values is a struct.error).  One
            # struct over the whole answer measured slower — a row-major
            # layout is 2n format codes, each switch a cost — and would
            # be a compiled layout of O(n) per answer size.
            body = _COUNT.pack(n) + b"".join(starmap(_ROW.pack, rows))
        else:
            tag, layout, to_values, _to_message = _FIXED[kind]
            body = layout.pack(*to_values(message))
    except (struct.error, KeyError, TypeError) as exc:
        raise ValueError(f"cannot encode {kind} frame: {exc!r}") from exc
    if len(body) >= MAX_FRAME:
        raise ValueError(f"frame of {len(body) + 1} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body) + 1) + tag + body


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialise ``message`` and write one length-prefixed frame."""
    sock.sendall(encode_frame(message))


def _decode(payload: bytes) -> Dict[str, Any]:
    tag = payload[:1]
    if tag == b"J":
        message = json.loads(payload[1:].decode("utf-8"))
        if not isinstance(message, dict) or _kind(message) != "json":
            raise ValueError("a JSON frame holds an object with no packed form")
        return message
    if tag == b"R":
        (n,) = _COUNT.unpack_from(payload, 1)
        # Before any allocation: n must be what the length already paid for.
        if len(payload) != 1 + _COUNT.size + ROW_BYTES * n:
            raise ValueError(f"{len(payload)}-byte rows frame claims {n} rows")
        rows = list(_ROW.iter_unpack(memoryview(payload)[1 + _COUNT.size:]))
        return {"ok": True, "result": rows}
    if tag not in _BY_TAG:
        raise ValueError(f"unknown frame tag {tag!r}")
    _tag, layout, _to_values, to_message = _BY_TAG[tag]
    return to_message(layout.unpack(payload[1:]))


#: What a read asks for beyond the frame it wants: a 47-row answer is
#: 1 889 B, so the usual frame, header and all, is one ``recv``.
READ_AHEAD = 4096
_Recv = Callable[[int], bytes]


def _fill(recv: _Recv, have: bytes, need: int, ahead: int) -> bytes:
    """``have`` (part of a frame) extended to at least ``need`` bytes."""
    chunks = [have]
    size = len(have)
    while size < need:
        chunk = recv(need - size + ahead)
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({size}/{need} bytes)"
            )
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


def _read_frame(
    recv: _Recv, pending: bytes, ahead: int
) -> Tuple[Optional[Dict[str, Any]], bytes]:
    """The next frame of ``pending`` + what ``recv`` yields, and the bytes
    read beyond it (none with ``ahead=0``); ``(None, b"")`` on a clean EOF.
    Raises ``ValueError`` on a malformed frame, ``ConnectionError`` on one
    cut short — and nothing else, whatever bytes arrive."""
    data = pending or recv(_LEN.size + ahead)
    if not data:
        return None, b""
    if len(data) < _LEN.size:
        data = _fill(recv, data, _LEN.size, ahead)
    (length,) = _LEN.unpack_from(data)
    # Before a byte of the body is asked for.
    if not 0 < length <= MAX_FRAME:
        raise ValueError(f"frame length {length} outside 1..MAX_FRAME")
    end = _LEN.size + length
    if len(data) < end:
        data = _fill(recv, data, end, ahead)
    try:
        return _decode(data[_LEN.size:end]), data[end:]
    # struct.error (a mis-sized body) is no ValueError, and a frame of
    # nested brackets ends json.loads in a RecursionError: both are
    # malformed input.
    except (struct.error, RecursionError) as exc:
        raise ValueError(f"malformed frame: {exc!r}") from exc


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame and nothing beyond it (header, then body); ``None``
    when the peer closed the connection.  Errors as :func:`_read_frame`."""
    return _read_frame(sock.recv, b"", 0)[0]


class FrameReader:
    """One connection's receiving end: ``read()`` is :func:`recv_frame`
    with :data:`READ_AHEAD` — one ``recv`` a frame when the peer writes one
    frame per ``sendall``, a number linear in its size for a large one, and
    what arrives beyond a frame is kept for the next ``read()``."""

    def __init__(self, sock: socket.socket) -> None:
        self._recv = sock.recv
        self._pending = b""

    def read(self) -> Optional[Dict[str, Any]]:
        message, self._pending = _read_frame(
            self._recv, self._pending, READ_AHEAD
        )
        return message
