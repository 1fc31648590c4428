"""Host-normalised time: what makes two runs on this box comparable.

This host's speed drifts by a third within minutes and jitters at the
millisecond scale (neighbours, clock steps), and every timing of a run
drifts with it: eight back-to-back runs of one workload read 66-82 µs for
the same median update (quartile spread 19 %, p99 27 %), all metrics of a
run moving together.

So a *reference piece* — about a millisecond of interpreter work that
calls none of the program: dict, list, struct and float operations in
roughly the proportions of the program's hot paths — is run some fifty
times inside everything the benchmark times, evenly spread, outside every
per-op span and taken out of every wall time.  A timing is reported as
``measured * REFERENCE_NOMINAL_NS / median(pieces)``: what it would have
been on a host where the piece takes ``REFERENCE_NOMINAL_NS``.  The median
ignores the pieces a descheduling landed on, as a p50 latency does.

A change to the program cannot move the piece, so it moves the metric in
full; a slow minute of the host moves both and cancels (the same eight
runs: quartile spread 2 % for the median update, 5 % for its p99).  The
factor of every segment and the raw throughput stay in the report.
"""

from __future__ import annotations

import statistics
import struct
import time
from typing import Dict, List

REFERENCE_NOMINAL_NS = 1_000_000
#: Pieces wanted inside one timed stretch, and on each side of a stretch
#: that cannot be interrupted (a set-up, a recovery).
PIECES_INSIDE = 50
PIECES_AROUND = 20

_RECORD = struct.Struct("<4d3q")
_BUFFER = bytearray(_RECORD.size * 64)
_TABLE: Dict[int, int] = {}


def reference_piece_ns() -> int:
    """Run the reference piece once; how long it took."""
    record, buf, table = _RECORD, _BUFFER, _TABLE
    size = record.size
    total = 0
    start = time.perf_counter_ns()
    for i in range(1350):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        offset = (i % 64) * size
        record.pack_into(
            buf, offset, i * 0.5, i * 0.25, i + 0.5, i + 0.25, i, i + 1, i + 2
        )
        x1, y1, x2, y2, _p, oid, stamp = record.unpack_from(buf, offset)
        total += oid + stamp
        corners = [x1, y1, x2, y2]
        corners.sort()
    return time.perf_counter_ns() - start


class HostSpeed:
    """The host's speed over one timed stretch.

    Inside a loop the benchmark owns, call :meth:`sample` every few
    iterations.  Around a call it cannot interrupt, use it as a context
    manager: it samples before and after.
    """

    def __init__(self) -> None:
        self.pieces: List[int] = []

    def sample(self) -> None:
        self.pieces.append(reference_piece_ns())

    def __enter__(self) -> "HostSpeed":
        for _ in range(PIECES_AROUND):
            self.sample()
        return self

    def __exit__(self, *exc: object) -> None:
        for _ in range(PIECES_AROUND):
            self.sample()

    @property
    def spent_ns(self) -> int:
        """Time the pieces themselves took, to take out of a wall time."""
        return sum(self.pieces)

    @property
    def factor(self) -> float:
        """What to multiply a time measured in this stretch by."""
        return REFERENCE_NOMINAL_NS / statistics.median(self.pieces)
