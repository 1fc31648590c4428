"""Flight recorder — a bounded ring buffer of recent operations.

Aggregate counters (PR 2) answer "how much I/O did the workload do?";
the flight recorder answers "what did the last operations *individually*
do, and which were slow?".  Every instrumented operation — query, kNN,
update, batch, cleaner cycle — appends one fixed-size record carrying:

* the operation kind and owning tree,
* wall time,
* the exact :class:`~repro.storage.iostats.IOSnapshot` delta,
* memo lookups/hits during the op (RUM trees; zero elsewhere),
* the mirror-vs-traversal serving decision (queries),
* pages touched (the paper's counted page accesses).

The recorder is a plain data structure: it never emits events and never
touches the registry, so enabling it costs only the per-op capture (two
``perf_counter`` calls, one stats read, one ring append).  Every
:class:`~repro.obs.Observability` owns one; at ``trace`` level
:meth:`Observability.record` turns each record into the operation's
``span`` event, carrying the ``seq`` :meth:`FlightRecorder.record`
returns.

Hot-path contract (enforced by lint rule REP010): tree/storage code
reaches the recorder only through instruments bound in ``attach_obs``,
never through a global registry or default-obs lookup.

Records are stored as flat tuples to keep the capture cheap;
:meth:`FlightRecorder.records` materialises typed :class:`OpRecord`
views and :meth:`FlightRecorder.dump` produces a JSON-ready dict (schema
``flight_recorder/v1``) that round-trips through the exporters.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

from repro.storage.iostats import IO_FIELDS, IOSnapshot

#: Schema tag stamped on every :meth:`FlightRecorder.dump`.
SCHEMA = "flight_recorder/v1"

#: Default ring capacity (operations retained).
DEFAULT_CAPACITY = 256

#: Slow-op threshold in milliseconds: an op at least this slow also
#: enters the slow-op log.
SLOW_MS = 10.0

#: How many of the slowest above-threshold ops the slow-op log retains.
#: They survive ring eviction, so a latency spike stays diagnosable long
#: after the ring has wrapped.
SLOW_TOP_K = 16

# (seq, op, tree, dur_s, io10, memo_lookups, memo_hits, served_by)
_Raw = Tuple[int, str, str, float, Tuple[int, ...], int, int, str]


@dataclass(frozen=True)
class OpRecord:
    """One recorded operation (typed view over the raw ring tuple)."""

    seq: int
    op: str
    tree: str
    duration_ms: float
    io: IOSnapshot
    memo_lookups: int
    memo_hits: int
    served_by: str

    @property
    def pages_touched(self) -> int:
        """Counted page accesses of the op (leaf + index + log)."""
        return self.io.counted_total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the ``dump()`` record schema)."""
        return {
            "seq": self.seq,
            "op": self.op,
            "tree": self.tree,
            "duration_ms": self.duration_ms,
            "io": self.io.as_dict(),
            "memo_lookups": self.memo_lookups,
            "memo_hits": self.memo_hits,
            "served_by": self.served_by,
            "pages_touched": self.pages_touched,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpRecord":
        """Inverse of :meth:`as_dict` (exporter round-trip tests)."""
        return cls(
            seq=int(data["seq"]),
            op=str(data["op"]),
            tree=str(data["tree"]),
            duration_ms=float(data["duration_ms"]),
            io=IOSnapshot(**{f: int(data["io"][f]) for f in IO_FIELDS}),
            memo_lookups=int(data["memo_lookups"]),
            memo_hits=int(data["memo_hits"]),
            served_by=str(data["served_by"]),
        )


def _to_record(raw: _Raw) -> OpRecord:
    seq, op, tree, dur_s, io10, lookups, hits, served = raw
    return OpRecord(
        seq=seq,
        op=op,
        tree=tree,
        duration_ms=dur_s * 1000.0,
        io=IOSnapshot(*io10),
        memo_lookups=lookups,
        memo_hits=hits,
        served_by=served,
    )


class FlightRecorder:
    """Bounded ring of per-operation records plus a slow-op top-K log
    (:data:`SLOW_MS`, :data:`SLOW_TOP_K`).

    Parameters
    ----------
    capacity:
        Operations retained in the ring (oldest evicted first).
    """

    __slots__ = ("capacity", "_ring", "_slow", "_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[_Raw] = deque(maxlen=capacity)
        # Min-heap of (dur_s, seq, raw); the root is the fastest retained
        # slow op and is displaced first.  seq breaks duration ties so the
        # raw tuples are never compared.
        self._slow: List[Tuple[float, int, _Raw]] = []
        self._seq = 0

    # -- capture (hot path) ------------------------------------------------

    def record(
        self,
        op: str,
        tree: str,
        dur_s: float,
        io10: Tuple[int, ...],
        memo_lookups: int,
        memo_hits: int,
        served_by: str,
    ) -> int:
        """Append one operation record (cheap: tuple + ring append) and
        return its sequence number."""
        seq = self._seq
        self._seq = seq + 1
        raw: _Raw = (seq, op, tree, dur_s, io10, memo_lookups, memo_hits, served_by)
        self._ring.append(raw)
        if dur_s * 1000.0 >= SLOW_MS and SLOW_TOP_K:
            slow = self._slow
            if len(slow) < SLOW_TOP_K:
                heapq.heappush(slow, (dur_s, seq, raw))
            elif dur_s > slow[0][0]:
                heapq.heapreplace(slow, (dur_s, seq, raw))
        return seq

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded_total(self) -> int:
        """Operations recorded over the recorder's lifetime."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Operations evicted from the ring (lifetime - retained)."""
        return self._seq - len(self._ring)

    def records(self) -> List[OpRecord]:
        """Retained ring records, oldest first."""
        return [_to_record(raw) for raw in self._ring]

    def slow_records(self) -> List[OpRecord]:
        """Retained slow ops, slowest first."""
        ordered = sorted(self._slow, key=lambda e: (-e[0], e[1]))
        return [_to_record(raw) for _, _, raw in ordered]

    def clear(self) -> None:
        """Drop all retained records (lifetime counters keep counting)."""
        self._ring.clear()
        del self._slow[:]

    # -- export ------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """JSON-ready dump of the ring and slow-op log.

        The kernel backend is resolved at dump time (it is a per-process
        constant, so stamping it per record would only repeat one value).
        """
        from repro import kernels

        return {
            "schema": SCHEMA,
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "dropped": self.dropped,
            "slow_op_threshold_ms": SLOW_MS,
            "backend": kernels.BACKEND,
            "ops": [r.as_dict() for r in self.records()],
            "slow_ops": [r.as_dict() for r in self.slow_records()],
        }
