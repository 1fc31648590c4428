"""Disk-access accounting.

Every experiment in the paper reports *numbers of disk accesses*; Section 4
explicitly restricts the analysis to **leaf-node** accesses because internal
nodes are assumed to be cached in the memory buffer.  :class:`IOStats` keeps
separate counters for every access category so that the headline metric
(leaf reads + leaf writes) can be computed without hiding the rest.

Counters are plain integers; snapshots and deltas are cheap value objects so
that a harness can measure the exact cost of a single logical operation::

    before = stats.snapshot()
    tree.update(oid, rect)
    cost = stats.snapshot() - before
    print(cost.leaf_total)
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Tuple


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable copy of all I/O counters at one instant.

    Subtracting two snapshots yields the per-interval cost, also as an
    :class:`IOSnapshot`.
    """

    leaf_reads: int = 0
    leaf_writes: int = 0
    internal_reads: int = 0
    internal_writes: int = 0
    index_reads: int = 0
    index_writes: int = 0
    log_writes: int = 0
    log_reads: int = 0
    memo_reads: int = 0
    memo_writes: int = 0

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def leaf_total(self) -> int:
        """Leaf-node disk accesses — the paper's headline metric."""
        return self.leaf_reads + self.leaf_writes

    @property
    def index_total(self) -> int:
        """Secondary-index disk accesses (FUR-tree only)."""
        return self.index_reads + self.index_writes

    @property
    def log_total(self) -> int:
        """Write-ahead-log disk accesses (recovery options II/III)."""
        return self.log_writes + self.log_reads

    @property
    def memo_total(self) -> int:
        """Disk-resident Update-Memo run accesses (spilled memo only).

        Zero for the paper's pure in-RAM memo; the LSM-tiered memo
        (:mod:`repro.core.memo_lsm`) charges its run flushes, probes,
        compactions and manifest writes here.
        """
        return self.memo_reads + self.memo_writes

    @property
    def counted_total(self) -> int:
        """Everything the paper charges an update/query with.

        Leaf accesses plus the auxiliary structures that the respective
        approach pays for: the FUR-tree's secondary index, the RUM-tree's
        log traffic, and — when the Update Memo is spilled to disk — its
        run I/O.  Internal-node accesses are excluded, matching the
        "internal nodes are cached" assumption of Section 4.
        """
        return (
            self.leaf_total + self.index_total + self.log_total
            + self.memo_total
        )

    @property
    def grand_total(self) -> int:
        """All accesses including internal nodes (for honesty checks)."""
        return (
            self.counted_total + self.internal_reads + self.internal_writes
        )

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain ``{field: value}`` dict.

        The canonical serialisation used by the telemetry exporters and
        anywhere else a snapshot must become JSON — field order matches
        the dataclass declaration.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The counters in declaration order: the layout of every raw I/O delta
#: tuple (flight-recorder records, the cleaner's per-cycle cost).
IO_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(IOSnapshot))

#: Reads the raw counters of an :class:`IOStats` in that order — the one
#: way a before/after delta for ``FlightRecorder.record`` is taken.
io_counters = attrgetter(*IO_FIELDS)


class IOStats:
    """Mutable disk-access counters shared by one storage stack.

    A single :class:`IOStats` instance is threaded through the disk, the
    buffer pool, the secondary index, and the write-ahead log of one tree so
    that one snapshot captures the complete cost of an operation.
    """

    __slots__ = (
        "leaf_reads",
        "leaf_writes",
        "internal_reads",
        "internal_writes",
        "index_reads",
        "index_writes",
        "log_writes",
        "log_reads",
        "memo_reads",
        "memo_writes",
    )

    leaf_reads: int
    leaf_writes: int
    internal_reads: int
    internal_writes: int
    index_reads: int
    index_writes: int
    log_writes: int
    log_reads: int
    memo_reads: int
    memo_writes: int

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.leaf_reads = 0
        self.leaf_writes = 0
        self.internal_reads = 0
        self.internal_writes = 0
        self.index_reads = 0
        self.index_writes = 0
        self.log_writes = 0
        self.log_reads = 0
        self.memo_reads = 0
        self.memo_writes = 0

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        return IOSnapshot(
            leaf_reads=self.leaf_reads,
            leaf_writes=self.leaf_writes,
            internal_reads=self.internal_reads,
            internal_writes=self.internal_writes,
            index_reads=self.index_reads,
            index_writes=self.index_writes,
            log_writes=self.log_writes,
            log_reads=self.log_reads,
            memo_reads=self.memo_reads,
            memo_writes=self.memo_writes,
        )

    # -- recording helpers -------------------------------------------------

    def record_read(self, is_leaf: bool) -> None:
        """Charge one page read to the leaf or internal counter."""
        if is_leaf:
            self.leaf_reads += 1
        else:
            self.internal_reads += 1

    def record_write(self, is_leaf: bool) -> None:
        """Charge one page write to the leaf or internal counter."""
        if is_leaf:
            self.leaf_writes += 1
        else:
            self.internal_writes += 1

    def __repr__(self) -> str:
        fields_repr = ", ".join(
            f"{name}={value}"
            for name, value in self.snapshot().as_dict().items()
        )
        return f"IOStats({fields_repr})"
