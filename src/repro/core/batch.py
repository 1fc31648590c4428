"""Batched update ingestion: dedup, locality ordering, batch plans.

Update-intensive spatial workloads amortise per-update overhead by
buffering updates and applying them in groups (cf. the LSM-based R-tree
line of work in PAPERS.md).  The memo-based update of Section 3 makes
this particularly clean: an update never needs the old entry, so a
buffered batch can be *deduplicated per object* — only the last
operation of each object has any effect on the final visible state —
and the surviving insertions can be *reordered freely* without changing
semantics.  This module implements the workload-independent
half of that pipeline:

* **Operation normalisation** — batches are sequences of plain tuples,
  ``("insert", oid, rect)``, ``("update", oid, new_rect[, old_rect])``
  and ``("delete", oid[, old_rect])``.  A trailing ``old_rect`` is
  accepted and ignored, as the memo-based update ignores it (Section
  3.2.1).
* **Last-write-wins dedup** (:func:`plan_batch`) — per oid, operations
  fold left-to-right into at most one surviving operation.  This is
  *exactly* equivalent to sequential application as far as queries are
  concerned: sequentially, every superseded insertion produces an entry
  that is obsolete the moment the next stamp for the same oid is
  recorded, and the memo filter hides it from every query.  Skipping it
  merely skips creating garbage (see ``docs/BATCHING.md`` for the full
  argument).
* **Z-order locality key** (:func:`repro.rtree.zorder.zorder_key`) —
  surviving insertions are sorted by the Morton code of their
  rectangle's centre, so consecutive choose-subtree descents land on
  nearby leaves and the batch's one buffer operation turns repeat
  visits into buffer hits.  The encoding lives in
  :mod:`repro.rtree.zorder` (it also drives the serving layer's shard
  partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rtree.geometry import Rect
from repro.rtree.zorder import zorder_keys

__all__ = [
    "KINDS",
    "BatchPlan",
    "BatchResult",
    "normalize_op",
    "plan_batch",
]

#: Operation kinds accepted by :func:`plan_batch`.
KINDS = ("insert", "update", "delete")


# Both records are slotted and built from positional arguments: a batch
# of one pays for them on every write, and default factories or keyword
# passing cost as much again.


@dataclass(slots=True)
class BatchPlan:
    """The deduplicated, locality-ordered form of one operation batch."""

    #: Surviving insertions as ``(oid, rect)``, sorted by the Z-order key
    #: of their rects.
    upserts: List[Tuple[int, Rect]]
    #: Surviving deletions as oids (order is irrelevant: they touch no
    #: page in the memo-based path and distinct oids never interact).
    deletes: List[int]
    #: Operations in the input batch.
    total_ops: int

    @property
    def surviving(self) -> int:
        return len(self.upserts) + len(self.deletes)

    @property
    def deduped(self) -> int:
        """Operations dropped by last-write-wins folding."""
        return self.total_ops - self.surviving

    @property
    def dedup_ratio(self) -> float:
        """Fraction of the batch folded away (0.0 = nothing saved)."""
        return self.deduped / self.total_ops if self.total_ops else 0.0


@dataclass(slots=True)
class BatchResult:
    """What applying one batch did (returned by ``apply_batch``): the
    counts of the plan it applied, and its leaf writeback."""

    plan: BatchPlan
    #: Leaf dirty-marks vs. leaf pages written during the batch (deltas
    #: of the buffer pool's ``leaf_mark_count`` / ``write_back_count``);
    #: their difference is the writeback the batching coalesced away.
    write_marks: int
    pages_written: int

    @property
    def total_ops(self) -> int:
        return self.plan.total_ops

    @property
    def applied(self) -> int:
        return self.plan.surviving

    @property
    def deduped(self) -> int:
        return self.plan.deduped

    @property
    def inserts(self) -> int:
        return len(self.plan.upserts)

    @property
    def deletes(self) -> int:
        return len(self.plan.deletes)

    @property
    def coalesced_writes(self) -> int:
        return max(0, self.write_marks - self.pages_written)


# Per-oid fold state: (kind, new_rect).  ``kind`` is one of "insert" /
# "update" / "delete" / "noop" ("noop" = insert followed by delete inside
# the same batch: the object never existed outside it).
_FoldState = Tuple[str, Optional[Rect]]


def _fold(state: Optional[_FoldState], op: Tuple) -> _FoldState:
    """Fold the next operation of one oid onto its current state
    (left-to-right, last write wins)."""
    kind = op[0]
    new_rect = op[2] if kind in ("insert", "update") else None
    if state is None:
        return (kind, new_rect)
    if state[0] in ("insert", "noop"):
        # The object did not exist before the batch: a delete leaves
        # nothing, any other write (re-)creates it from scratch.
        return ("noop", None) if kind == "delete" else ("insert", new_rect)
    # The object pre-exists the batch ("update" or "delete" so far).
    return ("delete", None) if kind == "delete" else ("update", new_rect)


def normalize_op(op: Sequence) -> Tuple:
    """Validate one batch operation tuple; returns it as a plain tuple."""
    if not op:
        raise ValueError("empty batch operation")
    kind = op[0]
    if kind not in KINDS:
        raise ValueError(
            f"unknown batch operation kind {kind!r}; expected one of {KINDS}"
        )
    if kind == "delete":
        if not 2 <= len(op) <= 3:
            raise ValueError(
                f"delete op takes (oid[, old_rect]), got {len(op) - 1} args"
            )
    else:
        if not 3 <= len(op) <= 4:
            raise ValueError(
                f"{kind} op takes (oid, rect[, old_rect]), "
                f"got {len(op) - 1} args"
            )
        if not isinstance(op[2], Rect):
            raise TypeError(f"{kind} op rect must be a Rect, got {op[2]!r}")
    if not isinstance(op[1], int):
        raise TypeError(f"{kind} op oid must be an int, got {op[1]!r}")
    return tuple(op)


def plan_batch(ops: Iterable[Sequence]) -> BatchPlan:
    """Deduplicate and locality-order a batch of operations.

    Returns a :class:`BatchPlan` whose application (deletes, then the
    Z-ordered upserts) is equivalent — for every query that runs after
    the batch — to applying ``ops`` sequentially in input order.
    """
    states: Dict[int, _FoldState] = {}
    total = 0
    for raw in ops:
        op = normalize_op(raw)
        total += 1
        oid = op[1]
        states[oid] = _fold(states.get(oid), op)

    upserts: List[Tuple[int, Rect]] = []
    deletes: List[int] = []
    for oid, (kind, new_rect) in states.items():
        if kind == "noop":
            continue
        if kind == "delete":
            deletes.append(oid)
        elif new_rect is None:  # fold invariant: upserts carry a rect
            raise RuntimeError(f"batch fold lost the rect of oid {oid}")
        else:
            upserts.append((oid, new_rect))
    if len(upserts) > 1:
        # One bulk encode, then a keyed sort: same order as sorting by
        # (zorder_key(rect), oid) per element.  One upsert is in order.
        keys = zorder_keys([rect for _, rect in upserts])
        order = sorted(
            range(len(upserts)), key=lambda i: (keys[i], upserts[i][0])
        )
        upserts = [upserts[i] for i in order]
    return BatchPlan(upserts, deletes, total)
