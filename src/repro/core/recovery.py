"""Crash recovery for the Update Memo (Section 3.4).

The UM and the stamp counter live in main memory and are lost on a crash;
the tree pages on disk survive.  Three recovery options trade logging cost
against recovery cost (Figure 15 and Table 2):

* **Option I** — no log: rebuild the UM by scanning every leaf entry.  The
  intermediate table holds one slot per *object*, so for large object
  populations it exceeds main memory and spills to disk — that spill is
  what makes Option I's recovery cost explode in Table 2.
* **Option II** — the UM is checkpointed periodically: restore the last
  snapshot, then scan the leaves and replay only entries stamped after the
  checkpoint.  The result is a superset of the true UM (cleanings since
  the checkpoint were lost), i.e. it contains phantoms, which one cleaning
  cycle plus phantom inspection subsequently removes.
* **Option III** — checkpoints plus a log record per memo change: restore
  the snapshot and replay the log.  No tree scan at all — the cheapest
  recovery, bought with the highest logging cost during normal operation.

Known semantic limits, faithful to the paper's design: deletions performed
after the last durable information (ever, for Option I; after the last
checkpoint, for Option II) are lost, because a memo-based delete leaves no
trace in the tree.  Only Option III recovers deletes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.storage.iostats import IOSnapshot

from repro.rtree.node import Node

from .rum import RUMTree


@dataclass
class RecoveryReport:
    """Outcome and cost of one recovery run."""

    option: str
    io: IOSnapshot
    leaf_entries_scanned: int = 0
    log_records_replayed: int = 0
    spill_accesses: int = 0
    memo_entries_after: int = 0
    stamp_restored: int = 0

    @property
    def disk_accesses(self) -> int:
        """Total disk accesses charged to the recovery (Table 2 metric)."""
        return self.io.counted_total


def _scan_leaves_counted(tree: RUMTree) -> Iterator[Node]:
    """Read every leaf through the buffer pool so the scan is charged."""
    stack = [tree.root_id]
    while stack:
        node = tree.buffer.get_node(stack.pop())
        if node.is_leaf:
            yield node
        else:
            stack.extend(e.child_id for e in node.entries)


class _IntermediateTable:
    """Per-object (max stamp, entry count) table used by Options I/II.

    Charges one auxiliary disk access per touch once it outgrows its memory
    budget — the spill behaviour that dominates Option I's recovery cost
    for large object populations.
    """

    def __init__(self, tree: RUMTree, memory_budget_entries: Optional[int]):
        self._tree = tree
        self._budget = memory_budget_entries
        self._table: Dict[int, Tuple[int, int]] = {}
        self.spill_accesses = 0

    def touch(self, oid: int, stamp: int) -> None:
        if self._budget is not None and len(self._table) > self._budget:
            # Read-modify-write of a spilled bucket page (amortised 1 I/O).
            self._tree.stats.index_reads += 1
            self.spill_accesses += 1
        old = self._table.get(oid)
        if old is None:
            self._table[oid] = (stamp, 1)
        else:
            max_stamp, count = old
            self._table[oid] = (max(max_stamp, stamp), count + 1)

    def items(self) -> Iterator[Tuple[int, Tuple[int, int]]]:
        return iter(self._table.items())


def recover_option_i(
    tree: RUMTree, memory_budget_entries: Optional[int] = None
) -> RecoveryReport:
    """Option I: full leaf scan, no log.

    ``memory_budget_entries`` models how many intermediate-table slots fit
    in main memory; ``None`` means the table always fits (small data sets).
    """
    before = tree.stats.snapshot()
    table = _IntermediateTable(tree, memory_budget_entries)
    scanned = 0
    max_stamp = 0
    for leaf in _scan_leaves_counted(tree):
        for entry in leaf.entries:
            table.touch(entry.oid, entry.stamp)
            if entry.stamp > max_stamp:
                max_stamp = entry.stamp
            scanned += 1
    memo_entries = [
        (oid, stamp, count - 1)
        for oid, (stamp, count) in table.items()
        if count > 1
    ]
    tree.memo.restore(iter(memo_entries))
    tree.stamps.restore(max_stamp + 1)
    return RecoveryReport(
        option="I",
        io=tree.stats.snapshot() - before,
        leaf_entries_scanned=scanned,
        spill_accesses=table.spill_accesses,
        memo_entries_after=len(tree.memo),
        stamp_restored=max_stamp + 1,
    )


def recover_option_ii(tree: RUMTree) -> RecoveryReport:
    """Option II: restore the checkpointed UM, replay newer leaf entries."""
    if tree.wal is None:
        raise ValueError("Option II recovery needs the write-ahead log")
    before = tree.stats.snapshot()
    checkpoint = tree.wal.last_checkpoint()
    if checkpoint is None:
        report = recover_option_i(tree)
        report.option = "II"
        return report
    # Option II reads only the checkpoint record itself — read_from()
    # would also bill the whole post-checkpoint log tail (memo-change
    # records an Option III logger may have appended) that this
    # procedure never replays.
    tree.wal.read_record(checkpoint)
    checkpoint_stamp, snapshot = checkpoint.payload
    tree.memo.restore(iter(snapshot))

    newer = []
    scanned = 0
    max_stamp = checkpoint_stamp - 1
    for leaf in _scan_leaves_counted(tree):
        for entry in leaf.entries:
            scanned += 1
            if entry.stamp >= checkpoint_stamp:
                newer.append((entry.stamp, entry.oid))
            if entry.stamp > max_stamp:
                max_stamp = entry.stamp
    for stamp, oid in sorted(newer):
        tree.memo.record_update(oid, stamp)
    restored = max(checkpoint_stamp, max_stamp + 1)
    tree.stamps.restore(restored)
    return RecoveryReport(
        option="II",
        io=tree.stats.snapshot() - before,
        leaf_entries_scanned=scanned,
        memo_entries_after=len(tree.memo),
        stamp_restored=restored,
    )


def recover_option_iii(tree: RUMTree) -> RecoveryReport:
    """Option III: restore the checkpoint and replay the memo-change log.

    **Torn batches.** Batched ingestion (``RUMTree.apply_batch``) logs a
    forced *stamp lease* before each batch, appends the batch's memo
    records unforced and forces them once at the batch end.  A crash
    inside the batch therefore leaves the lease durable but (part of)
    the records volatile, while the tree — durable on its own in this
    failure model — may already contain entries the batch inserted.  The
    pure log replay above cannot see those orphaned entries; when the
    lease's stamp range is not fully covered by durable memo records the
    recovery falls back to one leaf scan and merges physical ground
    truth with the durable log: an operation of the torn batch counts as
    applied iff its entry reached the tree or its memo record became
    durable.  The scan is paid only on a crash that lands inside an open
    batch — the no-scan fast path of the paper is unchanged otherwise.
    """
    if tree.wal is None:
        raise ValueError("Option III recovery needs the write-ahead log")
    before = tree.stats.snapshot()
    checkpoint = tree.wal.last_checkpoint()
    start_lsn = 0
    max_stamp = 0
    if checkpoint is not None:
        checkpoint_stamp, snapshot = checkpoint.payload
        tree.memo.restore(iter(snapshot))
        max_stamp = checkpoint_stamp - 1
        start_lsn = checkpoint.lsn
    else:
        tree.memo.restore(iter(()))
    replayed = 0
    max_lease = 0
    for record in tree.wal.read_from(start_lsn):
        if record.kind == "lease":
            max_lease = max(max_lease, record.payload)
            continue
        if record.kind != "memo":
            continue
        oid, stamp = record.payload
        tree.memo.record_update(oid, stamp)
        if stamp > max_stamp:
            max_stamp = stamp
        replayed += 1
    scanned = 0
    if max_lease - 1 > max_stamp:
        # Torn batch: stamps up to the lease ceiling may sit on durable
        # tree entries whose memo records died with the crash.
        scanned, scan_max = _merge_torn_batch_scan(tree)
        max_stamp = max(max_stamp, scan_max, max_lease - 1)
    tree.stamps.restore(max_stamp + 1)
    return RecoveryReport(
        option="III",
        io=tree.stats.snapshot() - before,
        log_records_replayed=replayed,
        leaf_entries_scanned=scanned,
        memo_entries_after=len(tree.memo),
        stamp_restored=max_stamp + 1,
    )


def _merge_torn_batch_scan(tree: RUMTree) -> Tuple[int, int]:
    """Reconcile the replayed memo with the tree's physical entries.

    For every object the authoritative latest version is whichever is
    newer of (a) the newest *physical* entry found by a full leaf scan
    — an orphan inserted by the torn batch counts as applied — and (b)
    the newest *logged* stamp already in the replayed memo — a durable
    record whose insertion never ran (or a durable delete) stays
    authoritative, hiding every physical entry.  ``N_old`` is recomputed
    from the physical count so the cleaner's accounting starts exact.
    Returns ``(entries scanned, highest physical stamp seen)``.
    """
    logged = {oid: s for oid, s, _n_old in tree.memo.snapshot()}
    physical: Dict[int, Tuple[int, int]] = {}
    scanned = 0
    scan_max = 0
    for leaf in _scan_leaves_counted(tree):
        for entry in leaf.entries:
            smax, count = physical.get(entry.oid, (-1, 0))
            physical[entry.oid] = (max(smax, entry.stamp), count + 1)
            if entry.stamp > scan_max:
                scan_max = entry.stamp
            scanned += 1
    merged = []
    for oid, (smax, count) in physical.items():
        logged_stamp = logged.get(oid, -1)
        if logged_stamp > smax:
            # Durable record newer than anything physical: every entry
            # of the object is obsolete (lost insert or a delete).
            merged.append((oid, logged_stamp, count))
        elif count > 1:
            merged.append((oid, smax, count - 1))
        # A single entry at the newest stamp needs no memo entry.
    tree.memo.restore(iter(merged))
    return scanned, scan_max


RECOVERY_PROCEDURES = {
    "I": recover_option_i,
    "II": recover_option_ii,
    "III": recover_option_iii,
}
