"""The RUM-tree: R-tree with Update Memo (Section 3).

The memo-based update approach reduces an update to a plain insertion: the
old entry is *not* located or deleted — it simply becomes obsolete, and the
Update Memo (:mod:`repro.core.memo`) remembers which entry of each object is
the latest.  Obsolete entries are physically removed later by the garbage
cleaner (:mod:`repro.core.cleaner`), either when a cleaning token visits
their leaf or for free when an insertion touches it (*clean-upon-touch*,
Section 3.3.3).

Queries run the ordinary R-tree search and then filter the raw answer set
through the memo (Figure 3b), so the tree always returns exactly the latest
values even though multiple entries per object coexist.

Logging for the three crash-recovery options of Section 3.4 is integrated
here; the recovery procedures themselves live in
:mod:`repro.core.recovery`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.explain import ExplainReport
    from repro.obs.metrics import Histogram

from repro.concurrency import racecheck
from repro.obs.metrics import UNPUBLISHED, republish
from repro.storage.buffer import BufferPool
from repro.storage.wal import WriteAheadLog

from repro.rtree.base import RTreeBase
from repro.rtree.geometry import Rect
from repro.rtree.node import LeafEntry, Node

from . import batch
from .batch import BatchResult
from .cleaner import MemoHost
from .memo import UpdateMemo
from .stamp import StampCounter

#: Recovery options of Section 3.4.
RECOVERY_NONE = "I"      # no log
RECOVERY_CHECKPOINT = "II"   # UM snapshot at checkpoints
RECOVERY_FULL_LOG = "III"    # checkpoints + every memo change

_RECOVERY_OPTIONS = (RECOVERY_NONE, RECOVERY_CHECKPOINT, RECOVERY_FULL_LOG)


class RUMTree(RTreeBase, MemoHost):
    """R-tree with Update Memo.

    Parameters
    ----------
    buffer:
        Storage stack; its codec must use the RUM leaf-entry layout
        (``NodeCodec(..., rum_leaves=True)``) so that stamps survive on
        disk — :func:`repro.factory.build_rum_tree` wires this up.
    inspection_ratio:
        ``ir`` of the garbage cleaner — leaf nodes inspected per update
        (Figure 10 sweeps 0–100%).  Together with ``n_tokens`` this fixes
        the token inspection interval ``I = n_tokens / ir``.
    n_tokens:
        Number of parallel cleaning tokens (Figure 7).
    clean_upon_touch:
        Also clean every leaf touched by an insertion, at zero extra I/O
        (Section 3.3.3).  This is the paper's "RUM-tree*touch*" variant;
        switching it off gives "RUM-tree*token*".
    stamp_counter:
        Optionally share a :class:`~repro.core.stamp.StampCounter` with
        other trees (the sharded serving layer passes one counter to all
        its shards so stamps are comparable across them); ``None`` gives
        the tree a private counter.
    recovery_option:
        ``None`` or one of ``"I"``, ``"II"``, ``"III"`` (Section 3.4).
        Options II/III require a :class:`WriteAheadLog`.
    checkpoint_interval:
        Updates between UM checkpoints for options II/III (the paper logs
        one checkpoint every 10,000 updates).
    """

    name = "RUM-tree"
    maintain_leaf_ring = True

    def __init__(
        self,
        buffer: BufferPool,
        *,
        inspection_ratio: float = 0.2,
        n_tokens: int = 1,
        clean_upon_touch: bool = True,
        memo: Optional[UpdateMemo] = None,
        stamp_counter: Optional[StampCounter] = None,
        recovery_option: Optional[str] = None,
        checkpoint_interval: int = 10_000,
        wal: Optional[WriteAheadLog] = None,
        **kwargs,
    ):
        if not buffer.codec.rum_leaves:
            raise ValueError(
                "RUMTree requires a codec with rum_leaves=True "
                "(leaf entries must carry oid and stamp)"
            )
        if recovery_option is not None:
            if recovery_option not in _RECOVERY_OPTIONS:
                raise ValueError(
                    f"unknown recovery option {recovery_option!r}"
                )
            if recovery_option != RECOVERY_NONE and wal is None:
                raise ValueError(
                    f"recovery option {recovery_option} needs a write-ahead log"
                )

        super().__init__(buffer, **kwargs)
        self._wire_memo(
            inspection_ratio,
            clean_upon_touch,
            memo=memo,
            stamp_counter=stamp_counter,
            n_tokens=n_tokens,
        )
        self.recovery_option = recovery_option
        self.checkpoint_interval = checkpoint_interval
        self.wal = wal
        # Mutated by every update path; serialised by the structure
        # latch like the rest of the tree's volatile state.
        self._updates_since_checkpoint = 0  # guarded-by: latch
        #: Batches, their ops, the ops dedup dropped, the leaf writes
        #: coalescing saved; the batch-size histogram attach_obs binds.
        self.batch_count = 0
        self.batch_op_count = 0
        self.batch_deduped = 0
        self.batch_coalesced_writes = 0
        self._obs_batch_published = UNPUBLISHED
        self._obs_batch_sizes: Optional["Histogram"] = None
        #: The ring successor of the leaf a cleaning step is working on
        #: (see :meth:`clean_at`).
        self._ring_successor: Optional[int] = None
        #: Above a run tier: page id -> the tier's ``version`` when a sweep
        #: last checked every slot of that leaf (see :meth:`clean_leaf`).
        self._settled: Dict[int, int] = {}  # guarded-by: latch

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Extend the base cascade to the memo, the cleaner, and the WAL."""
        super().attach_obs(obs)
        self.memo.attach_obs(obs)
        self.cleaner.attach_obs(obs)
        if self.wal is not None:
            self.wal.attach_obs(obs)
        # The flight recorder's per-op memo columns ride the memo's
        # unconditional probe tallies (the baselines leave the base
        # class's None in place and report zeros).  Only the RUM-tree
        # batches, so the batch row and its counts are published here.
        self._obs_batch_published = republish(self._obs_batch_published, obs, {
            "tree.batches": lambda: self.batch_count,
            "tree.batch_ops": lambda: self.batch_op_count,
            "tree.batch_deduped": lambda: self.batch_deduped,
            "tree.batch_coalesced_writes": lambda: self.batch_coalesced_writes,
        })
        self._obs_batch_sizes = None
        if obs is not None:
            self._obs_rec_memo = self.memo
            self._obs_kinds["update_batch"] = (None, None, None)
            self._obs_batch_sizes = obs.registry.histogram(
                "tree.batch_size", self._BATCH_BUCKETS
            )

    def _drift_update_predicted(self, tracker) -> float:
        """``IO_memo = 2(1 + ir)`` (Section 4.2.3) at the live cleaner's
        inspection ratio."""
        from repro.analysis.cost_model import expected_memo_update_io

        return expected_memo_update_io(self.cleaner.inspection_ratio)

    # ------------------------------------------------------------------
    # The write path: one body for every write (Figures 4 and 5)
    # ------------------------------------------------------------------

    #: "Inserts and updates are the same operation": both feed the
    #: update drift model.
    _INSERT_IS_UPDATE = True

    # holds: latch
    def _write(
        self, deletes: Sequence[int], upserts: Sequence[Tuple[int, Rect]]
    ) -> None:
        """The body every RUM-tree write runs (docs/BATCHING.md, "One
        write path"): MemoBasedDelete (Figure 5) per oid of ``deletes``,
        then MemoBasedInsert (Figure 4) per ``(oid, rect)`` of
        ``upserts``; a single write is a batch of one.  Under Option III
        one stamp's record is forced before its insert; two or more
        stamps get a forced stamp lease first (their entries reach the
        tree before their records are forced, and recovery must never
        reissue an orphan's stamp) and one closing force.  One buffer
        operation holds the write and the cleaner's credit; the memo
        spills at most once, when the spill hold closes, before the
        closing force and the leaf flush.
        """
        n = len(deletes) + len(upserts)
        full_log = self.recovery_option == RECOVERY_FULL_LOG
        leased = full_log and n > 1
        if leased:
            self.wal.append_stamp_lease(self.stamps.current + n)
        stamps, memo, wal = self.stamps, self.memo, self.wal
        watch = self._watch  # EXPLAIN's phases: memo | insert | clean
        with self.buffer.operation():
            with memo.defer_spills():
                for oid in deletes:
                    stamp = stamps.next()
                    memo.record_update(oid, stamp)
                    if full_log:
                        wal.append_memo_change(oid, stamp, not leased)
                for oid, rect in upserts:
                    stamp = stamps.next()
                    # The memo first: clean-upon-touch then sees the
                    # object's previous entry as obsolete.
                    memo.record_update(oid, stamp)
                    if full_log:
                        wal.append_memo_change(oid, stamp, not leased)
                    if watch is not None:
                        watch.end_phase()
                    self._insert(LeafEntry(rect, oid, stamp), 0, set())
                if watch is not None:
                    watch.end_phase()
                self.cleaner.on_batch(n)
            if leased:
                wal.force()
        self._accrue(n)

    def _accrue(self, n: int) -> None:  # holds: latch
        """Count ``n`` applied writes toward the next UM checkpoint
        (Options II and III) and write it when they reach the interval."""
        if not n or self.recovery_option not in (
            RECOVERY_CHECKPOINT, RECOVERY_FULL_LOG
        ):
            return
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "_updates_since_checkpoint", write=True)
        self._updates_since_checkpoint += n
        if self._updates_since_checkpoint >= self.checkpoint_interval:
            self.write_checkpoint()

    def _insert_body(self, oid: int, rect: Rect) -> None:
        self._write((), ((oid, rect),))

    def _update_body(
        self, oid: int, old_rect: Optional[Rect], new_rect: Rect
    ) -> None:
        """Memo-based update.  ``old_rect`` is ignored: *"The old value of
        the object being updated is not required"* (Section 3.2.1)."""
        self._write((), ((oid, new_rect),))

    def _delete_body(self, oid: int, old_rect: Optional[Rect]) -> None:
        self._write((oid,), ())

    def write_checkpoint(self) -> None:  # holds: latch
        """Log the UM and the stamp counter (recovery options II/III)."""
        if self.wal is None:
            raise RuntimeError("checkpointing requires a write-ahead log")
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "_updates_since_checkpoint", write=True)
        self.wal.append_checkpoint(self.memo.snapshot(), self.stamps.current)
        self._updates_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Batched ingestion (see repro.core.batch and docs/BATCHING.md)
    # ------------------------------------------------------------------

    #: Histogram bounds for ingestion batch sizes (powers of four).
    _BATCH_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)

    def apply_batch(self, ops: Iterable[Sequence]) -> BatchResult:
        """Apply a batch of ``("insert"|"update"|"delete", oid, ...)`` ops.

        The batch is deduplicated per oid (last write wins) and its
        surviving insertions are Z-ordered for locality; see
        :mod:`repro.core.batch` for the op format and
        :class:`~repro.core.batch.BatchResult` for the return value.
        """
        # Looked up on the module, so a tracer that wraps it is seen.
        plan = batch.plan_batch(ops)
        buffer = self.buffer
        marks, written = buffer.leaf_mark_count, buffer.write_back_count
        if self.obs is None:
            self._write(plan.deletes, plan.upserts)
        else:
            self._observed(
                "update_batch", self._write, plan.deletes, plan.upserts,
                ops=plan.total_ops, deduped=plan.deduped,
            )
            self._obs_batch_sizes.observe(float(plan.total_ops))
        result = BatchResult(
            plan,
            buffer.leaf_mark_count - marks,
            buffer.write_back_count - written,
        )
        self.batch_count += 1
        self.batch_op_count += plan.total_ops
        self.batch_deduped += plan.deduped
        self.batch_coalesced_writes += result.coalesced_writes
        return result

    # ------------------------------------------------------------------
    # Search (Figure 3b): raw R-tree answer set filtered through the memo
    # ------------------------------------------------------------------

    def search_rows(self, window: Rect, stamped: bool) -> List[tuple]:
        """:meth:`search` answered as flat rows ``(oid, x1, y1, x2, y2)``
        — or, ``stamped``, ``(oid, x1, y1, x2, y2, stamp)`` — in the
        shape a packed answer frame takes (:mod:`repro.serving.protocol`):
        the same query, counted, sampled and recorded as one."""
        return self._range_query(
            self._memo_filtered_search, window, stamped, True
        )

    # holds: latch
    def _memo_filtered_search(
        self, window: Rect, stamped: bool = False, flat: bool = False
    ) -> List[tuple]:
        """All live objects whose latest MBR intersects ``window``, as
        ``(oid, rect)`` pairs or, ``flat``, as the rows of
        :meth:`search_rows` (with the stamp when ``stamped``)."""
        filter_latest = self.memo.filter_latest
        tier = self.memo.tier
        marks = self._settled

        def collect(leaf: Node, hits: Sequence[int]) -> List[tuple]:
            # A raw hit stays two id words and four floats until the memo
            # has kept it: one CheckStatus pass per leaf, then a row per
            # survivor — no entry object for anything.
            oids, stamps = leaf.id_columns()
            kept = filter_latest(
                oids, stamps, hits,
                tier is not None and marks.get(leaf.page_id) == tier.version,
            )
            if flat:
                return leaf.rows_at(kept, oids, stamps if stamped else None)
            return [(oids[i], r) for i, r in zip(kept, leaf.rects_at(kept))]

        return self.range_search(window, collect)

    _search_body = _memo_filtered_search

    def _memo_filtered_knn(
        self, x: float, y: float, k: int, stamped: bool
    ) -> List[tuple]:
        """The ``k`` live objects nearest to ``(x, y)``, nearest first.

        Demonstrates that the memo filter composes with *any* R-tree query
        algorithm (Section 3.2.3): the incremental best-first stream of
        candidate entries is simply filtered through CheckStatus, pulling
        further candidates whenever an obsolete entry is skipped (ties at
        the ``k``-th distance go to the smaller oid, as in the base tree).
        """
        check_status = self.memo.check_status
        return self._nearest_rows(
            (
                (e, dist) for e, dist in self.iter_nearest(x, y)
                if check_status(e.oid, e.stamp) == "LATEST"
            ),
            k, stamped,
        )

    _knn_body = _memo_filtered_knn

    # ------------------------------------------------------------------
    # EXPLAIN/ANALYZE: the base reports plus the memo's side of the story
    # ------------------------------------------------------------------

    def _explain_filtered(self, explain, *args) -> "ExplainReport":
        """A base query report plus the Figure-3b filter's outcome: the
        filter probes the memo once per raw entry it inspects (the
        memo's own tally), and what it lets through is the answer.  The
        filter touches no pages, so the traversal's ``io_delta`` is
        still the whole cost of the query."""
        lookups = self.memo.lookup_count
        report = explain(*args)
        inspections = self.memo.lookup_count - lookups
        report.memo = {
            "inspections": inspections,
            "latest": report.results,
            "obsolete": inspections - report.results,
        }
        return report

    def explain_query(self, window: Rect) -> "ExplainReport":
        """ANALYZE one memo-filtered range query."""
        return self._explain_filtered(super().explain_query, window)

    def explain_knn(self, x: float, y: float, k: int) -> "ExplainReport":
        """ANALYZE one memo-filtered kNN query (Section 3.2.3)."""
        return self._explain_filtered(super().explain_knn, x, y, k)

    def explain_update(
        self, oid: int, new_rect: Rect, old_rect: Optional[Rect] = None
    ) -> "ExplainReport":
        """ANALYZE one memo-based update — **this mutates the tree**.

        ``old_rect`` is accepted for protocol compatibility and ignored
        (Section 3.2.1).  The real write body (:meth:`_write`, a batch of
        one) runs, split at the phase marks it makes into

        * ``memo``   — stamp bump + UM record (+ the Option III forced
          log write, the only phase I/O the memo side can charge);
        * ``insert`` — the single-path R* insertion of the new entry;
        * ``clean``  — the token cleaner steps driven by this update,
          then the write's one leaf flush (the insertion's pages too)
          and any spill or UM checkpoint that falls due.

        The visits are the ChooseSubtree descents the insertion really
        took (forced reinsertions included), each carrying the I/O of
        its fetch; the phases hold the rest, so the report reconciles.
        """
        report = self._explain_update(
            oid, None, new_rect, ("memo", "insert", "clean")
        )
        report.memo = {"stamp": self.stamps.current}
        return report

    # ------------------------------------------------------------------
    # Cleaning integration (the MemoHost side of the tree)
    # ------------------------------------------------------------------

    # holds: latch
    def clean_leaf(
        self, leaf: Node, keep_at_least: int = 0,
        left: Optional[List[LeafEntry]] = None,
    ) -> int:
        """Remove obsolete entries from ``leaf`` (Figure 8, step 1).

        ``keep_at_least`` stops the sweep early so opportunistic cleaning
        (clean-upon-touch, clean-on-split) never underflows a node in the
        middle of another structural operation.  Returns the number of
        entries removed, and appends them to ``left`` if given; the caller
        owns MBR adjustment / condensation and needs to know what left.

        Above a run tier a sweep that checks every slot marks the leaf
        *settled* at the tier's ``version``: it then holds no obsolete
        entry, and until the run set changes an entry of it can only turn
        obsolete through ``record_update``, which leaves its oid in RAM —
        so the next sweep or query filter of the leaf answers a RAM miss
        as LATEST without a run probe (docs/MEMO.md, "Settled leaves").
        A sweep stopped by its budget drops the mark.
        """
        budget = len(leaf) - keep_at_least
        if budget <= 0:
            return 0
        # A lazily decoded leaf answers both ends on its page image, so a
        # sweep that finds nothing decodes nothing.
        oids, stamps = leaf.id_columns()
        tier = self.memo.tier
        if tier is None:
            slots = self.memo.sweep_obsolete(oids, stamps, budget)
        else:
            marks = self._settled
            page = leaf.page_id
            slots = self.memo.sweep_obsolete(
                oids, stamps, budget, marks.get(page) == tier.version
            )
            if len(slots) < budget:
                marks[page] = tier.version
            else:
                marks.pop(page, None)
        if slots:
            if left is not None:
                left.extend(leaf.take(slots))
            leaf.drop_slots(slots)
            self.buffer.mark_dirty(leaf)
        return len(slots)

    def _on_entry_placed(self, node: Node, entry: LeafEntry) -> List[LeafEntry]:
        left: List[LeafEntry] = []
        # Clean-upon-touch (Section 3.3.3): the leaf is already being read
        # and written by this insertion, so sweeping it costs no extra I/O.
        # Leave at least min_leaf entries so the insertion path never has
        # to handle an underflow it did not cause.
        if self.clean_upon_touch and self.clean_leaf(node, self.min_leaf, left):
            self.cleaner.note_removed(len(left))
        return left

    def _on_leaf_split(self, node: Node, sibling: Node) -> None:
        # A split inserts the new sibling right after the original in the
        # leaf ring, so obsolete entries distributed to the sibling can
        # land *behind* a cleaning token and survive the current ring
        # cycle.  Lemma 1 would then wrongly classify their memo entries
        # as phantoms and purging them would resurrect stale versions.
        # Telling the cleaner to shield those oids from the next phantom
        # purge keeps the purge sound while preserving the paper's split
        # behaviour (garbage moves with the entries; only the cleaner
        # removes it).
        if self.clean_upon_touch:
            # Touch-mode bonus: both halves are in memory — sweep them for
            # free (never below the post-split minimum fill).
            removed = self.clean_leaf(node, keep_at_least=self.min_leaf)
            removed += self.clean_leaf(sibling, keep_at_least=self.min_leaf)
            self.cleaner.note_removed(removed)
        self._shield_obsolete(*sibling.id_columns())

    def _on_leaf_dissolved(self, node: Node) -> None:  # holds: latch
        # The page may come back as a split's new sibling.
        self._settled.pop(node.page_id, None)
        if node.page_id == self._ring_successor:
            self._ring_successor = node.next_leaf
        self.cleaner.on_leaf_dissolved(
            node.page_id, node.next_leaf, node.prev_leaf
        )

    def leaf_ring(self) -> List[int]:
        """The leaf ring as a page-id list (no I/O charged: the walk uses
        the uncounted introspection path)."""
        first = next(self.iter_leaf_nodes()).page_id
        pages = [first]
        node = self.buffer.peek_node(first)
        while node.next_leaf != first:
            pages.append(node.next_leaf)
            node = self.buffer.peek_node(node.next_leaf)
        return pages

    def clean_at(self, position: int) -> Tuple[int, int]:
        """One cleaning step on the leaf at page ``position`` (Figure 8)."""
        with self.buffer.operation():
            leaf = self.buffer.get_node(position)
            # Named before the tree is mutated: if the cleaning dissolves
            # the successor leaf too, the dissolution hook moves it on.
            self._ring_successor = leaf.next_leaf
            left: List[LeafEntry] = []
            removed = self.clean_leaf(leaf, left=left)
            if removed:
                if len(leaf) < self.min_leaf and position != self.root_id:
                    # Underflow: dissolve the leaf and reinsert the
                    # survivors (step 2 of Figure 8).  The dissolution hook
                    # re-homes any token parked on this page.
                    self._condense(leaf)
                else:
                    self._adjust_upward(leaf, left=left)
        return self._ring_successor, removed

    def _stored_ids(self) -> Iterator[Tuple[int, int]]:
        return ((e.oid, e.stamp) for e in self.iter_leaf_entries())

    def _insert(self, entry, level: int, reinserted: Set[int]):
        # Reinserted obsolete entries (leaf condensation, forced reinsert)
        # are dropped instead of re-entering the tree: physically removing
        # them here is free and keeps them from landing behind a token.
        if (
            level == 0
            and isinstance(entry, LeafEntry)
            and self.memo.is_obsolete(entry.oid, entry.stamp)
        ):
            self.memo.note_cleaned(entry.oid)
            self.cleaner.note_removed(1)
            return None
        return super()._insert(entry, level, reinserted)

    # ------------------------------------------------------------------
    # Crash simulation (Section 3.4)
    # ------------------------------------------------------------------

    def crash(self) -> None:  # holds: latch
        """Lose every volatile structure; the on-disk tree survives.

        The buffer is flushed first: the failure model of Section 3.4 is
        that *"UM is in main-memory ... when the system crashes, the data
        in UM is lost"* — the tree itself is durable.
        """
        self.buffer.flush()
        self.buffer.drop_volatile()
        self.memo.restore([])
        self.stamps.restore(0)
        self.cleaner.reset()
        self._settled.clear()
        self._updates_since_checkpoint = 0
