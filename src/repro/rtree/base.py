"""Disk-based R-tree with R* insertion — the common substrate.

All three trees of the paper's evaluation (R*-tree, FUR-tree, RUM-tree) are
built on this class.  It implements:

* R* ChooseSubtree (overlap-minimising at the leaf-parent level, with the
  usual candidate-list optimisation) and the R* topological split with
  forced reinsertion;
* top-down deletion with Guttman's CondenseTree (underflowing nodes are
  dissolved and their entries reinserted);
* windowed range search;
* the doubly-linked circular **leaf ring** needed by the RUM-tree's
  cleaning tokens (Section 3.3.1), maintained through splits and condenses;
* an in-memory **parent directory** enabling bottom-up MBR adjustment (the
  RUM-tree cleaner and the FUR-tree both need to walk upwards from a leaf).

Every public operation wraps its page accesses in one buffer-pool operation
so that I/O is charged per the paper's model: each distinct leaf page costs
at most one read and one write per logical operation, internal nodes are
free (cached).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import kernels
from repro.concurrency.locks import ReadWriteLock
from repro.storage.buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrency.racecheck import RaceChecker
    from repro.core.batch import BatchPlan, BatchResult
    from repro.obs import Observability
    from repro.obs.explain import ExplainReport

from .geometry import Rect
from .node import IndexEntry, LeafEntry, Node
from .split import choose_reinsert_entries, quadratic_split, rstar_split

#: Hot-path marker for lint rule REP009: bulk MBR predicates in this module
#: must go through :mod:`repro.kernels` (see docs/LINT.md).
HOT_PATH = True

SplitFunction = Callable[[Sequence, int], Tuple[list, list]]

#: Consecutive mutation-free range searches before a query mirror is built.
#: Hysteresis: mixed update/query phases never pay the build walk, while a
#: query burst (the paper's range-query experiments) amortises one build
#: over hundreds of windows.  The wait adapts: a mirror invalidated before
#: it served as many queries as it waited for doubles the next wait, one
#: that paid off resets it to this value (counts, not clocks).
MIRROR_QUERY_STREAK = 16

#: Capture sampling (``RTreeBase._obs_query_end`` / ``_obs_update_end``).
#: A sampled operation completing faster than the threshold doubles the
#: capture stride (up to the cap); a slow one resets it to 1.  Steady
#: state thus converges to one full capture per ``_OBS_QUERY_STRIDE_MAX``
#: operations, keeping the metrics-level overhead on microsecond-scale
#: operations inside the bench_micro budget, while any latency
#: regression snaps sampling back to full fidelity within one stride.
_OBS_QUERY_FAST_S = 1e-3
_OBS_QUERY_STRIDE_MAX = 256

_SPLIT_FUNCTIONS: Dict[str, SplitFunction] = {
    "rstar": rstar_split,
    "quadratic": quadratic_split,
}


class RTreeBase:
    """Height-balanced R-tree over a :class:`BufferPool`.

    Parameters
    ----------
    buffer:
        The storage stack (disk + codec + counters) this tree lives on.
    split:
        ``"rstar"`` (default) or ``"quadratic"``.
    forced_reinsert:
        Enable R* forced reinsertion on first overflow per level per
        operation (default on; the ablation benches switch it off).
    min_fill:
        Minimum node occupancy as a fraction of capacity (R* default 0.4).
    maintain_leaf_ring:
        Keep the circular doubly-linked leaf list up to date.  The RUM-tree
        needs it for cleaning tokens; the baselines leave it off to avoid
        charging them the ring-maintenance writes.
    choose_subtree_candidates:
        Size of the candidate list for the R* overlap-minimising
        ChooseSubtree at the leaf-parent level.
    attach:
        Adopt an existing on-disk tree instead of creating a fresh root:
        a dict with ``root_id``, ``height``, and ``parent`` (the parent
        directory).  Used by :mod:`repro.persistence` to re-open saved
        indexes.
    """

    def __init__(
        self,
        buffer: BufferPool,
        *,
        split: str = "rstar",
        forced_reinsert: bool = True,
        min_fill: float = 0.4,
        maintain_leaf_ring: bool = False,
        choose_subtree_candidates: int = 8,
        attach: Optional[Dict] = None,
    ):
        if split not in _SPLIT_FUNCTIONS:
            raise ValueError(f"unknown split policy {split!r}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.buffer = buffer
        self.stats = buffer.stats
        self.split_fn: SplitFunction = _SPLIT_FUNCTIONS[split]
        self.forced_reinsert = forced_reinsert
        self.maintain_leaf_ring = maintain_leaf_ring
        self.choose_subtree_candidates = choose_subtree_candidates

        codec = buffer.codec
        self.leaf_cap = codec.leaf_cap
        self.index_cap = codec.index_cap
        self.min_leaf = max(2, min(int(self.leaf_cap * min_fill),
                                   self.leaf_cap // 2))
        self.min_index = max(2, min(int(self.index_cap * min_fill),
                                    self.index_cap // 2))

        #: child page id -> parent page id (root has no entry).
        self.parent: Dict[int, int] = {}

        #: Structure latch: writers (update / batch / clean) take it in
        #: write mode, range queries in read mode.  The concurrency
        #: harness (Section 3.5) serialises structural mutation behind
        #: it *after* acquiring granule locks — granule locks order
        #: strictly before the latch (see docs/CONCURRENCY.md).
        self.latch = ReadWriteLock()

        #: Eraser race detector handle (None = disabled, the default).
        self._rc: Optional["RaceChecker"] = None

        #: Query mirror state (see :mod:`repro.rtree.mirror`).  The mirror
        #: is valid only while its captured buffer version matches; the
        #: streak counts consecutive range searches at one version.
        self._mirror = None
        self._mirror_streak = 0
        self._mirror_streak_version = -1
        self._mirror_wait = MIRROR_QUERY_STREAK
        self._mirror_served = 0

        #: Observability handle (None = disabled).  The protocol entry
        #: points (update/query/kNN) guard on it, so the un-instrumented
        #: path costs one attribute load and a None check.
        self.obs: Optional["Observability"] = None
        self._obs_c_updates = None
        self._obs_c_queries = None
        self._obs_c_knn = None
        self._obs_h_update_io = None
        self._obs_h_query_io = None
        self._obs_c_batches = None
        self._obs_c_batch_ops = None
        self._obs_c_batch_deduped = None
        self._obs_c_batch_coalesced = None
        self._obs_h_batch_size = None
        #: Flight-recorder / drift instruments, bound in attach_obs.  The
        #: memo reference is populated by the RUM subclass (the baselines
        #: have no memo) so per-op memo lookup/hit deltas — read off the
        #: memo's unconditional plain-int tallies — ride every recorder
        #: record.
        self._obs_recorder = None
        self._obs_rec_memo = None
        self._obs_drift = None
        self._obs_drift_update = None
        self._obs_drift_query = None
        #: Capture-sampling state (see ``_obs_query_end`` and
        #: ``_obs_update_end``): every operation is counted, but only
        #: every ``stride``-th pays the full recorder/drift capture.
        #: The ``tick`` fields count down the ops remaining until the
        #: next sampled one.
        self._obs_qtick = 0
        self._obs_qstride = 1
        self._obs_utick = 0
        self._obs_ustride = 1
        #: Serving decision of the most recent range_search ("mirror" vs
        #: "traversal"); one boolean store per query on every path so the
        #: obs A/B comparison is unaffected.
        self._served_by_mirror = False

        if attach is not None:
            self.root_id = attach["root_id"]
            self.height = attach["height"]
            self.parent = dict(attach["parent"])
        else:
            with buffer.operation():
                root = buffer.new_node(is_leaf=True)
                root.prev_leaf = root.page_id
                root.next_leaf = root.page_id
            self.root_id = root.page_id
            self.height = 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    #: Histogram bounds for per-operation leaf I/O (operations cost a
    #: handful of page accesses; the tail catches pathological queries).
    _IO_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 128.0)

    #: Histogram bounds for ingestion batch sizes (powers of four).
    _BATCH_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Attach observability to this tree and its whole storage stack.

        Cascades to the buffer pool (and through it, the disk manager);
        subclasses extend the cascade to the memo, the cleaner, the WAL,
        or the secondary index.  Passing ``None`` — or an instance at
        level ``off`` — detaches everything.
        """
        enabled = obs is not None and obs.enabled
        self.obs = obs if enabled else None
        self.buffer.attach_obs(obs if enabled else None)
        if enabled and obs.metrics_on:
            reg = obs.registry
            self._obs_c_updates = reg.counter("tree.updates")
            self._obs_c_queries = reg.counter("tree.queries")
            self._obs_c_knn = reg.counter("tree.knn_queries")
            self._obs_h_update_io = reg.histogram(
                "tree.update_leaf_io", self._IO_BUCKETS
            )
            self._obs_h_query_io = reg.histogram(
                "tree.query_leaf_io", self._IO_BUCKETS
            )
            reg.gauge("tree.height").set_function(lambda: self.height)
            self._obs_c_batches = reg.counter("tree.batches")
            self._obs_c_batch_ops = reg.counter("tree.batch_ops")
            self._obs_c_batch_deduped = reg.counter("tree.batch_deduped")
            self._obs_c_batch_coalesced = reg.counter(
                "tree.batch_coalesced_writes"
            )
            self._obs_h_batch_size = reg.histogram(
                "tree.batch_size", self._BATCH_BUCKETS
            )
            # Flight recorder + drift monitor (always on at metrics and
            # above; the hot path reaches them only through these bound
            # references — lint rule REP010).
            self._obs_recorder = obs.recorder
            from repro.obs.drift import DriftMonitor

            self._obs_drift = DriftMonitor(reg)
            self._obs_drift_update = self._obs_drift.track(
                "update", self._drift_update_predicted
            )
            self._obs_drift_query = self._obs_drift.track(
                "query", self._drift_query_predicted
            )
            self._obs_qtick = 0
            self._obs_qstride = 1
            self._obs_utick = 0
            self._obs_ustride = 1
        else:
            # Queries skipped since the last sampled one have not been
            # counted yet; settle the balance before dropping the counter.
            # (Updates need no settlement: their counter and histogram
            # are exact per-op on the unsampled path too.)
            pending = self._obs_qstride - 1 - self._obs_qtick
            if pending > 0 and self._obs_c_queries is not None:
                self._obs_c_queries.inc(pending)
            self._obs_qtick = 0
            self._obs_qstride = 1
            self._obs_utick = 0
            self._obs_ustride = 1
            self._obs_c_updates = self._obs_c_queries = None
            self._obs_c_knn = None
            self._obs_h_update_io = self._obs_h_query_io = None
            self._obs_c_batches = self._obs_c_batch_ops = None
            self._obs_c_batch_deduped = None
            self._obs_c_batch_coalesced = None
            self._obs_h_batch_size = None
            self._obs_recorder = None
            self._obs_rec_memo = None
            self._obs_drift = None
            self._obs_drift_update = self._obs_drift_query = None

    def attach_racecheck(self, checker: Optional["RaceChecker"]) -> None:
        """Attach the Eraser race detector to the tree and its storage.

        Mirrors :meth:`attach_obs`: cascades to the buffer pool, and
        subclasses extend the cascade (memo, stamp counter).  Passing
        ``None`` detaches everywhere, restoring the probe-free path.
        """
        self._rc = checker
        self.buffer.attach_racecheck(checker)

    # -- per-operation capture (flight recorder + drift feed) --------------

    def _obs_op_begin(self):
        """Capture the op's starting state; cheap by design.

        Called only on the enabled path (``self.obs`` is not ``None``
        implies ``metrics_on``, so the recorder is bound).  Raw counter
        reads instead of ``stats.snapshot()`` keep the per-op cost to a
        ``perf_counter`` call plus attribute loads.
        """
        s = self.stats
        m = self._obs_rec_memo
        return (
            time.perf_counter(),
            s.leaf_reads,
            s.leaf_writes,
            s.internal_reads,
            s.internal_writes,
            s.index_reads,
            s.index_writes,
            s.log_writes,
            s.log_reads,
            s.memo_reads,
            s.memo_writes,
            0 if m is None else m.lookup_count,
            0 if m is None else m.hit_count,
        )

    def _obs_op_end(
        self, begin, kind, counter, histogram, tracker, served="-",
        window=None,
    ) -> None:
        """Account one finished operation (enabled path only).

        Feeds the op counter, the per-op leaf-I/O histogram, the flight
        recorder, and — for update/query — the drift monitor's measured
        EWMA.  The I/O delta is computed once from the raw counters
        captured by :meth:`_obs_op_begin`.
        """
        s = self.stats
        dur_s = time.perf_counter() - begin[0]
        io10 = (
            s.leaf_reads - begin[1],
            s.leaf_writes - begin[2],
            s.internal_reads - begin[3],
            s.internal_writes - begin[4],
            s.index_reads - begin[5],
            s.index_writes - begin[6],
            s.log_writes - begin[7],
            s.log_reads - begin[8],
            s.memo_reads - begin[9],
            s.memo_writes - begin[10],
        )
        if counter is not None:
            counter.value += 1
        if histogram is not None:
            # Inlined Histogram.observe — this runs once per update, and
            # the method-call overhead is measurable against the <2%
            # metrics-level budget enforced by bench_micro.
            leaf_io = io10[0] + io10[1]
            histogram.counts[bisect_left(histogram.buckets, leaf_io)] += 1
            histogram.count += 1
            histogram.total += leaf_io
        m = self._obs_rec_memo
        self._obs_recorder.record(
            kind,
            self.name,
            dur_s,
            io10,
            0 if m is None else m.lookup_count - begin[11],
            0 if m is None else m.hit_count - begin[12],
            served,
        )
        if tracker is not None:
            if window is not None:
                tracker.observe_window(
                    window.xmax - window.xmin, window.ymax - window.ymin
                )
            # Counted I/O per the paper's model: leaf + index + log + memo.
            tracker.observe(
                io10[0] + io10[1] + io10[4] + io10[5] + io10[6] + io10[7]
                + io10[8] + io10[9]
            )

    def _obs_query_end(self, begin, window) -> None:
        """Account one *sampled* range query.

        Queries are the only operation class fast enough (microseconds at
        mirror steady state) that full per-op capture breaks the <2%
        metrics-level overhead budget, so the search wrappers count down
        ``_obs_qtick`` and only every ``_obs_qstride``-th query lands
        here.  The counter increment covers this query plus the skipped
        ones, so ``tree.queries`` is exact at every sample boundary (and
        at detach, which settles the remainder); histogram, recorder and
        drift feeds see the sampled queries only.  At ``trace`` level the
        stride never widens, so every query is recorded.
        """
        s = self.stats
        dur_s = time.perf_counter() - begin[0]
        io10 = (
            s.leaf_reads - begin[1],
            s.leaf_writes - begin[2],
            s.internal_reads - begin[3],
            s.internal_writes - begin[4],
            s.index_reads - begin[5],
            s.index_writes - begin[6],
            s.log_writes - begin[7],
            s.log_reads - begin[8],
            s.memo_reads - begin[9],
            s.memo_writes - begin[10],
        )
        stride = self._obs_qstride
        self._obs_c_queries.value += stride
        hist = self._obs_h_query_io
        leaf_io = io10[0] + io10[1]
        hist.counts[bisect_left(hist.buckets, leaf_io)] += 1
        hist.count += 1
        hist.total += leaf_io
        m = self._obs_rec_memo
        self._obs_recorder.record(
            "query",
            self.name,
            dur_s,
            io10,
            0 if m is None else m.lookup_count - begin[11],
            0 if m is None else m.hit_count - begin[12],
            "mirror" if self._served_by_mirror else "traversal",
        )
        tracker = self._obs_drift_query
        tracker.observe_window(
            window.xmax - window.xmin, window.ymax - window.ymin
        )
        tracker.observe(
            io10[0] + io10[1] + io10[4] + io10[5] + io10[6] + io10[7]
            + io10[8] + io10[9]
        )
        if self.obs.tracing:
            return
        if dur_s < _OBS_QUERY_FAST_S:
            if stride < _OBS_QUERY_STRIDE_MAX:
                stride *= 2
                self._obs_qstride = stride
        elif stride != 1:
            stride = 1
            self._obs_qstride = 1
        self._obs_qtick = stride - 1

    def _obs_update_lite(self, lio0) -> None:
        """Account one *unsampled* update: counter + leaf-I/O histogram.

        Unlike queries, the update counter and histogram stay exact on
        every operation — both are pure I/O accounting that needs no
        clock and touches three small hot objects, so the per-op cost is
        a few hundred nanoseconds.  What the unsampled path skips is the
        expensive capture: ``perf_counter`` calls, the 10-field I/O
        delta, the flight-recorder record, and the drift EWMA feed,
        whose working set is large enough that paying it every update
        breaks the <2% metrics-level budget (``bench_micro`` A/B).
        ``lio0`` is ``stats.leaf_reads + stats.leaf_writes`` captured by
        the wrapper before the operation body ran.
        """
        s = self.stats
        self._obs_c_updates.value += 1
        h = self._obs_h_update_io
        v = s.leaf_reads + s.leaf_writes - lio0
        h.counts[bisect_left(h.buckets, v)] += 1
        h.count += 1
        h.total += v

    def _obs_update_end(self, begin) -> None:
        """Account one *sampled* update (full capture + stride control).

        Mirrors :meth:`_obs_query_end`: every ``_obs_ustride``-th update
        lands here and feeds the recorder, the drift monitor, and the
        exact counter/histogram; the ops in between go through
        :meth:`_obs_update_lite`.  A sampled update faster than
        ``_OBS_QUERY_FAST_S`` doubles the stride (slow-op detection and
        recorder coverage degrade gracefully to one op in
        ``_OBS_QUERY_STRIDE_MAX``); a slow one resets it, and at
        ``trace`` level the stride never widens so every update is
        recorded.
        """
        s = self.stats
        dur_s = time.perf_counter() - begin[0]
        io10 = (
            s.leaf_reads - begin[1],
            s.leaf_writes - begin[2],
            s.internal_reads - begin[3],
            s.internal_writes - begin[4],
            s.index_reads - begin[5],
            s.index_writes - begin[6],
            s.log_writes - begin[7],
            s.log_reads - begin[8],
            s.memo_reads - begin[9],
            s.memo_writes - begin[10],
        )
        self._obs_c_updates.value += 1
        hist = self._obs_h_update_io
        leaf_io = io10[0] + io10[1]
        hist.counts[bisect_left(hist.buckets, leaf_io)] += 1
        hist.count += 1
        hist.total += leaf_io
        m = self._obs_rec_memo
        self._obs_recorder.record(
            "update",
            self.name,
            dur_s,
            io10,
            0 if m is None else m.lookup_count - begin[11],
            0 if m is None else m.hit_count - begin[12],
            "-",
        )
        tracker = self._obs_drift_update
        if tracker is not None:
            tracker.observe(
                io10[0] + io10[1] + io10[4] + io10[5] + io10[6] + io10[7]
                + io10[8] + io10[9]
            )
        stride = self._obs_ustride
        if self.obs.tracing:
            return
        if dur_s < _OBS_QUERY_FAST_S:
            if stride < _OBS_QUERY_STRIDE_MAX:
                stride *= 2
                self._obs_ustride = stride
        elif stride != 1:
            stride = 1
            self._obs_ustride = 1
        self._obs_utick = stride - 1

    # -- drift predictors (overridden per tree type) -----------------------

    def _drift_update_predicted(self, tracker) -> float:
        """Model-expected counted I/O per update at current tree state.

        Base trees update top-down (Section 4.2.1); subclasses override
        with their own closed forms.  Evaluated lazily at gauge read, so
        the O(leaves) MBR walk never runs on the update path.
        """
        from repro.analysis.cost_model import expected_topdown_update_io

        return expected_topdown_update_io(self.leaf_mbr_sides())

    def _drift_query_predicted(self, tracker) -> float:
        """Model-expected leaf reads per range query, evaluated at the
        workload's observed (EWMA) window extents."""
        from repro.analysis.cost_model import expected_query_leaf_io

        if tracker.window_samples == 0:
            return 0.0
        return expected_query_leaf_io(
            self.leaf_mbr_sides(), tracker.window_w, tracker.window_h
        )

    def drift_report(self) -> List[Dict[str, object]]:
        """Cost-model drift rows of this tree — one dict per tracked op
        class (see :class:`repro.obs.drift.DriftMonitor`); empty when
        observability is off."""
        if self._obs_drift is None:
            return []
        return [dict(row) for row in self._obs_drift.rows()]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, oid: int, stamp: int = 0) -> None:
        """Insert one object entry (1 leaf read + 1 leaf write typically)."""
        with self.buffer.operation():
            self._insert(LeafEntry(rect, oid, stamp), 0, set())

    def _insert(self, entry, level: int, reinserted: Set[int]) -> Node:
        """Insert ``entry`` into some node at ``level``; returns that node."""
        node = self._choose_node(entry.rect, level)
        node.add_entry(entry)
        if not node.is_leaf:
            self.parent[entry.child_id] = node.page_id
        self.buffer.mark_dirty(node)
        if node.is_leaf:
            self._on_entry_placed(node, entry)
        self._adjust_upward(node)
        self._handle_overflow(node, level, reinserted)
        return node

    def _on_entry_placed(self, node: Node, entry: LeafEntry) -> None:
        """Hook: ``entry`` was just placed into leaf ``node``.

        Called *before* overflow handling, so a subclass tracking entry
        locations (the FUR-tree's secondary index) sees relocations caused
        by splits/reinserts afterwards and ends up with the final leaf.
        """

    # ------------------------------------------------------------------
    # Batched ingestion (generic fallback)
    # ------------------------------------------------------------------

    def apply_batch(self, ops: Iterable[Sequence]) -> "BatchResult":
        """Apply a batch of ``("insert"|"update"|"delete", oid, ...)`` ops.

        Generic fallback shared by the baselines for like-for-like
        comparison with the RUM-tree's memo-native override: the batch is
        deduplicated per oid (last write wins), the surviving insertions
        are Z-ordered for locality, and everything runs inside one
        buffer batch scope so repeat leaf touches coalesce into a single
        ordered writeback.  The per-operation *structural* work — a
        top-down delete per update, here — is unchanged; only the
        plumbing is amortised.  See :mod:`repro.core.batch` for the op
        format and :class:`~repro.core.batch.BatchResult` for the return
        value.
        """
        from repro.core.batch import plan_batch

        plan = plan_batch(ops)
        obs = self.obs
        if obs is None:
            return self._apply_batch_plan(plan)
        begin = self._obs_op_begin()
        if obs.tracing:
            with obs.span(
                "update_batch", io=self.stats, tree=self.name,
                ops=plan.total_ops, deduped=plan.deduped,
            ):
                result = self._apply_batch_plan(plan)
        else:
            result = self._apply_batch_plan(plan)
        self._obs_record_batch(result)
        self._obs_op_end(begin, "batch", None, None, None)
        return result

    def _apply_batch_plan(self, plan: "BatchPlan") -> "BatchResult":
        """Sequentially replay a batch plan inside one batch scope."""
        from repro.core.batch import BatchResult

        with self.buffer.batch_scope() as scope:
            for d in plan.deletes:
                self.delete_object(d.oid, d.old_rect)
            for u in plan.upserts:
                if u.old_rect is None:
                    self.insert_object(u.oid, u.rect)
                else:
                    self.update_object(u.oid, u.old_rect, u.rect)
        return BatchResult(
            total_ops=plan.total_ops,
            applied=plan.surviving,
            deduped=plan.deduped,
            inserts=len(plan.upserts),
            deletes=len(plan.deletes),
            write_marks=scope.write_marks,
            pages_written=scope.pages_written,
        )

    def _obs_record_batch(self, result: "BatchResult") -> None:
        """Account one finished batch (enabled path only)."""
        if self._obs_c_batches is not None:
            self._obs_c_batches.inc()
            self._obs_c_batch_ops.inc(result.total_ops)
            self._obs_c_batch_deduped.inc(result.deduped)
            self._obs_c_batch_coalesced.inc(result.coalesced_writes)
            self._obs_h_batch_size.observe(float(result.total_ops))

    def _choose_node(self, rect: Rect, level: int) -> Node:
        """Descend from the root to a node at ``level`` (leaves = level 0)."""
        if level >= self.height:
            raise ValueError(
                f"target level {level} but tree height is {self.height}"
            )
        node = self.buffer.get_node(self.root_id)
        current = self.height - 1
        while current > level:
            idx = self._choose_child_index(node, rect, current == 1)
            node = self.buffer.get_node(node.entries[idx].child_id)
            current -= 1
        return node

    def _choose_child_index(
        self, node: Node, rect: Rect, leaf_children: bool
    ) -> int:
        """R* ChooseSubtree.

        At the level directly above the leaves the R*-tree minimises
        *overlap enlargement* over a candidate list of least-enlargement
        children; everywhere else it minimises area enlargement (ties by
        area).
        """
        n = len(node.entries)
        if n == 1:
            return 0
        rx1, ry1, rx2, ry2 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        block = node.coord_block()
        least = kernels.least_enlargement(block, rx1, ry1, rx2, ry2)
        if not leaf_children or least[0] == 0.0:
            # Above the leaf parents least enlargement decides.  At the
            # leaf parents a child the new rect fits without growing
            # cannot increase any overlap, so (overlap-delta, enlargement,
            # area) is already minimal for the least-area such child.
            return least[2]
        enls, node_areas = kernels.enlargements(block, rx1, ry1, rx2, ry2)
        ranked = sorted(zip(enls, node_areas, range(n)))
        candidates = ranked[: self.choose_subtree_candidates]
        best_idx = candidates[0][2]
        best_key: Optional[Tuple[float, float, float]] = None
        for enlargement, area, i in candidates:
            ex1, ey1, ex2, ey2 = kernels.block_get(block, i)
            nx1 = ex1 if ex1 < rx1 else rx1
            ny1 = ey1 if ey1 < ry1 else ry1
            nx2 = ex2 if ex2 > rx2 else rx2
            ny2 = ey2 if ey2 > ry2 else ry2
            overlap_delta = kernels.overlap_delta(
                block, i, nx1, ny1, nx2, ny2
            )
            key = (overlap_delta, enlargement, area)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        return best_idx

    def _handle_overflow(
        self, node: Node, level: int, reinserted: Set[int]
    ) -> None:
        cap = self.leaf_cap if node.is_leaf else self.index_cap
        if len(node) <= cap:
            return
        if (
            self.forced_reinsert
            and level not in reinserted
            and node.page_id != self.root_id
        ):
            reinserted.add(level)
            keep, evicted = choose_reinsert_entries(node.entries)
            node.entries = keep
            self.buffer.mark_dirty(node)
            self._adjust_upward(node)
            for entry in evicted:
                self._insert(entry, level, reinserted)
        else:
            self._split_node(node, level, reinserted)

    def _split_node(
        self, node: Node, level: int, reinserted: Set[int]
    ) -> Node:
        """Split an overflowing node; returns the new sibling."""
        min_entries = self.min_leaf if node.is_leaf else self.min_index
        left, right = self.split_fn(node.entries, min_entries)
        node.entries = left
        sibling = self.buffer.new_node(node.is_leaf)
        sibling.entries = right
        self.buffer.mark_dirty(node)
        self.buffer.mark_dirty(sibling)
        if node.is_leaf:
            if self.maintain_leaf_ring:
                self._link_leaf_after(node, sibling)
            self._on_leaf_split(node, sibling)
        else:
            for entry in right:
                self.parent[entry.child_id] = sibling.page_id

        if node.page_id == self.root_id:
            new_root = self.buffer.new_node(is_leaf=False)
            new_root.entries = [
                IndexEntry(node.mbr(), node.page_id),
                IndexEntry(sibling.mbr(), sibling.page_id),
            ]
            self.buffer.mark_dirty(new_root)
            self.parent[node.page_id] = new_root.page_id
            self.parent[sibling.page_id] = new_root.page_id
            self.root_id = new_root.page_id
            self.height += 1
        else:
            parent = self.buffer.get_node(self.parent[node.page_id])
            idx = parent.find_child_index(node.page_id)
            parent.entries[idx] = IndexEntry(node.mbr(), node.page_id)
            parent.entries.append(IndexEntry(sibling.mbr(), sibling.page_id))
            self.parent[sibling.page_id] = parent.page_id
            self.buffer.mark_dirty(parent)
            self._adjust_upward(parent)
            self._handle_overflow(parent, level + 1, reinserted)
        return sibling

    def _on_leaf_split(self, node: Node, sibling: Node) -> None:
        """Hook for subclasses (the RUM-tree cleans both halves for free;
        the FUR-tree repairs its secondary index)."""

    # ------------------------------------------------------------------
    # Bottom-up MBR adjustment
    # ------------------------------------------------------------------

    def _adjust_upward(self, node: Node) -> None:
        """Propagate ``node``'s exact MBR into its ancestors' entries.

        Internal nodes are memory-cached, so this walk is free in the
        paper's leaf-I/O metric, matching Section 3.3's "the MBRs of its
        ancestor nodes are adjusted".
        """
        current = node
        while current.page_id != self.root_id:
            parent = self.buffer.get_node(self.parent[current.page_id])
            idx = parent.find_child_index(current.page_id)
            new_mbr = current.mbr()
            if parent.entries[idx].rect == new_mbr:
                return
            parent.entries[idx] = IndexEntry(new_mbr, current.page_id)
            self.buffer.mark_dirty(parent)
            current = parent

    # ------------------------------------------------------------------
    # Leaf ring (Section 3.3.1)
    # ------------------------------------------------------------------

    def _link_leaf_after(self, node: Node, new_leaf: Node) -> None:
        """Insert ``new_leaf`` into the circular ring right after ``node``."""
        new_leaf.prev_leaf = node.page_id
        new_leaf.next_leaf = node.next_leaf
        if node.next_leaf == node.page_id:
            node.prev_leaf = new_leaf.page_id
            node.next_leaf = new_leaf.page_id
        else:
            successor = self.buffer.get_node(node.next_leaf)
            successor.prev_leaf = new_leaf.page_id
            self.buffer.mark_dirty(successor)
            node.next_leaf = new_leaf.page_id
        self.buffer.mark_dirty(node)
        self.buffer.mark_dirty(new_leaf)

    def _unlink_leaf(self, node: Node) -> None:
        """Remove ``node`` from the circular ring (it is being dissolved)."""
        if node.next_leaf == node.page_id:
            return  # sole member; the ring dies with it
        predecessor = self.buffer.get_node(node.prev_leaf)
        successor = self.buffer.get_node(node.next_leaf)
        predecessor.next_leaf = node.next_leaf
        successor.prev_leaf = node.prev_leaf
        self.buffer.mark_dirty(predecessor)
        self.buffer.mark_dirty(successor)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def range_search(self, window: Rect) -> List[LeafEntry]:
        """All leaf entries whose MBR intersects ``window``.

        For the RUM-tree this is the *raw* answer set that the Update Memo
        then filters (Section 3.2.3); for the other trees it is the final
        answer.

        Each visited node is tested with one bulk kernel call over its
        coordinate column block; matching leaf entries are materialised
        selectively, so a leaf with no hits never builds a single Python
        object.

        After :data:`MIRROR_QUERY_STREAK` consecutive mutation-free range
        searches the tree builds a :class:`~repro.rtree.mirror.QueryMirror`
        and answers from it instead of descending — same entries, and the
        same buffered leaf reads are still charged (one per leaf whose
        directory entry intersects the window), so every I/O metric is
        unchanged.  Any mutation invalidates the mirror via the buffer
        version counter.  Entry *order* may differ between the two paths;
        both are deterministic, neither is part of the API.
        """
        buffer = self.buffer
        wx1, wy1 = window.xmin, window.ymin
        wx2, wy2 = window.xmax, window.ymax
        version = buffer.version
        mirror = self._mirror
        if mirror is None or mirror.version != version:
            if mirror is not None:
                # A stale mirror: did it repay the queries it waited for?
                self._mirror_wait = (
                    self._mirror_wait * 2
                    if self._mirror_served < self._mirror_wait
                    else MIRROR_QUERY_STREAK
                )
            self._mirror = mirror = None
            if version != self._mirror_streak_version:
                self._mirror_streak_version = version
                self._mirror_streak = 1
            else:
                self._mirror_streak += 1
                if self._mirror_streak >= self._mirror_wait:
                    from .mirror import build_mirror

                    self._mirror = mirror = build_mirror(
                        buffer, self.root_id
                    )
                    self._mirror_served = 0
        self._served_by_mirror = mirror is not None
        if mirror is not None:
            self._mirror_served += 1
            leaf_ids, results = mirror.search(wx1, wy1, wx2, wy2)
            if buffer.in_operation:
                # Inside an outer operation the charged reads must land in
                # its cache so later touches of the same leaves stay free.
                get_node = buffer.get_node
                for page_id in leaf_ids:
                    get_node(page_id)
            else:
                buffer.charge_leaf_reads(leaf_ids)
            return results
        results: List[LeafEntry] = []
        with buffer.operation():
            stack = [self.root_id]
            while stack:
                node = buffer.get_node(stack.pop())
                hits = kernels.intersect_indices(
                    node.coord_block(), wx1, wy1, wx2, wy2
                )
                if not hits:
                    continue
                if node.is_leaf:
                    results.extend(node.take(hits))
                else:
                    entries = node.entries
                    stack.extend(entries[i].child_id for i in hits)
        return results

    def nearest_entries(self, x: float, y: float, k: int) -> List[LeafEntry]:
        """The ``k`` leaf entries nearest to ``(x, y)`` (best-first search).

        Classic incremental nearest-neighbour over the R-tree using the
        MINDIST lower bound: internal entries are expanded in distance
        order, so only leaves that can still contribute are read.  For the
        RUM-tree this is a raw candidate stream that the memo then filters
        (see :meth:`repro.core.rum.RUMTree.nearest_neighbors`).
        """
        if k <= 0:
            return []
        results: List[LeafEntry] = []
        for entry, _dist in self.iter_nearest(x, y):
            results.append(entry)
            if len(results) == k:
                break
        return results

    def iter_nearest(
        self, x: float, y: float
    ) -> Iterator[Tuple[LeafEntry, float]]:
        """Yield ``(leaf entry, distance)`` pairs in increasing distance.

        The traversal is lazy: each ``next()`` performs only the node
        reads needed to guarantee the next entry is globally nearest,
        which is what lets a filtered consumer (the RUM-tree) pull extra
        candidates only when obsolete entries were skipped.

        The heap orders by *squared* MINDIST (one bulk kernel call per
        visited node) — identical ordering, no per-entry ``hypot`` — and
        leaf entries stay as ``(node, slot)`` references until popped, so
        only entries that actually surface are materialised.
        """
        import heapq
        import math

        counter = 0  # tie-breaker so heap items never compare by payload
        heap: List[Tuple[float, int, bool, object]] = [
            (0.0, counter, False, self.root_id)
        ]
        with self.buffer.operation():
            while heap:
                dist_sq, _tie, is_entry, payload = heapq.heappop(heap)
                if is_entry:
                    leaf, slot = payload
                    yield leaf.take((slot,))[0], math.sqrt(dist_sq)
                    continue
                # Pages are only read when their heap item is popped, so
                # leaves beyond the k-th neighbour's distance cost nothing.
                node = self.buffer.get_node(payload)
                dists = kernels.min_dist_sq(node.coord_block(), x, y)
                if node.is_leaf:
                    for i, d in enumerate(dists):
                        counter += 1
                        heapq.heappush(heap, (d, counter, True, (node, i)))
                else:
                    entries = node.entries
                    for i, d in enumerate(dists):
                        counter += 1
                        heapq.heappush(
                            heap, (d, counter, False, entries[i].child_id)
                        )

    # ------------------------------------------------------------------
    # Top-down deletion (the classic R-tree update path)
    # ------------------------------------------------------------------

    def delete(self, oid: int, rect: Rect) -> bool:
        """Search-and-delete the entry for ``oid`` with known MBR ``rect``.

        This is the expensive half of the *top-down* update approach
        (Figure 1a): the search may follow multiple paths because only
        nodes whose MBR fully contains ``rect`` can hold the entry.
        Returns False when no matching entry exists.
        """
        with self.buffer.operation():
            found = self._find_leaf_entry(oid, rect)
            if found is None:
                return False
            leaf, idx = found
            del leaf.entries[idx]
            self.buffer.mark_dirty(leaf)
            self._condense(leaf)
            return True

    def _find_leaf_entry(
        self, oid: int, rect: Rect
    ) -> Optional[Tuple[Node, int]]:
        rx1, ry1 = rect.xmin, rect.ymin
        rx2, ry2 = rect.xmax, rect.ymax
        stack = [self.root_id]
        while stack:
            node = self.buffer.get_node(stack.pop())
            if node.is_leaf:
                for i, entry in enumerate(node.entries):
                    if entry.oid == oid and entry.rect == rect:
                        return node, i
            else:
                hits = kernels.contain_indices(
                    node.coord_block(), rx1, ry1, rx2, ry2
                )
                if hits:
                    entries = node.entries
                    stack.extend(entries[i].child_id for i in hits)
        return None

    def _condense(self, leaf: Node) -> None:
        """Guttman's CondenseTree: dissolve underflowing nodes upwards and
        reinsert their orphaned entries at their original levels."""
        orphans: List[Tuple[int, list]] = []
        node = leaf
        level = 0
        while node.page_id != self.root_id:
            parent = self.buffer.get_node(self.parent[node.page_id])
            min_entries = self.min_leaf if node.is_leaf else self.min_index
            if len(node.entries) < min_entries:
                idx = parent.find_child_index(node.page_id)
                del parent.entries[idx]
                self.buffer.mark_dirty(parent)
                if node.entries:
                    orphans.append((level, list(node.entries)))
                if node.is_leaf and self.maintain_leaf_ring:
                    self._unlink_leaf(node)
                self._on_leaf_dissolved(node)
                self.parent.pop(node.page_id, None)
                self.buffer.free_node(node)
            else:
                new_idx = parent.find_child_index(node.page_id)
                parent.entries[new_idx] = IndexEntry(
                    node.mbr(), node.page_id
                )
                self.buffer.mark_dirty(parent)
            node = parent
            level += 1
        self._shrink_root()
        reinserted: Set[int] = set()
        # Higher-level orphans first so the tree regains height before any
        # leaf entries are routed through it.
        for orphan_level, entries in sorted(orphans, reverse=True):
            for entry in entries:
                target = min(orphan_level, self.height - 1)
                if target != orphan_level:
                    # The tree shrank below the orphan's level: flatten the
                    # orphaned subtree into leaf entries (rare; keeps the
                    # structure sound).
                    for leaf_entry in self._collect_leaf_entries(entry):
                        self._insert(leaf_entry, 0, reinserted)
                else:
                    self._insert(entry, target, reinserted)

    def _on_leaf_dissolved(self, node: Node) -> None:
        """Hook for subclasses (the FUR-tree must re-point its secondary
        index at reinsertion time; the RUM cleaner re-homes its tokens)."""

    def _collect_leaf_entries(self, entry: IndexEntry) -> List[LeafEntry]:
        """All leaf entries beneath an orphaned directory entry."""
        collected: List[LeafEntry] = []
        stack = [entry.child_id]
        pages = []
        while stack:
            node = self.buffer.get_node(stack.pop())
            pages.append(node)
            if node.is_leaf:
                collected.extend(node.entries)
            else:
                stack.extend(e.child_id for e in node.entries)
        for node in pages:
            if node.is_leaf:
                if self.maintain_leaf_ring:
                    self._unlink_leaf(node)
                self._on_leaf_dissolved(node)
            self.parent.pop(node.page_id, None)
            self.buffer.free_node(node)
        return collected

    def _shrink_root(self) -> None:
        while True:
            root = self.buffer.get_node(self.root_id)
            if root.is_leaf or len(root.entries) > 1:
                break
            if not root.entries:
                # Everything was deleted: restart with an empty leaf root.
                self.buffer.free_node(root)
                with self.buffer.operation():
                    new_root = self.buffer.new_node(is_leaf=True)
                    new_root.prev_leaf = new_root.page_id
                    new_root.next_leaf = new_root.page_id
                self.root_id = new_root.page_id
                self.height = 1
                return
            child_id = root.entries[0].child_id
            self.buffer.free_node(root)
            self.parent.pop(child_id, None)
            self.root_id = child_id
            self.height -= 1

    # ------------------------------------------------------------------
    # Introspection (tests, metrics, cost model)
    # ------------------------------------------------------------------

    def iter_leaf_nodes(self) -> Iterator[Node]:
        """Yield every leaf node **without charging any I/O**.

        Metrics and invariant checks use this; operational code must go
        through the buffer pool instead.
        """
        stack = [self.root_id]
        while stack:
            node = self._peek_node(stack.pop())
            if node.is_leaf:
                yield node
            else:
                stack.extend(e.child_id for e in node.entries)

    def _peek_node(self, page_id: int) -> Node:
        """Uncounted read used by introspection only.

        Consults every cache layer (internal, operation, resident LRU)
        before the raw disk page, so introspection never observes a page
        image that in-memory state has already superseded.
        """
        buffer = self.buffer
        cached = buffer._internal_cache.get(page_id)
        if cached is not None:
            return cached
        cached = buffer._op_leaf_cache.get(page_id)
        if cached is not None:
            return cached
        cached = buffer._lru.get(page_id)
        if cached is not None:
            return cached
        # Lazy decode: introspection walks (leaf counts, ring checks) often
        # need only the header; entries thaw on first access.
        return buffer.codec.decode(
            page_id, buffer.disk.peek(page_id), lazy=True
        )

    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        for node in self.iter_leaf_nodes():
            yield from node.entries

    def num_leaf_nodes(self) -> int:
        return sum(1 for _ in self.iter_leaf_nodes())

    def num_leaf_entries(self) -> int:
        # len(node) reads the header count on lazily-decoded leaves, so
        # this never materialises any entry objects.
        return sum(len(node) for node in self.iter_leaf_nodes())

    def leaf_mbr_sides(self) -> List[Tuple[float, float]]:
        """Width/height of every leaf MBR (input to the Lemma-2 estimator)."""
        return [
            (node.mbr().width, node.mbr().height)
            for node in self.iter_leaf_nodes()
            if node.entries
        ]

    # ------------------------------------------------------------------
    # EXPLAIN/ANALYZE (see repro.obs.explain for the report structures)
    # ------------------------------------------------------------------

    def explain_query(self, window: Rect) -> "ExplainReport":
        """ANALYZE one range query: run the real traversal against the
        real buffer, recording a per-node trace whose I/O reconciles
        exactly with the operation's IOStats delta.

        The traversal charges the same counted leaf reads a live
        ``range_search`` would (that equivalence is the query mirror's
        contract), so the report's ``io_delta`` *is* the cost of asking
        the query.  ``served_by`` reports which path the live query
        would take right now; a valid mirror additionally contributes a
        ``mirror`` summary block.  Mirror streak state is not touched.
        """
        from repro.obs.explain import ExplainReport

        mirror = self._mirror
        mirror_valid = (
            mirror is not None and mirror.version == self.buffer.version
        )
        visits, raw, io_delta = self._explain_range_traversal(window)
        return ExplainReport(
            op="query",
            tree=self.name,
            backend=kernels.BACKEND,
            params={
                "window": (window.xmin, window.ymin, window.xmax, window.ymax)
            },
            served_by="mirror" if mirror_valid else "traversal",
            visits=visits,
            io_delta=io_delta,
            results=len(raw),
            mirror=mirror.summary() if mirror_valid else None,
        )

    def _explain_range_traversal(self, window: Rect):
        """Instrumented twin of the stack-based descent in
        :meth:`range_search`: identical visit set and kernel calls, plus
        per-visit residency and exact per-visit I/O deltas."""
        from repro.obs.explain import NodeVisit

        buffer = self.buffer
        wx1, wy1 = window.xmin, window.ymin
        wx2, wy2 = window.xmax, window.ymax
        visits: List[NodeVisit] = []
        results: List[LeafEntry] = []
        before = self.stats.snapshot()
        with buffer.operation():
            stack = [(self.root_id, self.height - 1)]
            while stack:
                page_id, level = stack.pop()
                residency = buffer.residency(page_id)
                v_before = self.stats.snapshot()
                node = buffer.get_node(page_id)
                v_io = self.stats.snapshot() - v_before
                hits = kernels.intersect_indices(
                    node.coord_block(), wx1, wy1, wx2, wy2
                )
                entries = node.entries
                visits.append(
                    NodeVisit(
                        page_id=page_id,
                        level=level,
                        is_leaf=node.is_leaf,
                        entries_tested=len(entries),
                        entries_matched=len(hits),
                        residency=residency,
                        io=v_io,
                    )
                )
                if not hits:
                    continue
                if node.is_leaf:
                    results.extend(node.take(hits))
                else:
                    stack.extend(
                        (entries[i].child_id, level - 1) for i in hits
                    )
        io_delta = self.stats.snapshot() - before
        return visits, results, io_delta

    def explain_knn(self, x: float, y: float, k: int) -> "ExplainReport":
        """ANALYZE one kNN query (best-first MINDIST search)."""
        from repro.obs.explain import ExplainReport

        visits, results, io_delta = self._explain_knn_traversal(
            x, y, k, None
        )
        return ExplainReport(
            op="knn",
            tree=self.name,
            backend=kernels.BACKEND,
            params={"x": x, "y": y, "k": k},
            visits=visits,
            io_delta=io_delta,
            results=len(results),
        )

    def _explain_knn_traversal(self, x: float, y: float, k: int, accept):
        """Instrumented twin of :meth:`iter_nearest`.

        ``accept(entry)`` decides whether a surfaced entry counts toward
        ``k`` (the RUM override filters through the memo); ``None``
        accepts everything.  ``entries_matched`` of a visit counts the
        heap items the node contributed.
        """
        import heapq
        import math

        from repro.obs.explain import NodeVisit

        buffer = self.buffer
        visits: List[NodeVisit] = []
        results: List[Tuple[LeafEntry, float]] = []
        before = self.stats.snapshot()
        if k > 0:
            counter = 0
            heap: List[Tuple[float, int, bool, object, int]] = [
                (0.0, 0, False, self.root_id, self.height - 1)
            ]
            with buffer.operation():
                while heap and len(results) < k:
                    dist_sq, _tie, is_entry, payload, level = heapq.heappop(
                        heap
                    )
                    if is_entry:
                        leaf, slot = payload
                        entry = leaf.take((slot,))[0]
                        if accept is None or accept(entry):
                            results.append((entry, math.sqrt(dist_sq)))
                        continue
                    residency = buffer.residency(payload)
                    v_before = self.stats.snapshot()
                    node = buffer.get_node(payload)
                    v_io = self.stats.snapshot() - v_before
                    dists = kernels.min_dist_sq(node.coord_block(), x, y)
                    n = len(node.entries)
                    visits.append(
                        NodeVisit(
                            page_id=payload,
                            level=level,
                            is_leaf=node.is_leaf,
                            entries_tested=n,
                            entries_matched=n,
                            residency=residency,
                            io=v_io,
                        )
                    )
                    if node.is_leaf:
                        for i, d in enumerate(dists):
                            counter += 1
                            heapq.heappush(
                                heap, (d, counter, True, (node, i), 0)
                            )
                    else:
                        entries = node.entries
                        for i, d in enumerate(dists):
                            counter += 1
                            heapq.heappush(
                                heap,
                                (
                                    d,
                                    counter,
                                    False,
                                    entries[i].child_id,
                                    level - 1,
                                ),
                            )
        io_delta = self.stats.snapshot() - before
        return visits, results, io_delta

    def explain_update(
        self, oid: int, new_rect: Rect, old_rect: Optional[Rect] = None
    ) -> "ExplainReport":
        """ANALYZE one update — **this mutates the tree** (the update is
        really performed; that is what makes the reported I/O exact).

        Generic version for the top-down/bottom-up baselines: the
        deletion search path is pre-walked read-only with *uncounted*
        peeks (per-visit ``io`` is zero), then the real
        ``update_object`` runs and its whole delta is reported as the
        ``update`` phase — so the report still reconciles exactly.  The
        RUM override replaces this with a fully attributed memo-based
        trace.
        """
        from repro.obs.explain import ExplainReport

        if old_rect is None:
            raise ValueError(
                "old_rect is required to explain a top-down/bottom-up update"
            )
        visits = self._explain_find_path(oid, old_rect)
        height_before = self.height
        before = self.stats.snapshot()
        self.update_object(oid, old_rect, new_rect)
        io_delta = self.stats.snapshot() - before
        return ExplainReport(
            op="update",
            tree=self.name,
            backend=kernels.BACKEND,
            params={
                "oid": oid,
                "old_rect": tuple(old_rect),
                "new_rect": tuple(new_rect),
            },
            visits=visits,
            phases={"update": io_delta},
            io_delta=io_delta,
            results=1,
            extra={
                "height_before": height_before,
                "height_after": self.height,
                "visit_io_attributed": False,
            },
        )

    def _explain_find_path(self, oid: int, rect: Rect):
        """Read-only twin of :meth:`_find_leaf_entry` using uncounted
        peeks: the containment-search path a top-down deletion follows,
        with zero per-visit I/O (the real op charges it)."""
        from repro.obs.explain import NodeVisit
        from repro.storage.iostats import IOSnapshot

        rx1, ry1 = rect.xmin, rect.ymin
        rx2, ry2 = rect.xmax, rect.ymax
        zero = IOSnapshot()
        visits: List[NodeVisit] = []
        stack = [(self.root_id, self.height - 1)]
        while stack:
            page_id, level = stack.pop()
            residency = self.buffer.residency(page_id)
            node = self._peek_node(page_id)
            entries = node.entries
            if node.is_leaf:
                matched = sum(
                    1
                    for e in entries
                    if e.oid == oid and e.rect == rect
                )
                visits.append(
                    NodeVisit(
                        page_id=page_id,
                        level=level,
                        is_leaf=True,
                        entries_tested=len(entries),
                        entries_matched=matched,
                        residency=residency,
                        io=zero,
                    )
                )
                if matched:
                    break
            else:
                hits = kernels.contain_indices(
                    node.coord_block(), rx1, ry1, rx2, ry2
                )
                visits.append(
                    NodeVisit(
                        page_id=page_id,
                        level=level,
                        is_leaf=False,
                        entries_tested=len(entries),
                        entries_matched=len(hits),
                        residency=residency,
                        io=zero,
                    )
                )
                stack.extend((entries[i].child_id, level - 1) for i in hits)
        return visits

    # -- structural invariants (used heavily by the test suite) -----------

    def check_invariants(self) -> None:
        """Validate structure; raises ``InvariantViolation`` (an
        ``AssertionError`` subclass) on any violation.

        Delegates to :func:`repro.lint.invariants.check_tree`, which also
        runs the memo/stamp consistency checks on RUM trees.
        """
        from repro.lint.invariants import check_tree

        check_tree(self)
