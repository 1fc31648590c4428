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
from bisect import bisect_left, insort
from operator import sub
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import kernels
from repro.concurrency.primitives import LockLike, make_lock
from repro.obs.drift import DriftMonitor
from repro.obs.explain import analyze
from repro.storage.buffer import BufferPool
from repro.storage.iostats import io_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.explain import ExplainReport, TraversalObserver

from .geometry import Rect
from .node import NO_PAGE, Entry, IndexEntry, LeafEntry, Node
from .split import choose_reinsert_entries, quadratic_split, rstar_split

SplitFunction = Callable[[Sequence, int], Tuple[list, list]]

#: Size of the candidate list for the R* overlap-minimising ChooseSubtree
#: at the leaf-parent level.
CHOOSE_SUBTREE_CANDIDATES = 8

#: Consecutive mutation-free range searches before a query mirror is built.
#: Hysteresis: mixed update/query phases never pay the build walk, while a
#: query burst (the paper's range-query experiments) amortises one build
#: over hundreds of windows.  The wait adapts: a mirror invalidated before
#: it served as many queries as it waited for doubles the next wait, one
#: that paid off resets it to this value (counts, not clocks).
MIRROR_QUERY_STREAK = 16

#: Everything ``range_search`` keeps about the mirror between queries.
_MIRROR_STATE = (
    "_mirror", "_mirror_streak", "_mirror_streak_version", "_mirror_wait",
    "_mirror_served",
)

#: Capture sampling (the stride rule in ``RTreeBase._observed``).  A
#: sampled operation completing faster than the threshold doubles its
#: class's capture stride (up to the cap); a slow one resets it to 1.
#: Steady state thus converges to one full capture per ``_OBS_STRIDE_MAX``
#: operations, keeping the metrics-level overhead on microsecond-scale
#: operations inside the bench_micro budget, while any latency
#: regression snaps sampling back to full fidelity within one stride.
_OBS_FAST_S = 1e-3
_OBS_STRIDE_MAX = 256


class _Sampler:
    """Capture-stride state of one sampled operation class: every
    ``stride``-th operation pays the full capture, ``tick`` counts down
    the operations left until the next one that does."""

    __slots__ = ("tick", "stride")

    def __init__(self) -> None:
        self.tick = 0
        self.stride = 1


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

        codec = buffer.codec
        self.leaf_cap = codec.leaf_cap
        self.index_cap = codec.index_cap
        self.min_leaf = max(2, min(int(self.leaf_cap * min_fill),
                                   self.leaf_cap // 2))
        self.min_index = max(2, min(int(self.index_cap * min_fill),
                                    self.index_cap // 2))

        #: child page id -> parent page id (root has no entry).
        self.parent: Dict[int, int] = {}

        #: Structure latch: a mutex every tree operation (update / batch /
        #: clean / query) holds, since a query fills buffer caches too.
        #: The concurrency harness (Section 3.5) takes it *after* acquiring
        #: granule locks — granule locks order strictly before the latch
        #: (see docs/CONCURRENCY.md).
        self.latch: LockLike = make_lock()

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
        self._obs_unbind()
        #: Serving decision of the most recent range_search ("mirror" vs
        #: "traversal"); one boolean store per query on every path so the
        #: obs A/B comparison is unaffected.
        self._served_by_mirror = False
        #: Visit observer installed by EXPLAIN/ANALYZE for the duration
        #: of one operation (see :mod:`repro.obs.explain`); the four
        #: traversal loops report each visited node to it.
        self._watch: Optional["TraversalObserver"] = None

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

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Attach observability to this tree and its whole storage stack.

        Cascades to the buffer pool (and through it, the disk manager);
        subclasses extend the cascade to the memo, the cleaner, the WAL,
        or the secondary index.  Passing ``None`` — or an instance at
        level ``off`` — detaches everything.
        """
        enabled = obs is not None and obs.enabled
        # Queries skipped since the last sampled one have not been
        # counted yet; settle the balance before the counter is dropped
        # or rebound.  (Updates need no settlement: their counter and
        # histogram are exact per-op on the unsampled path too.)
        pending = self._obs_qsample.stride - 1 - self._obs_qsample.tick
        if pending > 0 and self._obs_c_queries is not None:
            self._obs_c_queries.inc(pending)
        self._obs_unbind()
        self.obs = obs if enabled else None
        self.buffer.attach_obs(obs if enabled else None)
        if enabled and obs.metrics_on:
            reg = obs.registry
            updates = self._obs_c_updates = reg.counter("tree.updates")
            queries = self._obs_c_queries = reg.counter("tree.queries")
            update_io = self._obs_h_update_io = reg.histogram(
                "tree.update_leaf_io", self._IO_BUCKETS
            )
            query_io = reg.histogram("tree.query_leaf_io", self._IO_BUCKETS)
            reg.gauge("tree.height").set_function(lambda: self.height)
            # Flight recorder + drift monitor (always on at metrics and
            # above; the hot path reaches them only through these bound
            # references — lint rule REP010).
            self._obs_recorder = obs.recorder
            self._obs_drift = DriftMonitor(reg)
            update_drift = self._obs_drift.track(
                "update", self._drift_update_predicted
            )
            query_drift = self._obs_drift.track(
                "query", self._drift_query_predicted
            )
            # The one counting rule, for every tree type — kind: (span
            # name, op counter, leaf-I/O histogram, drift tracker, capture
            # sampler).  Every operation through a public entry point
            # lands in exactly one row.
            insert_drift = update_drift if self._INSERT_IS_UPDATE else None
            self._obs_kinds = {
                "insert": ("insert", updates, update_io, insert_drift, None),
                "update": (
                    "update", updates, update_io, update_drift,
                    self._obs_usample,
                ),
                "delete": ("delete", updates, update_io, None, None),
                "query": (
                    "query", queries, query_io, query_drift,
                    self._obs_qsample,
                ),
                "knn": (
                    "knn", reg.counter("tree.knn_queries"), query_io,
                    None, None,
                ),
            }

    def _obs_unbind(self) -> None:
        """Every instrument ``attach_obs`` binds, in its detached state."""
        #: Per-kind accounting table (see attach_obs); the counters and
        #: histogram the inline paths touch are bound as attributes too.
        self._obs_kinds: Dict[str, tuple] = {}
        self._obs_c_updates = self._obs_c_queries = None
        self._obs_h_update_io = None
        #: Flight recorder and drift monitor.  The memo reference is
        #: populated by the RUM subclass (the baselines have no memo) so
        #: per-op memo lookup/hit deltas — read off the memo's
        #: unconditional plain-int tallies — ride every recorder record.
        self._obs_recorder = None
        self._obs_rec_memo = None
        self._obs_drift = None
        #: Capture sampling of the two hot operation classes: every
        #: operation is counted, but only every ``stride``-th pays the
        #: full recorder/drift capture (see ``_observed``).
        self._obs_usample = _Sampler()
        self._obs_qsample = _Sampler()

    # -- per-operation capture (flight recorder + drift feed) --------------

    def _observed(self, kind, body, *args, window=None, **attrs):
        """Run ``body(*args)`` as one fully captured operation of class
        ``kind`` (enabled path only) and return its result.

        The single accounting body: wraps the run in a span at ``trace``
        level, then feeds the kind's op counter, its per-op leaf-I/O
        histogram, the flight recorder, and — where the kind has one —
        the drift monitor's measured EWMA, all from one 10-field I/O
        delta off the raw counters (raw reads instead of
        ``stats.snapshot()`` keep the capture to two ``perf_counter``
        calls plus two counter sweeps).  ``window`` marks a range query:
        its extents feed the drift model and its serving decision rides
        the record.

        For the sampled kinds it then applies the stride rule: a capture
        faster than ``_OBS_FAST_S`` doubles the stride (slow-op detection
        and recorder coverage degrade gracefully to one op in
        ``_OBS_STRIDE_MAX``), a slow one resets it, and at ``trace``
        level the stride never widens so every operation is recorded.
        """
        span, counter, histogram, tracker, sampler = self._obs_kinds[kind]
        obs = self.obs
        s = self.stats
        m = self._obs_rec_memo
        lookups0 = 0 if m is None else m.lookup_count
        hits0 = 0 if m is None else m.hit_count
        io0 = io_counters(s)
        t0 = time.perf_counter()
        if obs.tracing:
            with obs.span(span, io=s, tree=self.name, **attrs):
                result = body(*args)
        else:
            result = body(*args)
        dur_s = time.perf_counter() - t0
        io10 = tuple(map(sub, io_counters(s), io0))
        if counter is not None:
            counter.value += 1
        if histogram is not None:
            histogram.observe(io10[0] + io10[1])
        self._obs_recorder.record(
            kind,
            self.name,
            dur_s,
            io10,
            0 if m is None else m.lookup_count - lookups0,
            0 if m is None else m.hit_count - hits0,
            "-" if window is None
            else "mirror" if self._served_by_mirror else "traversal",
        )
        if tracker is not None:
            if window is not None:
                tracker.observe_window(
                    window.xmax - window.xmin, window.ymax - window.ymin
                )
            # Counted I/O per the paper's model: leaf + index + log + memo
            # — everything but the (cached) internal nodes.
            tracker.observe(sum(io10) - io10[2] - io10[3])
        if sampler is not None and not obs.tracing:
            if dur_s >= _OBS_FAST_S:
                sampler.stride = 1
            elif sampler.stride < _OBS_STRIDE_MAX:
                sampler.stride *= 2
            sampler.tick = sampler.stride - 1
        return result

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
    # Moving-object index protocol — each operation written once
    # ------------------------------------------------------------------
    #
    # The experiment harness, the batch pipeline and the serving layer
    # drive all three trees through these five entry points.  Each is the
    # only instrumented copy of its operation: the obs-off fast path goes
    # straight to the tree type's *body*; the enabled path accounts the
    # same body through ``_observed``.  Subclasses bind the bodies to
    # their algorithms and never touch observability.

    #: Whether an insertion feeds the update drift model (true where
    #: inserts and updates are the same operation — the RUM-tree).
    _INSERT_IS_UPDATE = False

    def insert_object(self, oid: int, rect: Rect) -> None:
        """Index a new object."""
        if self.obs is None:
            self._insert_body(oid, rect)
        else:
            self._observed("insert", self._insert_body, oid, rect, oid=oid)

    def update_object(
        self, oid: int, old_rect: Optional[Rect], new_rect: Rect
    ) -> None:
        """Move ``oid`` from ``old_rect`` to ``new_rect``.

        The baselines need the exact MBR currently stored; the RUM-tree
        ignores it (Section 3.2.1) and accepts ``None``.
        """
        if self.obs is None:
            self._update_body(oid, old_rect, new_rect)
            return
        sampler = self._obs_usample
        if not sampler.tick:
            self._observed(
                "update", self._update_body, oid, old_rect, new_rect, oid=oid
            )
            return
        # Unsampled update.  The counter and histogram stay exact on
        # every operation — both are pure I/O accounting that needs no
        # clock and touches three small hot objects, a few hundred
        # nanoseconds.  What this path skips is the expensive capture
        # (``perf_counter`` calls, the 10-field delta, the recorder
        # record, the drift feed), whose working set is large enough that
        # paying it every update breaks the <2% metrics-level budget
        # (``bench_micro`` A/B) — and so would a call, hence inline.
        sampler.tick -= 1
        s = self.stats
        lio0 = s.leaf_reads + s.leaf_writes
        self._update_body(oid, old_rect, new_rect)
        self._obs_c_updates.value += 1
        h = self._obs_h_update_io
        v = s.leaf_reads + s.leaf_writes - lio0
        h.counts[bisect_left(h.buckets, v)] += 1
        h.count += 1
        h.total += v

    def delete_object(self, oid: int, old_rect: Optional[Rect] = None) -> None:
        """Remove an object entirely (``old_rect`` as for updates)."""
        if self.obs is None:
            self._delete_body(oid, old_rect)
        else:
            self._observed("delete", self._delete_body, oid, old_rect, oid=oid)

    def search(self, window: Rect, stamped: bool = False) -> List[tuple]:
        """All live objects whose current MBR intersects ``window``, as
        ``(oid, rect)`` — or, ``stamped``, ``(oid, rect, stamp)``: what a
        merge over several trees needs to tell the newer of two answers
        for one object (the shard router's max-stamp rule)."""
        if self.obs is None:
            return self._search_body(window, stamped)
        sampler = self._obs_qsample
        if sampler.tick > 0:
            # Unsampled query: tens of microseconds whichever path
            # serves it, so it pays for nothing but this countdown and
            # the next sampled query counts it.
            sampler.tick -= 1
            return self._search_body(window, stamped)
        # ``tree.queries`` is thus exact at every sample boundary (and at
        # detach, which settles the remainder); histogram, recorder and
        # drift feeds see the sampled queries only.
        self._obs_c_queries.value += sampler.stride - 1
        return self._observed(
            "query", self._search_body, window, stamped, window=window
        )

    def nearest_neighbors(
        self, x: float, y: float, k: int, stamped: bool = False
    ) -> List[tuple]:
        """The ``k`` live objects nearest to ``(x, y)``, nearest first, as
        ``(oid, rect)`` — or, ``stamped``, ``(dist, oid, stamp, rect)``
        (see :meth:`search`)."""
        if k <= 0:
            return []
        if self.obs is None:
            return self._knn_body(x, y, k, stamped)
        return self._observed("knn", self._knn_body, x, y, k, stamped, k=k)

    # -- operation bodies (the baselines' defaults) -------------------------

    def _insert_body(self, oid: int, rect: Rect) -> None:
        """Single-path R* insertion; the placement hooks keep subclass
        state (the FUR-tree's secondary index) in step."""
        self.insert(rect, oid)

    def _update_body(
        self, oid: int, old_rect: Optional[Rect], new_rect: Rect
    ) -> None:
        raise NotImplementedError

    def _delete_body(self, oid: int, old_rect: Optional[Rect]) -> None:
        raise NotImplementedError

    def _search_body(self, window: Rect, stamped: bool) -> List[tuple]:
        raw = self.range_search(window)
        if stamped:
            return [(e.oid, e.rect, e.stamp) for e in raw]
        return [(e.oid, e.rect) for e in raw]

    def _knn_body(self, x: float, y: float, k: int, stamped: bool) -> List[tuple]:
        results: List[tuple] = []
        for e, dist in self.iter_nearest(x, y):
            results.append(
                (dist, e.oid, e.stamp, e.rect) if stamped else (e.oid, e.rect)
            )
            if len(results) == k:
                break
        return results

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, oid: int, stamp: int = 0) -> None:
        """Insert one object entry (1 leaf read + 1 leaf write typically)."""
        with self.buffer.operation():
            self._insert(LeafEntry(rect, oid, stamp), 0, set())

    def _insert(self, entry, level: int, reinserted: Set[int]) -> Node:
        """Insert ``entry`` into some node at ``level``; returns that node."""
        node, path = self._choose_node(entry.rect, level)
        node.add_entry(entry)
        if not node.is_leaf:
            self.parent[entry.child_id] = node.page_id
        self.buffer.mark_dirty(node)
        left: Sequence[LeafEntry] = ()
        if node.is_leaf:
            left = self._on_entry_placed(node, entry) or ()
        self._adjust_upward(node, path, entry.rect, left)
        self._handle_overflow(node, level, reinserted)
        return node

    def _on_entry_placed(self, node: Node, entry: LeafEntry) -> Optional[list]:
        """Hook: ``entry`` was just placed into leaf ``node``.

        Called *before* overflow handling, so a subclass tracking entry
        locations (the FUR-tree's secondary index) sees relocations caused
        by splits/reinserts afterwards and ends up with the final leaf.
        A hook that removes entries from the leaf (clean-upon-touch)
        returns them: MBR adjustment needs to know what left.
        """

    def _choose_node(self, rect: Rect, level: int) -> Tuple[Node, list]:
        """Descend from the root to a node at ``level`` (leaves = level 0);
        returns it and the path there: the ``(directory node, child
        index)`` pair taken at each level, root first."""
        if level >= self.height:
            raise ValueError(
                f"target level {level} but tree height is {self.height}"
            )
        watch = self._watch
        node = self.buffer.get_node(self.root_id)
        path: List[Tuple[Node, int]] = []
        current = self.height - 1
        while current > level:
            idx = self._choose_child_index(node, rect, current == 1)
            if watch is not None:
                watch.visit(node, len(node), 1)
            path.append((node, idx))
            node = self.buffer.get_node(node.entries[idx].child_id)
            current -= 1
        if watch is not None:
            watch.visit(node, len(node), 0)
        return node, path

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
        # The area-ordered rows sit on the node beside the block they were
        # built from, and ``mark_dirty`` drops both in one statement.
        rows = node.area_rows
        if rows is None:
            rows = node.area_rows = kernels.area_rows(block)
        least = kernels.least_enlargement(rows, rx1, ry1, rx2, ry2)
        if not leaf_children or least[0] == 0.0:
            # Above the leaf parents least enlargement decides.  At the
            # leaf parents a child the new rect fits without growing
            # cannot increase any overlap, so (overlap-delta, enlargement,
            # area) is already minimal for the least-area such child.
            return least[2]

        def candidates() -> Iterator[Tuple[float, float, int]]:
            # Ascending (enlargement, area, index): ``least`` is the head,
            # and the rest is ranked only once the head adds overlap.
            yield least
            enls, node_areas = kernels.enlargements(block, rx1, ry1, rx2, ry2)
            ranked = sorted(zip(enls, node_areas, range(n)))
            yield from ranked[1:CHOOSE_SUBTREE_CANDIDATES]

        best_idx = least[2]
        best_key: Optional[Tuple[float, float, float]] = None
        for enlargement, area, i in candidates():
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
            if overlap_delta == 0.0:
                # An overlap delta is never negative (docs/KERNELS.md), so
                # no later candidate's key can be strictly smaller.
                break
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
            self._set_child(parent, idx, IndexEntry(node.mbr(), node.page_id))
            new = IndexEntry(sibling.mbr(), sibling.page_id)
            self._set_child(parent, len(parent.entries), new)
            self.parent[sibling.page_id] = parent.page_id
            self._adjust_upward(parent)
            self._handle_overflow(parent, level + 1, reinserted)
        return sibling

    def _on_leaf_split(self, node: Node, sibling: Node) -> None:
        """Hook for subclasses (the RUM-tree cleans both halves for free;
        the FUR-tree repairs its secondary index)."""

    # ------------------------------------------------------------------
    # Bottom-up MBR adjustment
    # ------------------------------------------------------------------

    def _adjust_upward(
        self, node: Node, path: Sequence[Tuple[Node, int]] = (),
        grown: Optional[Rect] = None, left: Optional[Sequence[Entry]] = None,
    ) -> None:
        """Propagate ``node``'s exact MBR into its ancestors' entries.

        Internal nodes are memory-cached, so this walk is free in the
        paper's leaf-I/O metric, matching Section 3.3's "the MBRs of its
        ancestor nodes are adjusted".

        ``path`` is the descent that reached ``node`` (:meth:`_choose_node`);
        without one the pairs are resolved from the parent directory.  A
        caller that knows how ``node`` changed since its parent entry was
        exact — it lost the entries ``left``, gained at most one of
        rectangle ``grown`` — spares the scan: the new MBR is the held one
        united with ``grown`` unless an entry that left touched its edge.
        """
        current = node
        depth = len(path)
        while current.page_id != self.root_id:
            if depth:
                depth -= 1
                parent, idx = path[depth]
            else:
                parent = self.buffer.get_node(self.parent[current.page_id])
                idx = parent.find_child_index(current.page_id)
            held = parent.entries[idx].rect
            if left and not all(
                held.xmin < e.rect.xmin and held.ymin < e.rect.ymin
                and e.rect.xmax < held.xmax and e.rect.ymax < held.ymax
                for e in left
            ):
                left = None
            if left is None:
                new_mbr = current.mbr()
                if new_mbr == held:
                    return
            else:
                new_mbr = held if grown is None else held.union(grown)
                if new_mbr is held:  # what ``union`` answers on cover
                    return
                # One level up the child lost nothing and only grew.
                grown, left = new_mbr, ()
            self._set_child(parent, idx, IndexEntry(new_mbr, current.page_id))
            current = parent

    def _set_child(self, parent: Node, idx: int, entry: IndexEntry) -> None:
        """Put ``entry`` in ``parent``'s slot ``idx`` (append at its length)
        and ``mark_dirty`` it, patching rather than dropping its cached
        block and area rows: a row keyed ``(area, index)`` sits where the
        stable sort of ``kernels.area_rows`` puts it."""
        block, rows = parent.columns, parent.area_rows
        parent.entries[idx:idx + 1] = [entry]  # replace, or append at n
        self.buffer.mark_dirty(parent)
        if block is None:
            return
        n, xs1, ys1, xs2, ys2 = block
        if rows is not None and idx < n:
            old = (xs2[idx] - xs1[idx]) * (ys2[idx] - ys1[idx])
            del rows[bisect_left(rows, (old, idx))]
        x1, y1, x2, y2 = entry.rect.as_tuple()
        xs1[idx:idx + 1], ys1[idx:idx + 1] = [x1], [y1]
        xs2[idx:idx + 1], ys2[idx:idx + 1] = [x2], [y2]
        parent.columns = (len(xs1), xs1, ys1, xs2, ys2)
        if rows is not None:
            insort(rows, ((x2 - x1) * (y2 - y1), idx, x1, y1, x2, y2))
            parent.area_rows = rows

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

    def range_search(
        self,
        window: Rect,
        collect: Optional[Callable[[Node, Sequence[int]], list]] = None,
    ) -> list:
        """All leaf entries whose MBR intersects ``window``.

        For the baselines that is the final answer.  The RUM-tree passes
        ``collect``: called as ``collect(leaf, hits)`` with each visited
        leaf and the slots of it that intersect the window, it returns
        that leaf's share of the answer (by default ``leaf.take(hits)``,
        the entries themselves) — which is how the Update Memo filters
        the raw answer set (Section 3.2.3) before anything is built for
        it.

        Each visited node is tested with one bulk kernel call over its
        coordinate column block, so a leaf with no hits never builds a
        single Python object; what is built for a leaf with hits is up to
        ``collect``.

        After :data:`MIRROR_QUERY_STREAK` consecutive mutation-free range
        searches the tree builds a :class:`~repro.rtree.mirror.QueryMirror`
        and answers from it instead of descending — same entries, handed
        to ``collect`` as one leaf that is all hits, and the same buffered
        leaf reads are still charged (one per leaf whose directory entry
        intersects the window), so every I/O metric is unchanged.  Any
        mutation invalidates the mirror via the buffer version counter.
        Entry *order* may differ between the two paths; both are
        deterministic, neither is part of the API.
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
            if collect is None:
                return results
            return collect(
                Node(NO_PAGE, True, results), range(len(results))
            )
        results = []
        watch = self._watch
        with buffer.operation():
            stack = [self.root_id]
            while stack:
                node = buffer.get_node(stack.pop())
                hits = kernels.intersect_indices(
                    node.coord_block(), wx1, wy1, wx2, wy2
                )
                if watch is not None:
                    watch.visit(node, len(node), len(hits))
                if not hits:
                    continue
                if not node.is_leaf:
                    entries = node.entries
                    stack.extend(entries[i].child_id for i in hits)
                elif collect is None:
                    results.extend(node.take(hits))
                else:
                    results.extend(collect(node, hits))
        return results

    def iter_nearest(
        self, x: float, y: float
    ) -> Iterator[Tuple[LeafEntry, float]]:
        """Yield ``(leaf entry, distance)`` pairs in increasing distance
        (classic best-first search over the MINDIST lower bound).

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
        watch = self._watch
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
                if watch is not None:
                    # Every entry of a visited node enters the heap.
                    watch.visit(node, len(node), len(node))
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
        watch = self._watch
        stack = [self.root_id]
        while stack:
            node = self.buffer.get_node(stack.pop())
            if node.is_leaf:
                for i, entry in enumerate(node.entries):
                    if entry.oid == oid and entry.rect == rect:
                        if watch is not None:
                            watch.visit(node, len(node), 1)
                        return node, i
                hits = ()
            else:
                hits = kernels.contain_indices(
                    node.coord_block(), rx1, ry1, rx2, ry2
                )
                if hits:
                    entries = node.entries
                    stack.extend(entries[i].child_id for i in hits)
            if watch is not None:
                watch.visit(node, len(node), len(hits))
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
                self._set_child(
                    parent, parent.find_child_index(node.page_id),
                    IndexEntry(node.mbr(), node.page_id),
                )
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
            node = self.buffer.peek_node(stack.pop())
            if node.is_leaf:
                yield node
            else:
                stack.extend(e.child_id for e in node.entries)

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
            (mbr.width, mbr.height)
            for mbr in (n.mbr() for n in self.iter_leaf_nodes() if n.entries)
        ]

    # ------------------------------------------------------------------
    # EXPLAIN/ANALYZE (see repro.obs.explain for observer and report)
    # ------------------------------------------------------------------
    #
    # Each explain_* runs the operation's *real* body with a visit
    # observer installed for the duration: the traversal loops above
    # report every node they inspect, the observer taps the buffer for
    # the residency and exact I/O of each fetch.  Nothing here knows how
    # a search descends or an update inserts.

    def explain_query(self, window: Rect) -> "ExplainReport":
        """ANALYZE one range query: run the real search body against the
        real buffer, recording a per-node trace whose I/O reconciles
        exactly with the operation's IOStats delta.

        The descent is forced even when a mirror would answer: it charges
        the same counted leaf reads (that equivalence is the query
        mirror's contract), so the report's ``io_delta`` *is* the cost of
        asking the query.  ``served_by`` reports which path the live
        query would take right now; a valid mirror additionally
        contributes a ``mirror`` summary block.  Mirror, streak and wait
        are left exactly as found, and the query is not counted as a live
        one.
        """
        found = {name: getattr(self, name) for name in _MIRROR_STATE}
        mirror = self._mirror
        mirror_valid = (
            mirror is not None and mirror.version == self.buffer.version
        )
        # With no mirror and a fresh streak, range_search descends.
        self._mirror = None
        self._mirror_streak_version = -1
        try:
            report = analyze(
                self,
                "query",
                {"window": (window.xmin, window.ymin, window.xmax, window.ymax)},
                lambda: self._search_body(window, False),
            )
        finally:
            for name, value in found.items():
                setattr(self, name, value)
        report.served_by = "mirror" if mirror_valid else "traversal"
        report.mirror = mirror.summary() if mirror_valid else None
        return report

    def explain_knn(self, x: float, y: float, k: int) -> "ExplainReport":
        """ANALYZE one kNN query (best-first MINDIST search);
        ``entries_matched`` of a visit counts the heap items the node
        contributed."""
        return analyze(
            self,
            "knn",
            {"x": x, "y": y, "k": k},
            lambda: self._knn_body(x, y, k, False) if k > 0 else [],
        )

    def explain_update(
        self, oid: int, new_rect: Rect, old_rect: Optional[Rect] = None
    ) -> "ExplainReport":
        """ANALYZE one update — **this mutates the tree** (the update is
        really performed, and counted like any other; that is what makes
        the reported I/O exact).

        The visits are the nodes the update's own traversals inspected
        (the top-down deletion search and the insertion descent; a
        bottom-up update that stays in its leaf traverses nothing), each
        with the I/O its fetch charged; everything else — write-backs,
        splits, secondary-index maintenance — is the ``update`` phase.
        """
        if old_rect is None:
            raise ValueError(
                "old_rect is required to explain a top-down/bottom-up update"
            )
        return self._explain_update(oid, old_rect, new_rect, ("update",))

    def _explain_update(
        self, oid: int, old_rect: Optional[Rect], new_rect: Rect, phases
    ) -> "ExplainReport":
        params = {"oid": oid, "new_rect": tuple(new_rect)}
        if old_rect is not None:
            params["old_rect"] = tuple(old_rect)
        height_before = self.height
        report = analyze(
            self,
            "update",
            params,
            lambda: self.update_object(oid, old_rect, new_rect),
            phases,
        )
        report.extra = {
            "height_before": height_before,
            "height_after": self.height,
        }
        return report

    # -- structural invariants (used heavily by the test suite) -----------

    def check_invariants(self) -> None:
        """Validate structure; raises ``InvariantViolation`` (an
        ``AssertionError`` subclass) on any violation.

        Delegates to :func:`repro.lint.invariants.check_tree`, which also
        runs the memo/stamp consistency checks on RUM trees.
        """
        from repro.lint.invariants import check_tree

        check_tree(self)
