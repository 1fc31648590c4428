"""Buffer pool implementing the paper's I/O-accounting model.

Section 4 of the paper analyses disk accesses under the standing assumption
that *"the internal R-tree nodes are cached in the memory buffer"*, so all
counted costs are **leaf-node** reads and writes.  This buffer pool encodes
that model directly:

* **Internal pages** are cached permanently after their first load and are
  written back lazily; their I/O is tracked separately (``internal_*``
  counters) and excluded from the headline metric.
* **Leaf pages** live in an *operation-scoped* cache.  Within one logical
  operation (an update, a query, a token-cleaning step ...) each distinct
  leaf page is read from disk at most once and written back at most once at
  the end of the operation.  This is exactly why the RUM-tree's
  clean-upon-touch optimisation is free (Section 3.3.3): the cleaning reuses
  the read and the write that the insertion pays for anyway.

Usage::

    with buffer.operation():
        node = buffer.get_node(page_id)   # 1 leaf read (at most once/op)
        node.entries.append(entry)
        buffer.mark_dirty(node)           # 1 leaf write, charged at exit

Accesses outside an operation degrade gracefully to read-through /
write-through with the same counters; the recovery scans use that mode.

A batch stretches the same mechanism over many logical operations: it
opens one :meth:`BufferPool.operation` around all of them, every operation
opened inside flattens into it, so a page touched by several updates of
one batch is read at most once and written back at most once — at scope
exit, in ascending page-id order so the disk sees one sequential sweep.
The pool counts leaf dirty-marks (``leaf_mark_count``) beside page
write-backs (``write_back_count``); their deltas over a batch say how many
leaf writes it coalesced away, the batching pipeline's headline I/O
saving.

The pool has one concurrency contract: a single writer.  Every entry
point, a query's ``get_node`` included, fills or reorders a cache, so
callers serialise behind the owning tree's structure latch, which every
tree operation holds exclusively (docs/CONCURRENCY.md).  The race
detector sees the pool as one coarse location, ``caches``: every page
access mutates its structures together, so any two unsynchronised
operations conflict and a finer location would only delay the report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set

from repro.concurrency import racecheck
from repro.obs.metrics import UNPUBLISHED, republish

from .disk import PageStore
from .iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs import Observability
    from repro.rtree.node import Node

    from .codec import NodeCodec


class _OperationScope:
    """Reusable, stateless context manager for :meth:`BufferPool.operation`.

    The operation scope sits on every query and update hot path; a shared
    ``__slots__`` instance avoids the generator machinery a
    ``@contextmanager`` would allocate per entry.  All state (the nesting
    depth) lives on the pool, so one instance serves nested uses too.
    """

    __slots__ = ("_pool",)

    def __init__(self, pool: "BufferPool") -> None:
        self._pool = pool

    def __enter__(self) -> None:
        self._pool._op_depth += 1

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pool = self._pool
        pool._op_depth -= 1
        if pool._op_depth == 0:
            pool._flush_op_cache()


class BufferPool:
    """Operation-scoped leaf cache plus a pinned internal-node cache.

    ``leaf_cache_pages`` optionally keeps that many leaf pages resident in
    an LRU *across* operations (write-back on eviction).  The paper's cost
    model assumes no such cache — every leaf access is a disk access — so
    the default is 0; the buffer-size ablation uses positive values to
    show how a real buffer manager would shrink all measured costs without
    changing any of the comparisons.

    ``version`` is a monotone counter bumped by every state-changing call
    (``mark_dirty``, ``free_node``, ``drop_volatile``).  Volatile
    acceleration structures snapshot it when built and compare it on use:
    an equal version guarantees no page the structure summarises has
    changed since (see :mod:`repro.rtree.mirror`).
    """

    def __init__(
        self,
        disk: PageStore,
        codec: "NodeCodec",
        stats: IOStats,
        leaf_cache_pages: int = 0,
    ) -> None:
        if disk.page_size != codec.node_size:
            raise ValueError(
                f"disk page size {disk.page_size} != codec node size "
                f"{codec.node_size}"
            )
        if leaf_cache_pages < 0:
            raise ValueError("leaf_cache_pages must be non-negative")
        self.disk = disk
        self.codec = codec
        self.stats = stats
        self.leaf_cache_pages = leaf_cache_pages
        #: Monotone modification counter (see the class docstring).
        self.version = 0
        self._op_scope = _OperationScope(self)
        self._internal_cache: Dict[int, "Node"] = {}
        self._dirty_internal: Set[int] = set()
        # The operation caches are the pool's shared mutable core;
        # concurrent tree operations serialise behind the owning tree's
        # structure latch (RTreeBase.latch, write mode, queries too).
        self._op_leaf_cache: Dict[int, "Node"] = {}  # guarded-by: latch
        self._dirty_leaves: Set[int] = set()  # guarded-by: latch
        # LRU of resident leaf pages (insertion order = recency) and the
        # subset whose in-memory state is newer than the disk page.
        self._lru: Dict[int, "Node"] = {}
        self._lru_dirty: Set[int] = set()
        self._op_depth = 0
        #: Lifetime cache tallies, plain ints kept whether or not obs is
        #: attached: one integer add per page access costs the same at
        #: every level.  ``attach_obs`` publishes them.  A leaf mark is a
        #: ``mark_dirty`` of a leaf; its write-back may come later, and
        #: once for many marks.
        self.hit_count = 0
        self.miss_count = 0
        self.write_back_count = 0
        self.leaf_mark_count = 0
        self.eviction_count = 0
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the cache tallies as counters: hits, misses,
        evictions, write-backs, leaf dirty-marks.

        A *hit* is any ``get_node`` served from the internal cache, the
        operation cache, or the resident LRU; a *miss* reads the disk.
        Write-backs count every dirty page written (operation end, LRU
        eviction, write-through, and explicit ``flush``).  The cached
        internal nodes and resident LRU pages are gauges.  The attach
        cascades to the disk manager so one call wires the whole stack.
        """
        self._obs_published = republish(self._obs_published, obs, {
            "buffer.hits": lambda: self.hit_count,
            "buffer.misses": lambda: self.miss_count,
            "buffer.write_backs": lambda: self.write_back_count,
            "buffer.leaf_marks": lambda: self.leaf_mark_count,
            "buffer.evictions": lambda: self.eviction_count,
        }, {
            "buffer.internal_cached": self.cached_internal_nodes,
            "buffer.lru_resident": lambda: len(self._lru),
        })
        attach = getattr(self.disk, "attach_obs", None)
        if attach is not None:
            attach(obs)

    # -- operation scope ---------------------------------------------------

    def operation(self) -> _OperationScope:
        """Group page accesses into one logical operation.

        Nested uses are flattened into the outermost operation, so a
        clean-upon-touch step nested inside an insert shares the insert's
        page accesses, as in the paper.
        """
        return self._op_scope

    @property
    def in_operation(self) -> bool:
        return self._op_depth > 0

    def _flush_op_cache(self) -> int:  # holds: latch
        """Write back the operation cache; returns leaf pages written.

        Dirty pages go out in ascending page-id order so a file-backed
        store sees one sequential sweep rather than hash-order seeks.
        """
        written = 0
        if self.leaf_cache_pages:
            # Hand the operation's pages to the resident LRU; dirty pages
            # are written back on eviction instead of at operation end.
            for page_id, node in self._op_leaf_cache.items():
                self._lru_insert(
                    page_id, node, dirty=page_id in self._dirty_leaves
                )
        else:
            for page_id in sorted(self._dirty_leaves):
                node = self._op_leaf_cache[page_id]
                self.disk.write_page(page_id, self._page_bytes(node))
                self.stats.record_write(is_leaf=True)
                written += 1
            self.write_back_count += written
        self._dirty_leaves.clear()
        self._op_leaf_cache.clear()
        return written

    def _page_bytes(self, node: "Node") -> bytes:
        """The page image to write for ``node``.

        Re-emits the cached clean image when the node was never dirtied
        since its last encode/decode; ``mark_dirty`` clears the cache, so
        a stale image can never reach the disk.
        """
        data = node.cached_bytes
        if data is None:
            data = self.codec.encode(node)
            node.cached_bytes = data
        return data

    # -- resident leaf LRU (buffer-size ablation) ----------------------------

    def _lru_insert(self, page_id: int, node: "Node", dirty: bool) -> None:
        if page_id in self._lru:
            del self._lru[page_id]  # refresh recency
        self._lru[page_id] = node
        if dirty:
            self._lru_dirty.add(page_id)
        while len(self._lru) > self.leaf_cache_pages:
            victim_id = next(iter(self._lru))
            self._lru_evict(victim_id)

    def _lru_evict(self, page_id: int) -> None:
        node = self._lru.pop(page_id)
        self.eviction_count += 1
        if page_id in self._lru_dirty:
            self._lru_dirty.discard(page_id)
            self.disk.write_page(page_id, self._page_bytes(node))
            self.stats.record_write(is_leaf=True)
            self.write_back_count += 1

    def _lru_get(self, page_id: int) -> "Node":
        node = self._lru.pop(page_id)
        self._lru[page_id] = node  # refresh recency
        return node

    # -- node access ---------------------------------------------------------

    def get_node(self, page_id: int) -> "Node":  # holds: latch
        """Fetch a node, charging I/O according to the accounting model."""
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=True)
        node = self._internal_cache.get(page_id)
        if node is not None:
            self.hit_count += 1
            return node
        node = self._op_leaf_cache.get(page_id)
        if node is not None:
            self.hit_count += 1
            return node
        if page_id in self._lru:
            node = self._lru_get(page_id)
            self.hit_count += 1
            if self.in_operation:
                # Move into the operation cache, carrying the dirty flag.
                del self._lru[page_id]
                self._op_leaf_cache[page_id] = node
                if page_id in self._lru_dirty:
                    self._lru_dirty.discard(page_id)
                    self._dirty_leaves.add(page_id)
            return node
        data = self.disk.read_page(page_id)
        node = self.codec.decode(page_id, data)
        self.stats.record_read(is_leaf=node.is_leaf)
        self.miss_count += 1
        if node.is_leaf:
            if self.in_operation:
                self._op_leaf_cache[page_id] = node
            elif self.leaf_cache_pages:
                self._lru_insert(page_id, node, dirty=False)
        else:
            self._internal_cache[page_id] = node
        return node

    def charge_leaf_reads(self, page_ids: Iterable[int]) -> None:
        """Charge buffered leaf reads without materialising the nodes.

        Accounting-equivalent to ``get_node`` on each page inside one
        :meth:`operation`, for callers that already know the pages'
        contents (the query mirror answers from memory but must still pay
        the paper's per-leaf read cost): cache hits and misses are
        recorded identically, checksums are still verified on every page
        actually read, and with a resident LRU configured the decoded
        page enters the LRU exactly as an operation flush would have left
        it.  Callers must pass distinct page ids and must not be inside
        an open operation (an operation's cache would have deduplicated
        repeat reads; this path has no cache to do so).
        """
        lru = self._lru
        record_read = self.stats.record_read
        read_page = self.disk.read_page
        verify = self.codec.checksums
        n_hits = 0
        n_misses = 0
        for page_id in page_ids:
            if page_id in lru:
                self._lru_get(page_id)  # refresh recency
                n_hits += 1
                continue
            data = read_page(page_id)
            record_read(True)
            n_misses += 1
            if self.leaf_cache_pages:
                self._lru_insert(
                    page_id,
                    self.codec.decode(page_id, data),
                    dirty=False,
                )
            elif verify:
                self.codec.verify_page(page_id, data)
        # Settle the cache tallies once per charge batch: this runs on
        # the mirror-served query path, where per-page increments are
        # measurable against the metrics-level overhead budget.
        self.hit_count += n_hits
        self.miss_count += n_misses

    def peek_node(self, page_id: int) -> "Node":  # holds: latch
        """Read a node *without* charging I/O or touching any cache.

        Serves from whichever cache currently holds the page (so dirty
        in-memory state is always visible) and otherwise decodes straight
        off the disk image; the decoded node is deliberately **not**
        entered into any cache and no read is recorded.  This is the
        accessor for volatile acceleration structures — e.g. the query
        mirror's build walk — whose construction must not perturb the
        paper's leaf-I/O accounting.  It must never be used on an
        operation's data path: pages read here bypass the once-per-
        operation accounting contract entirely.
        """
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=False)
        node = self._internal_cache.get(page_id)
        if node is not None:
            return node
        node = self._op_leaf_cache.get(page_id)
        if node is not None:
            return node
        node = self._lru.get(page_id)
        if node is not None:
            return node
        return self.codec.decode(page_id, self.disk.peek(page_id))

    def residency(self, page_id: int) -> str:  # holds: latch
        """Which buffer layer currently holds ``page_id``.

        Returns ``"internal"``, ``"op"`` (operation-scoped leaf cache),
        ``"lru"``, or ``"disk"``.  Pure inspection: no cache is touched
        and no I/O is charged — the EXPLAIN traversals call this right
        before ``get_node`` to report the hit/miss a visit is about to
        take without perturbing the accounting they are explaining.
        """
        if page_id in self._internal_cache:
            return "internal"
        if page_id in self._op_leaf_cache:
            return "op"
        if page_id in self._lru:
            return "lru"
        return "disk"

    def mark_dirty(self, node: "Node") -> None:  # holds: latch
        """Record that ``node`` was modified and must reach disk.

        Also invalidates the node's cached page image and coordinate
        column block: the in-memory state has diverged from the bytes it
        was decoded from (or last encoded to), so the next write must
        re-encode and the next kernel call must rebuild its columns.
        """
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=True)
        self.version += 1
        node.cached_bytes = None
        node.columns = node.area_rows = None
        if node.is_leaf:
            self.leaf_mark_count += 1
            if self.in_operation:
                self._op_leaf_cache[node.page_id] = node
                self._dirty_leaves.add(node.page_id)
            elif self.leaf_cache_pages:
                self._lru_insert(node.page_id, node, dirty=True)
            else:
                self.disk.write_page(
                    node.page_id, self._page_bytes(node)
                )
                self.stats.record_write(is_leaf=True)
                self.write_back_count += 1
        else:
            self._internal_cache[node.page_id] = node
            self._dirty_internal.add(node.page_id)

    def new_node(self, is_leaf: bool) -> "Node":
        """Allocate a fresh page and return its (dirty) node.

        A new leaf costs one leaf write when the operation completes; it is
        never charged a read.
        """
        # Local import: the node model depends on this package (via the
        # codec), so importing it at module load time would be circular.
        from repro.rtree.node import Node

        page_id = self.disk.allocate()
        node = Node(page_id, is_leaf)
        self.mark_dirty(node)
        return node

    def free_node(self, node: "Node") -> None:  # holds: latch
        """Release a node's page (leaf condense / root collapse)."""
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=True)
        self.version += 1
        page_id = node.page_id
        self._internal_cache.pop(page_id, None)
        self._dirty_internal.discard(page_id)
        self._op_leaf_cache.pop(page_id, None)
        self._dirty_leaves.discard(page_id)
        self._lru.pop(page_id, None)
        self._lru_dirty.discard(page_id)
        self.disk.free(page_id)

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty page to disk (internal pages included).

        Internal writes are counted on the ``internal_writes`` channel; the
        headline leaf metric is unaffected, matching the paper's model where
        directory maintenance happens in the background.
        """
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=True)
        if self.in_operation:
            raise RuntimeError("flush() inside an operation")
        self._flush_op_cache()
        for page_id in sorted(self._lru_dirty):
            node = self._lru[page_id]
            self.disk.write_page(page_id, self._page_bytes(node))
            self.stats.record_write(is_leaf=True)
            self.write_back_count += 1
        self._lru_dirty.clear()
        for page_id in sorted(self._dirty_internal):
            node = self._internal_cache[page_id]
            self.disk.write_page(page_id, self._page_bytes(node))
            self.stats.record_write(is_leaf=False)
            self.write_back_count += 1
        self._dirty_internal.clear()

    def checkpoint(self) -> None:
        """Make every written page durable: flush all dirty pages, then
        sync the underlying store (a no-op for the in-memory disk, a real
        fsync + atomic metadata write for :class:`FileDiskManager`).

        This is the durability tick of the crash-simulation harness: the
        state as of the last completed ``checkpoint()`` is what a crash
        is guaranteed to preserve.
        """
        self.flush()
        sync = getattr(self.disk, "sync", None)
        if sync is not None:
            sync()

    def drop_volatile(self) -> None:  # holds: latch
        """Forget all cached nodes *without* writing them.

        Combined with :meth:`flush` this simulates the crash model of
        Section 3.4: ``flush(); drop_volatile()`` leaves the on-disk tree
        intact while discarding every in-memory structure.
        """
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "caches", write=True)
        self.version += 1
        self._internal_cache.clear()
        self._dirty_internal.clear()
        self._op_leaf_cache.clear()
        self._dirty_leaves.clear()
        self._lru.clear()
        self._lru_dirty.clear()

    # -- introspection -----------------------------------------------------------

    def cached_internal_nodes(self) -> int:
        return len(self._internal_cache)
