"""The shard router: Z-order partition, fan-out queries, migrations.

Partitioning
------------
``n_shards`` (a power of two) fixes ``b = log2(n_shards)`` leading bits
of the 32-bit Morton key; shard ``i`` owns exactly the prefix cell
:func:`repro.rtree.zorder.shard_region` describes.  An object is routed
by the *centre of its new rectangle*, so updates are single-shard
unless the object crosses a cell boundary.

Cross-shard migration (the two-shard stamp-ordering rule)
---------------------------------------------------------
All shards draw stamps from **one shared counter**, so stamps are
comparable across shards and each shard's stream is a strictly
monotone subsequence — per-shard Lemma 1 holds unchanged.  A boundary
crossing becomes:

1. insert on the **new** shard at stamp ``s1`` (a plain memo-based
   insert);
2. memo-only delete on the **old** shard at stamp ``s2 > s1`` (no tree
   page is touched — the paper's cheap-delete is what makes migration
   affordable).

Insert-before-delete means a concurrent fan-out query can momentarily
see the object on both shards but never on neither; the merge dedups
per oid by **maximum stamp**, so the transient duplicate always
resolves to the newer rectangle.  Both steps run under the object's
stripe lock (one lock per oid stripe), which serialises migrations of
the same object; the two shard latches are taken one at a time, never
nested, so no latch-order cycle exists.  See docs/SHARDING.md for the
full argument.

Concurrency
-----------
Every operation holds the target shard's latch (a mutex), a query
too: a search fills the shard's buffer caches and moves a spilled memo's
run-file positions, so two searches on one shard are two writers.  A
query that names several shards visits them in turn on the caller's
thread, one latch at a time; shards serve in parallel only across
callers.  The optional ``io_latency`` models one disk channel per
shard: after releasing the structure latch, the operation sleeps its
leaf I/O times ``io_latency`` while holding the shard's I/O-channel
lock, so a multi-shard query sleeps on each shard's channel in turn,
and a delete sleeps the cleaning it drove.
Sleeps of different callers on different shards overlap (the GIL is
released), which is exactly the parallelism sharding buys on real
hardware.
"""

from __future__ import annotations

import time
from math import isfinite
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.concurrency import racecheck
from repro.concurrency.primitives import LockLike, make_lock
from repro.core.stamp import StampCounter
from repro.factory import build_rum_tree
from repro.obs.metrics import UNPUBLISHED, republish
from repro.rtree.geometry import Rect
from repro.rtree.zorder import (
    QUANT_SLACK,
    shard_bits,
    shard_for_point,
    shard_region,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rum import RUMTree
    from repro.obs import Observability

#: Default shard-tree node size: the serving layer favours small nodes
#: (shard trees are small; short descents beat page capacity).
DEFAULT_SHARD_NODE_SIZE = 2048

#: Oid stripes of the routing directory; each stripe has its own lock, so
#: updates of different objects rarely contend.
STRIPES = 64


def _require_finite(rect: Rect) -> None:
    """A NaN rectangle is an object no window finds and no cell owns, an
    infinite one an infinite query pad: neither gets past the router."""
    if not (isfinite(rect.xmin) and isfinite(rect.ymin)
            and isfinite(rect.xmax) and isfinite(rect.ymax)):
        raise ValueError(f"non-finite coordinate in {rect!r}")


#: The sort key of an answer row: its oid.
_OID = itemgetter(0)


class Shard:
    """One partition: a full RUM-tree stack plus its cell and I/O lock."""

    __slots__ = ("index", "tree", "region", "io_lock")

    def __init__(self, index: int, tree: "RUMTree", region: Rect) -> None:
        self.index = index
        self.tree = tree
        self.region = region
        #: Serialises the shard's simulated disk channel (io_latency>0).
        self.io_lock: LockLike = make_lock()


class ShardRouter:
    """Routes updates, deletes, and fan-out queries over Z-order shards.

    Parameters
    ----------
    n_shards:
        Power-of-two shard count (1 = a single-tree deployment behind
        the same API, the benchmark baseline).
    node_size, recovery_option, memo_dir, tree_kwargs:
        Forwarded to :func:`repro.factory.build_rum_tree` per shard
        (``memo_dir`` gets a ``shard-<i>`` subdirectory each; with a
        recovery option each shard keeps its own WAL).
    io_latency:
        Seconds of simulated disk time per leaf access, served by one
        I/O channel per shard (0 disables the simulation).

    A multi-shard query visits its shards in turn on the caller's thread.
    """

    def __init__(
        self,
        n_shards: int = 4,
        *,
        node_size: int = DEFAULT_SHARD_NODE_SIZE,
        recovery_option: Optional[str] = None,
        memo_dir: Optional[str] = None,
        io_latency: float = 0.0,
        obs: Optional["Observability"] = None,
        **tree_kwargs: Any,
    ) -> None:
        racecheck.from_env()  # REPRO_RACECHECK=1 activates the detector
        self._bits = shard_bits(n_shards)
        self.n_shards = n_shards
        self.io_latency = io_latency
        #: One stamp stream for every shard: cross-shard comparability
        #: is the serving layer's ordering rule (module docstring).
        self.stamps = StampCounter()
        self.shards: List[Shard] = []
        for i in range(n_shards):
            shard_memo_dir = (
                f"{memo_dir}/shard-{i}" if memo_dir is not None else None
            )
            tree = build_rum_tree(
                node_size=node_size,
                recovery_option=recovery_option,
                memo_dir=shard_memo_dir,
                stamp_counter=self.stamps,
                **tree_kwargs,
            )
            self.shards.append(Shard(i, tree, Rect(*shard_region(i, self._bits))))
        # Routing directory: oid -> shard index, striped by oid.  Every
        # access happens under the oid's stripe lock.
        self._stripe_locks: List[LockLike] = [
            make_lock() for _ in range(STRIPES)
        ]
        self._directory: List[Dict[int, int]] = [{} for _ in range(STRIPES)]
        # The fan-out test's cells (_targets): every region grown by the
        # quantisation slack, once.
        self._cells = [
            (s.region.xmin - QUANT_SLACK, s.region.ymin - QUANT_SLACK,
             s.region.xmax + QUANT_SLACK, s.region.ymax + QUANT_SLACK, s.index)
            for s in self.shards
        ]
        # Largest half-extent of any rectangle ever routed: queries grow
        # their window by it so an object whose rect spills past its
        # centre's cell is still found.  Monotone, so read without a lock
        # and written under one after a re-check (docs/SHARDING.md).
        self._extent_lock: LockLike = make_lock()
        self._max_half_extent = 0.0
        # Router tallies (written under _stats_lock); attach_obs
        # publishes the migrations and fan-out queries.
        self._stats_lock: LockLike = make_lock()
        self._n_updates = 0
        self._n_migrations = 0
        self._n_queries = 0
        self._n_fanout = 0
        self._n_knn = 0
        self._obs_published = UNPUBLISHED
        if obs is not None:
            self.attach_obs(obs)

    # -- attach cascades ---------------------------------------------------

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the router's tallies and cascade to every shard's stack.

        Shards share one registry, so every count (updates, queries,
        memo probes, page reads ...) is the sum over the shards; size
        gauges (height, memo entries, drift) read the last shard
        attached.
        """
        self._obs_published = republish(self._obs_published, obs, {
            "router.migrations": lambda: self._n_migrations,
            "router.fanout_queries": lambda: self._n_fanout,
        }, {
            "router.shards": lambda: float(self.n_shards),
            "router.objects": lambda: float(self.count_objects()),
        })
        for shard in self.shards:
            shard.tree.attach_obs(obs)

    # -- routing helpers ---------------------------------------------------

    def shard_for_rect(self, rect: Rect) -> int:
        """Index of the shard ``rect``'s centre routes to."""
        return shard_for_point(
            (rect.xmin + rect.xmax) * 0.5,
            (rect.ymin + rect.ymax) * 0.5,
            self._bits,
        )

    def _note_extent(self, rect: Rect) -> None:
        half = max(rect.xmax - rect.xmin, rect.ymax - rect.ymin) * 0.5
        if half > self._max_half_extent:
            with self._extent_lock:
                if half > self._max_half_extent:
                    self._max_half_extent = half

    def _query_pad(self) -> float:
        return self._max_half_extent

    def _targets(self, window: Rect) -> List[int]:
        """The shards a query of ``window`` visits: the comparisons of
        ``zorder.shards_for_window`` on the pad-grown window, over cells
        held since ``__init__``."""
        pad = self._max_half_extent
        wx1, wy1 = window.xmin - pad, window.ymin - pad
        wx2, wy2 = window.xmax + pad, window.ymax + pad
        wx1 = 0.0 if wx1 < 0.0 else 1.0 if wx1 > 1.0 else wx1
        wy1 = 0.0 if wy1 < 0.0 else 1.0 if wy1 > 1.0 else wy1
        wx2 = 0.0 if wx2 < 0.0 else 1.0 if wx2 > 1.0 else wx2
        wy2 = 0.0 if wy2 < 0.0 else 1.0 if wy2 > 1.0 else wy2
        return [
            index
            for xmin, ymin, xmax, ymax, index in self._cells
            if wx1 <= xmax and xmin <= wx2 and wy1 <= ymax and ymin <= wy2
        ]

    def _on_shard(
        self, shard: Shard, call: Callable[..., Any], *args: Any
    ) -> Any:
        """``call(*args)`` under ``shard``'s latch, then its leaf I/O on
        the shard's disk channel: the router's one way into a shard's
        tree (:meth:`close` alone takes a latch itself).  Only
        when ``io_latency > 0``: the leaf I/O is the change of the shard's
        ``leaf_reads + leaf_writes`` across the call, read inside the
        latch, where no other operation moves them."""
        latch = shard.tree.latch
        if self.io_latency <= 0.0:
            latch.acquire()
            try:
                return call(*args)
            finally:
                latch.release()
        stats = shard.tree.stats
        latch.acquire()
        try:
            before = stats.leaf_reads + stats.leaf_writes
            result = call(*args)
            leaf_io = stats.leaf_reads + stats.leaf_writes - before
        finally:
            latch.release()
        if leaf_io > 0:
            with shard.io_lock:
                time.sleep(leaf_io * self.io_latency)
        return result

    # -- update path -------------------------------------------------------

    def upsert(self, oid: int, rect: Rect) -> Dict[str, Any]:
        """Insert ``oid`` or move it to ``rect`` (routes by new centre).

        Returns ``{"shard": target, "migrated": bool}``.  A boundary
        crossing inserts on the new shard first, then memo-deletes on
        the old one, both under the oid's stripe lock (see the module
        docstring for why this order is the safe one).
        """
        _require_finite(rect)
        target = self.shard_for_rect(rect)
        self._note_extent(rect)
        stripe = oid % STRIPES
        with self._stripe_locks[stripe]:
            if (checker := racecheck.ACTIVE) is not None:
                checker.access(self, f"directory[{stripe}]", write=True)
            directory = self._directory[stripe]
            old = directory.get(oid)
            migrated = old is not None and old != target
            shard = self.shards[target]
            tree = shard.tree
            if migrated:
                # Step 1: insert on the new shard (stamp s1).
                self._on_shard(shard, tree.insert_object, oid, rect)
            else:
                self._on_shard(shard, tree.update_object, oid, None, rect)
            directory[oid] = target  # only once the shard has taken it
            if migrated:
                # Step 2: memo-only delete on the old shard (stamp
                # s2 > s1): it writes no tree page of its own, the old
                # entries become garbage for the old shard's cleaner, and
                # the cleaning it drives sleeps on the old shard's channel.
                old_shard = self.shards[old]
                self._on_shard(old_shard, old_shard.tree.delete_object, oid)
        with self._stats_lock:
            self._n_updates += 1
            if migrated:
                self._n_migrations += 1
        return {"shard": target, "migrated": migrated}

    def delete(self, oid: int) -> bool:
        """Remove ``oid``; returns whether it existed."""
        stripe = oid % STRIPES
        with self._stripe_locks[stripe]:
            if (checker := racecheck.ACTIVE) is not None:
                checker.access(self, f"directory[{stripe}]", write=True)
            old = self._directory[stripe].pop(oid, None)
            if old is None:
                return False
            shard = self.shards[old]
            self._on_shard(shard, shard.tree.delete_object, oid)
        with self._stats_lock:
            self._n_updates += 1
        return True

    # -- query fan-out -----------------------------------------------------

    def query(self, window: Rect) -> List[tuple]:
        """All live objects intersecting ``window``, merged over shards,
        as flat rows ``(oid, x1, y1, x2, y2)`` in oid order.

        The window is grown by the largest object half-extent before
        computing the fan-out (an object routes by its centre but its
        rectangle may spill into the window from a neighbouring cell);
        each shard still evaluates the *original* window.  The merge
        dedups per oid by maximum stamp — during a migration the object
        may transiently exist on two shards, and the higher stamp is by
        construction the newer rectangle.  One shard's memo-filtered
        answer already holds exactly one latest entry per object, so a
        window that names a single shard skips the merge.  The rows are
        the shards' own (``RUMTree.search_rows``), which the server packs
        as they are.
        """
        _require_finite(window)
        targets = self._targets(window)
        if len(targets) == 1:
            shard = self.shards[targets[0]]
            rows = self._on_shard(shard, shard.tree.search_rows, window, False)
        else:
            best: Dict[int, tuple] = {}
            for index in targets:
                shard = self.shards[index]
                part = self._on_shard(
                    shard, shard.tree.search_rows, window, True
                )
                for row in part:  # (oid, x1, y1, x2, y2, stamp)
                    seen = best.get(row[0])
                    if seen is None or row[5] > seen[5]:
                        best[row[0]] = row
            rows = [row[:5] for row in best.values()]
        with self._stats_lock:
            self._n_queries += 1
            if len(targets) > 1:
                self._n_fanout += 1
        # Oids are unique, so the order is the oids' alone; a key sort
        # compares bare ints, which a sort of the tuples themselves does
        # not (about half the time at 46 rows).
        rows.sort(key=_OID)
        return rows

    def nearest_neighbors(self, x: float, y: float, k: int) -> List[tuple]:
        """The ``k`` live objects nearest ``(x, y)``, nearest first, as
        the flat rows of :meth:`query`.

        Every shard contributes at most ``k`` candidates (its own kNN
        answer); the merge dedups by maximum stamp, then takes the ``k``
        globally nearest.  No distance-based shard pruning: with at most
        ``k * n_shards`` candidates the merge is already cheap, and the
        per-shard best-first search prunes internally.
        """
        if k <= 0:
            return []
        best: Dict[int, Tuple[int, float, Rect]] = {}
        for shard in self.shards:
            part = self._on_shard(
                shard, shard.tree.nearest_neighbors, x, y, k, True
            )
            for dist, oid, stamp, rect in part:
                seen = best.get(oid)
                if seen is None or stamp > seen[0]:
                    best[oid] = (stamp, dist, rect)
        ranked = sorted(
            (dist, oid, rect)
            for oid, (_stamp, dist, rect) in best.items()
        )
        with self._stats_lock:
            self._n_knn += 1
        return [
            (oid, rect.xmin, rect.ymin, rect.xmax, rect.ymax)
            for _dist, oid, rect in ranked[:k]
        ]

    # -- introspection -----------------------------------------------------

    def count_objects(self) -> int:
        """Live objects according to the routing directory."""
        return sum(self.shard_object_counts())

    def shard_object_counts(self) -> List[int]:
        """Directory objects per shard (the routing balance)."""
        counts = [0] * self.n_shards
        for stripe in range(STRIPES):
            with self._stripe_locks[stripe]:
                if (checker := racecheck.ACTIVE) is not None:
                    checker.access(
                        self, f"directory[{stripe}]", write=False
                    )
                for target in self._directory[stripe].values():
                    counts[target] += 1
        return counts

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: routing balance, tallies, leaf I/O."""
        with self._stats_lock:
            tallies = {
                "updates": self._n_updates,
                "migrations": self._n_migrations,
                "queries": self._n_queries,
                "knn": self._n_knn,
            }
        per_shard = []
        for shard in self.shards:
            stats = shard.tree.stats
            per_shard.append(
                {
                    "index": shard.index,
                    "region": [
                        shard.region.xmin,
                        shard.region.ymin,
                        shard.region.xmax,
                        shard.region.ymax,
                    ],
                    "leaf_reads": stats.leaf_reads,
                    "leaf_writes": stats.leaf_writes,
                }
            )
        return {
            "n_shards": self.n_shards,
            "objects": self.count_objects(),
            "objects_per_shard": self.shard_object_counts(),
            "stamp": self.stamps.current,
            "tallies": tallies,
            "shards": per_shard,
        }

    def close(self) -> None:
        """Release every shard's spilled-memo run files (idempotent; a
        later probe reopens the file it reads)."""
        for shard in self.shards:
            with shard.tree.latch:
                shard.tree.memo.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
