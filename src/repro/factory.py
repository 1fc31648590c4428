"""Convenience constructors wiring a complete storage stack under a tree.

Every tree needs a disk, a codec, shared I/O counters, and a buffer pool;
the RUM-tree optionally needs a write-ahead log.  These helpers build the
whole stack with the paper's defaults (8192-byte nodes, Section 5.1.2) so
examples, tests, and benchmarks stay short::

    from repro.factory import build_rum_tree

    tree = build_rum_tree(node_size=8192, inspection_ratio=0.2)
    tree.insert_object(1, Rect.from_point(0.5, 0.5))

The created stack is reachable from the tree: ``tree.buffer``,
``tree.buffer.disk``, ``tree.stats``, and ``tree.wal``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.rum import RECOVERY_NONE, RUMTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
from repro.rtree.fur import FURTree
from repro.rtree.rstar import RStarTree
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.disk import DiskManager
from repro.storage.iostats import IOStats
from repro.storage.wal import WriteAheadLog

#: The node size the paper settles on after Figure 11 ("we fix the node
#: size at 8192 bytes").
DEFAULT_NODE_SIZE = 8192


def build_storage(
    node_size: int = DEFAULT_NODE_SIZE,
    rum_leaves: bool = False,
    stats: Optional[IOStats] = None,
    leaf_cache_pages: int = 0,
) -> BufferPool:
    """Create a disk + codec + buffer stack sharing one counter set.

    ``leaf_cache_pages`` enables the optional resident leaf LRU (0 = the
    paper's no-leaf-cache cost model; see the buffer ablation).
    """
    stats = stats if stats is not None else IOStats()
    disk = DiskManager(node_size)
    codec = NodeCodec(node_size, rum_leaves=rum_leaves)
    return BufferPool(disk, codec, stats, leaf_cache_pages=leaf_cache_pages)


def build_rstar_tree(
    node_size: int = DEFAULT_NODE_SIZE,
    leaf_cache_pages: int = 0,
    obs: Optional["Observability"] = None,
    **tree_kwargs,
) -> RStarTree:
    """An R*-tree baseline on a fresh storage stack."""
    tree = RStarTree(
        build_storage(node_size, leaf_cache_pages=leaf_cache_pages),
        **tree_kwargs,
    )
    if obs is not None:
        tree.attach_obs(obs)
    return tree


def build_fur_tree(
    node_size: int = DEFAULT_NODE_SIZE,
    leaf_cache_pages: int = 0,
    obs: Optional["Observability"] = None,
    **tree_kwargs,
) -> FURTree:
    """A FUR-tree baseline (bottom-up updates) on a fresh storage stack."""
    tree = FURTree(
        build_storage(node_size, leaf_cache_pages=leaf_cache_pages),
        **tree_kwargs,
    )
    if obs is not None:
        tree.attach_obs(obs)
    return tree


def build_rum_tree(
    node_size: int = DEFAULT_NODE_SIZE,
    recovery_option: Optional[str] = None,
    leaf_cache_pages: int = 0,
    obs: Optional["Observability"] = None,
    memo_dir: Optional[str] = None,
    memo_spill_budget: Optional[int] = None,
    **tree_kwargs,
) -> RUMTree:
    """A RUM-tree on a fresh storage stack (RUM leaf layout).

    A write-ahead log is attached automatically when ``recovery_option``
    is ``"II"`` or ``"III"``.  Passing ``memo_dir`` stands the Update
    Memo on a run tier (:class:`~repro.core.memo_lsm.RunStore`) rooted
    at that directory (``memo_spill_budget`` bytes of RAM; leveled
    merges, :data:`~repro.core.memo_lsm.LEVEL_RATIO`), sharing the
    stack's I/O counters so run traffic lands in
    ``stats.memo_reads``/``memo_writes``.
    """
    buffer = build_storage(
        node_size, rum_leaves=True, leaf_cache_pages=leaf_cache_pages
    )
    wal: Optional[WriteAheadLog] = None
    if recovery_option is not None and recovery_option != RECOVERY_NONE:
        wal = WriteAheadLog(node_size, buffer.stats)
    if memo_dir is not None:
        from repro.core.memo_lsm import DEFAULT_SPILL_BUDGET, SpillingUpdateMemo

        tree_kwargs["memo"] = SpillingUpdateMemo(
            memo_dir,
            spill_budget=(
                DEFAULT_SPILL_BUDGET if memo_spill_budget is None
                else memo_spill_budget
            ),
            stats=buffer.stats,
        )
    elif memo_spill_budget is not None:
        raise ValueError(
            "memo_spill_budget needs memo_dir "
            "(the disk-tiered memo must live somewhere)"
        )
    tree = RUMTree(
        buffer,
        recovery_option=recovery_option,
        wal=wal,
        **tree_kwargs,
    )
    if obs is not None:
        tree.attach_obs(obs)
    return tree
