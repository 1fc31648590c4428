"""Memo-based updates beyond R-trees (the paper's closing claim).

The conclusion of the paper argues the memo-based approach generalises to
"B-trees, quadtrees and Grid Files".  This package substantiates it with
three transplants on the RUM-tree's own :class:`~repro.core.memo.UpdateMemo`,
:class:`~repro.core.stamp.StampCounter` and
:class:`~repro.core.cleaner.GarbageCleaner` (phantom inspection and its
guards included); each supplies only what
:class:`~repro.core.cleaner.MemoHost` asks of a host — its ring of leaves
and what cleaning one ring position means:

* :class:`~repro.extensions.btree.MemoBTree` vs the classic
  :class:`~repro.extensions.btree.BPlusTree`;
* :class:`~repro.extensions.quadtree.MemoQuadtree` vs the classic
  :class:`~repro.extensions.quadtree.PRQuadtree`;
* :class:`~repro.extensions.grid.MemoGrid` vs the classic
  :class:`~repro.extensions.grid.GridFile` (the LUGrid direction).

``python -m repro.experiments extensions`` compares the update costs.
"""

from .btree import BPlusTree, BTreeCodec, BTreeNode, MemoBTree
from .grid import GridFile, MemoGrid
from .quadtree import MemoQuadtree, PRQuadtree

__all__ = [
    "BPlusTree",
    "MemoBTree",
    "BTreeNode",
    "BTreeCodec",
    "GridFile",
    "MemoGrid",
    "PRQuadtree",
    "MemoQuadtree",
]
