"""Memo-based updates for a point quadtree — completing the conclusion's
trio ("B-trees, quadtrees and Grid Files").

A PR (point-region) quadtree over the unit square: leaf buckets hold up to
a page worth of points; a full bucket subdivides into four quadrant
children.  Internal nodes are memory-cached (they are tiny); leaf buckets
are charged one read and one write per touched page, the same accounting
as everywhere else in this repository.

* :class:`PRQuadtree` — classic updates: descend by the old position,
  remove the entry, re-insert at the new position;
* :class:`MemoQuadtree` — memo-based updates: stamp + insert only, with
  the shared :class:`~repro.core.memo.UpdateMemo`, clean-upon-touch, and
  the RUM-tree's :class:`~repro.core.cleaner.GarbageCleaner` walking a
  ring that links the leaf buckets.

Empty sibling quadrants are *not* merged back (lazy deletion), which is
the common engineering choice and keeps both variants comparable.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.cleaner import MemoHost
from repro.storage.iostats import IOStats

CLASSIC_ENTRY_BYTES = 24  # x, y (float64) + oid (int64)
MEMO_ENTRY_BYTES = 32     # + stamp
PAGE_HEADER_BYTES = 32

#: Subdivision stops at this depth; the bucket then grows past its
#: capacity (degenerate duplicate-heavy data would otherwise split
#: forever).
MAX_DEPTH = 16

Entry = Tuple[float, float, int, int]  # x, y, oid, stamp


class _QuadNode:
    """One quadtree node covering the square [x0, x0+size) x [y0, y0+size)."""

    __slots__ = (
        "x0", "y0", "size", "depth", "entries", "children",
        "ring_prev", "ring_next",
    )

    def __init__(self, x0: float, y0: float, size: float, depth: int):
        self.x0 = x0
        self.y0 = y0
        self.size = size
        self.depth = depth
        self.entries: Optional[List[Entry]] = []  # None for internal nodes
        self.children: Optional[List["_QuadNode"]] = None
        #: Neighbours in the memo variant's ring of leaf buckets (the
        #: classic tree leaves every node linked to itself).
        self.ring_prev = self.ring_next = self

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None

    def child_for(self, x: float, y: float) -> "_QuadNode":
        half = self.size / 2.0
        index = (1 if x >= self.x0 + half else 0) + (
            2 if y >= self.y0 + half else 0
        )
        return self.children[index]

    def intersects(self, xmin, ymin, xmax, ymax) -> bool:
        return (
            self.x0 <= xmax
            and xmin <= self.x0 + self.size
            and self.y0 <= ymax
            and ymin <= self.y0 + self.size
        )


class PRQuadtree:
    """Classic PR quadtree with top-down (delete + insert) updates."""

    name = "PR quadtree"

    def __init__(self, page_size: int = 2048, stamped: bool = False):
        entry_bytes = MEMO_ENTRY_BYTES if stamped else CLASSIC_ENTRY_BYTES
        self.bucket_cap = max(2, (page_size - PAGE_HEADER_BYTES) // entry_bytes)
        self.stats = IOStats()
        self.root = _QuadNode(0.0, 0.0, 1.0, 0)

    # -- accounting -----------------------------------------------------------

    def _charge(self, reads: int = 0, writes: int = 0) -> None:
        self.stats.leaf_reads += reads
        self.stats.leaf_writes += writes

    def _pages(self, leaf: _QuadNode) -> int:
        """Bucket page count (over-capacity deep buckets chain pages)."""
        return max(1, -(-len(leaf.entries) // self.bucket_cap))

    # -- descent ---------------------------------------------------------------

    def _find_leaf(self, x: float, y: float) -> _QuadNode:
        node = self.root
        while not node.is_leaf:
            node = node.child_for(x, y)
        return node

    def _split(self, leaf: _QuadNode) -> None:
        half = leaf.size / 2.0
        leaf.children = [
            _QuadNode(leaf.x0, leaf.y0, half, leaf.depth + 1),
            _QuadNode(leaf.x0 + half, leaf.y0, half, leaf.depth + 1),
            _QuadNode(leaf.x0, leaf.y0 + half, half, leaf.depth + 1),
            _QuadNode(leaf.x0 + half, leaf.y0 + half, half, leaf.depth + 1),
        ]
        entries = leaf.entries
        leaf.entries = None
        for entry in entries:
            child = leaf.child_for(entry[0], entry[1])
            child.entries.append(entry)
        # Four fresh buckets written out.
        self._charge(writes=4)

    def _on_bucket_touched(self, leaf: _QuadNode) -> None:
        """Hook: ``leaf`` is about to be read and written by an insertion
        (the memo variant cleans it on the way, at no extra I/O)."""

    def _insert_entry(self, entry: Entry) -> _QuadNode:
        leaf = self._find_leaf(entry[0], entry[1])
        self._on_bucket_touched(leaf)
        self._charge(reads=self._pages(leaf), writes=1)
        leaf.entries.append(entry)
        while (
            len(leaf.entries) > self.bucket_cap
            and leaf.depth < MAX_DEPTH
        ):
            self._split(leaf)
            leaf = leaf.child_for(entry[0], entry[1])
        return leaf

    # -- moving-object protocol ---------------------------------------------------

    def insert_object(self, oid: int, x: float, y: float) -> None:
        self._insert_entry((x, y, oid, 0))

    def update_object(self, oid: int, old_pos, new_pos) -> None:
        """Classic update: remove at the old position, insert at the new."""
        self._remove(oid, old_pos)
        self._insert_entry((new_pos[0], new_pos[1], oid, 0))

    def delete_object(self, oid: int, old_pos) -> None:
        self._remove(oid, old_pos)

    def _remove(self, oid: int, old_pos) -> None:
        leaf = self._find_leaf(old_pos[0], old_pos[1])
        self._charge(reads=self._pages(leaf), writes=1)
        for i, entry in enumerate(leaf.entries):
            if entry[2] == oid:
                del leaf.entries[i]
                return
        raise KeyError(oid)

    def range_search(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> List[Tuple[int, float, float]]:
        """All ``(oid, x, y)`` inside the closed query window."""
        rows: List[tuple] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.intersects(xmin, ymin, xmax, ymax):
                continue
            if node.is_leaf:
                self._charge(reads=self._pages(node))
                rows.extend(
                    entry for entry in node.entries
                    if xmin <= entry[0] <= xmax and ymin <= entry[1] <= ymax
                )
            else:
                stack.extend(node.children)
        return [(oid, x, y) for x, y, oid, _stamp in self._latest(rows)]

    def _latest(self, rows: List[tuple]) -> List[tuple]:
        """Hook: the memo variant hides obsolete entries from queries."""
        return rows

    # -- introspection ----------------------------------------------------------

    def iter_leaves(self) -> Iterator[_QuadNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def num_entries(self) -> int:
        return sum(len(leaf.entries) for leaf in self.iter_leaves())

    def num_leaves(self) -> int:
        return sum(1 for _ in self.iter_leaves())

    def depth(self) -> int:
        return max(
            (leaf.depth for leaf in self.iter_leaves()), default=0
        )


class MemoQuadtree(MemoHost, PRQuadtree):
    """PR quadtree with memo-based updates (the RUM principle).

    A :class:`~repro.core.cleaner.MemoHost` whose ring links the leaf
    buckets in depth-first quadrant order; a ring position is the bucket
    node itself.  Quadrants are never merged back, so a split is the only
    structural event: the split bucket leaves the ring and its four
    children enter in its place.
    """

    name = "Memo-quadtree"

    def __init__(
        self,
        page_size: int = 2048,
        inspection_ratio: float = 0.2,
        clean_upon_touch: bool = True,
        memo_buckets: int = 64,
    ):
        super().__init__(page_size, stamped=True)
        self._wire_memo(inspection_ratio, clean_upon_touch, memo_buckets)

    # -- memo-based operations ---------------------------------------------------

    def insert_object(self, oid: int, x: float, y: float) -> None:
        """Inserts and updates are the same operation."""
        stamp = self.stamps.next()
        self.memo.record_update(oid, stamp)
        self._insert_entry((x, y, oid, stamp))
        self._after_update()

    def update_object(self, oid: int, old_pos, new_pos) -> None:
        """One insertion; the old entry becomes obsolete wherever it is."""
        self.insert_object(oid, *new_pos)

    def _on_bucket_touched(self, leaf: _QuadNode) -> None:
        if self.clean_upon_touch:
            self.cleaner.note_removed(self._sweep(leaf))

    def _split(self, leaf: _QuadNode) -> None:
        super()._split(leaf)
        kids = leaf.children
        sole = leaf.ring_next is leaf
        before = kids[3] if sole else leaf.ring_prev
        after = kids[0] if sole else leaf.ring_next
        chain = (before, *kids, after)
        for node, follower in zip(chain, chain[1:]):
            node.ring_next, follower.ring_prev = follower, node
        # To the cleaner this is a dissolution plus four arrivals: a token
        # due at the split bucket visits all four children instead, and
        # what is obsolete in them is shielded as after any other split.
        self.cleaner.on_leaf_dissolved(leaf, kids[0], before)
        moved = [entry for child in kids for entry in child.entries]
        self._shield_obsolete(
            [entry[2] for entry in moved], [entry[3] for entry in moved]
        )

    # -- the cleaner's host -----------------------------------------------------------

    def _sweep(self, leaf: _QuadNode) -> int:
        """Drop the bucket's obsolete entries; returns how many."""
        entries = leaf.entries
        dead = self.memo.sweep_obsolete(
            [entry[2] for entry in entries],
            [entry[3] for entry in entries],
            len(entries),
        )
        for slot in reversed(dead):
            del entries[slot]
        return len(dead)

    def leaf_ring(self) -> List[_QuadNode]:
        ring = [self._find_leaf(0.0, 0.0)]
        while ring[-1].ring_next is not ring[0]:
            ring.append(ring[-1].ring_next)
        return ring

    def clean_at(self, position: _QuadNode) -> Tuple[_QuadNode, int]:
        self._charge(reads=self._pages(position))
        removed = self._sweep(position)
        if removed:
            self._charge(writes=1)
        return position.ring_next, removed

    def _stored_ids(self) -> Iterator[Tuple[int, int]]:
        for leaf in self.iter_leaves():
            for _x, _y, oid, stamp in leaf.entries:
                yield oid, stamp
