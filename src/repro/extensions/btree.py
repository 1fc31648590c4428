"""Memo-based updates for B+-trees (the conclusion's generality claim).

The paper closes with: *"We believe that the memo-based update approach
has potential to support frequent updates in many other indexing
structures, for instances, B-trees, quadtrees and Grid Files."*  This
module substantiates that claim for the B+-tree:

* :class:`BPlusTree` — a classic disk-based B+-tree over float keys with
  the usual top-down update (delete the old key, insert the new one);
* :class:`MemoBTree` — the same tree updated memo-style: an update only
  *inserts* a stamped entry, the shared :class:`~repro.core.memo.UpdateMemo`
  marks older entries obsolete, queries filter through CheckStatus, and the
  RUM-tree's :class:`~repro.core.cleaner.GarbageCleaner` walks the
  (naturally linked) leaf level as its ring.

Both share the storage substrate (paged disk + buffer pool), so their
update costs are directly comparable: a top-down B-tree update costs one
leaf read+write for the delete plus one read+write for the insert (the key
may move to a different leaf), while a memo-based update costs a single
insert — the same 2:1 shape as the R-tree case, without the R-tree's
multi-path search penalty (B-tree searches are single-path, so the gap is
smaller; the extension bench quantifies it).

Keys are floats in [0, 1) — e.g. a one-dimensional position or any scalar
attribute that changes frequently.
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator, List, Tuple

from repro.core.cleaner import MemoHost
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.iostats import IOStats

NODE_HEADER_BYTES = 32
_HEADER = struct.Struct("<BxHxxxxqq8x")

#: key (float64) + oid (int64)
CLASSIC_LEAF_ENTRY_BYTES = 16
#: key + oid + stamp
MEMO_LEAF_ENTRY_BYTES = 24
#: separator key + child page id
INDEX_ENTRY_BYTES = 16

NO_PAGE = -1


class BTreeNode:
    """One B+-tree node.

    Leaves hold ``(key, oid, stamp)`` triples sorted by key and are linked
    left-to-right via ``next_leaf`` (circularly, so the memo variant's
    cleaning token can walk them like the RUM-tree's leaf ring).  Internal
    nodes hold ``children`` (page ids) separated by ``keys``:
    ``len(children) == len(keys) + 1``.
    """

    __slots__ = (
        "page_id",
        "is_leaf",
        "keys",
        "oids",
        "stamps",
        "children",
        "prev_leaf",
        "next_leaf",
        "cached_bytes",
        "columns",
        "area_rows",
    )

    def __init__(self, page_id: int, is_leaf: bool):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: List[float] = []
        self.oids: List[int] = []
        self.stamps: List[int] = []
        self.children: List[int] = []
        self.prev_leaf = NO_PAGE
        self.next_leaf = NO_PAGE
        # Page image matching the current state (see repro.rtree.node.Node);
        # the buffer pool clears it on mark_dirty and reuses it on writes.
        # ``columns`` and ``area_rows`` are part of the same buffer-pool
        # node contract (the pool invalidates them on mark_dirty); a
        # B+-tree has no coordinate columns, so they simply stay None.
        self.cached_bytes = None
        self.columns = self.area_rows = None

    def __len__(self) -> int:
        return len(self.keys)


class BTreeCodec:
    """Binary page layout for :class:`BTreeNode` (buffer-pool compatible)."""

    def __init__(self, node_size: int, memo_leaves: bool):
        self.node_size = node_size
        self.memo_leaves = memo_leaves
        leaf_entry = (
            MEMO_LEAF_ENTRY_BYTES if memo_leaves else CLASSIC_LEAF_ENTRY_BYTES
        )
        self.leaf_cap = (node_size - NODE_HEADER_BYTES) // leaf_entry
        self.index_cap = (
            (node_size - NODE_HEADER_BYTES - 8) // INDEX_ENTRY_BYTES
        )
        if self.leaf_cap < 4 or self.index_cap < 4:
            raise ValueError(f"node size {node_size} too small for a B+-tree")

    def encode(self, node: BTreeNode) -> bytes:
        header = _HEADER.pack(
            1 if node.is_leaf else 0,
            len(node.keys),
            node.prev_leaf,
            node.next_leaf,
        )
        if node.is_leaf:
            if self.memo_leaves:
                flat: List = []
                for key, oid, stamp in zip(
                    node.keys, node.oids, node.stamps
                ):
                    flat.extend((key, oid, stamp))
                body = struct.pack(f"<{'dqq' * len(node.keys)}", *flat)
            else:
                flat = []
                for key, oid in zip(node.keys, node.oids):
                    flat.extend((key, oid))
                body = struct.pack(f"<{'dq' * len(node.keys)}", *flat)
        else:
            flat = [float(k) for k in node.keys]
            body = struct.pack(f"<{len(flat)}d", *flat)
            body += struct.pack(
                f"<{len(node.children)}q", *node.children
            )
        page = header + body
        if len(page) > self.node_size:
            raise ValueError(f"node {node.page_id} exceeds the page size")
        return page + b"\x00" * (self.node_size - len(page))

    def decode(
        self, page_id: int, data: bytes, lazy: bool = False
    ) -> BTreeNode:
        # ``lazy`` is accepted for buffer-pool compatibility; B+-tree pages
        # always decode eagerly.
        is_leaf_flag, count, prev_leaf, next_leaf = _HEADER.unpack_from(data)
        node = BTreeNode(page_id, bool(is_leaf_flag))
        node.prev_leaf = prev_leaf
        node.next_leaf = next_leaf
        offset = NODE_HEADER_BYTES
        if node.is_leaf:
            if self.memo_leaves:
                values = struct.unpack_from(f"<{'dqq' * count}", data, offset)
                node.keys = list(values[0::3])
                node.oids = list(values[1::3])
                node.stamps = list(values[2::3])
            else:
                values = struct.unpack_from(f"<{'dq' * count}", data, offset)
                node.keys = list(values[0::2])
                node.oids = list(values[1::2])
                node.stamps = [0] * count
        else:
            node.keys = list(
                struct.unpack_from(f"<{count}d", data, offset)
            )
            offset += count * 8
            node.children = list(
                struct.unpack_from(f"<{count + 1}q", data, offset)
            )
        node.cached_bytes = data
        return node


class BPlusTree:
    """Classic disk-based B+-tree over ``(key, oid)`` pairs.

    Updates are top-down: locate and remove the old ``(key, oid)`` entry,
    then insert the new one.  Deletion is lazy (no merging) — standard
    engineering practice that keeps the baseline fair rather than
    handicapped.
    """

    name = "B+-tree"

    def __init__(self, node_size: int = 2048, memo_leaves: bool = False):
        stats = IOStats()
        codec = BTreeCodec(node_size, memo_leaves=memo_leaves)
        self.buffer = BufferPool(DiskManager(node_size), codec, stats)
        self.stats = stats
        self.leaf_cap = codec.leaf_cap
        self.index_cap = codec.index_cap
        self.parent = {}
        with self.buffer.operation():
            root = self._new_node(is_leaf=True)
            root.prev_leaf = root.page_id
            root.next_leaf = root.page_id
            self.buffer.mark_dirty(root)
        self.root_id = root.page_id
        self.height = 1

    # -- node plumbing ---------------------------------------------------

    def _new_node(self, is_leaf: bool) -> BTreeNode:
        page_id = self.buffer.disk.allocate()
        node = BTreeNode(page_id, is_leaf)
        self.buffer.mark_dirty(node)
        return node

    def _find_leaf(self, key: float) -> BTreeNode:
        node = self.buffer.get_node(self.root_id)
        while not node.is_leaf:
            i = 0
            while i < len(node.keys) and key >= node.keys[i]:
                i += 1
            node = self.buffer.get_node(node.children[i])
        return node

    # -- operations --------------------------------------------------------

    def insert(self, key: float, oid: int, stamp: int = 0) -> None:
        """Insert one entry (1 leaf read + 1 leaf write, plus splits)."""
        with self.buffer.operation():
            leaf = self._find_leaf(key)
            self._leaf_insert(leaf, key, oid, stamp)

    def _leaf_insert(
        self, leaf: BTreeNode, key: float, oid: int, stamp: int
    ) -> None:
        i = bisect.bisect_right(leaf.keys, key)
        leaf.keys.insert(i, key)
        leaf.oids.insert(i, oid)
        leaf.stamps.insert(i, stamp)
        self.buffer.mark_dirty(leaf)
        if len(leaf.keys) > self.leaf_cap:
            self._split_leaf(leaf)

    def _split_leaf(self, leaf: BTreeNode) -> BTreeNode:
        """Move the upper half to a new leaf linked in right after
        ``leaf``; returns that sibling."""
        mid = len(leaf.keys) // 2
        sibling = self._new_node(is_leaf=True)
        sibling.keys = leaf.keys[mid:]
        sibling.oids = leaf.oids[mid:]
        sibling.stamps = leaf.stamps[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.oids = leaf.oids[:mid]
        leaf.stamps = leaf.stamps[:mid]
        # Link the sibling into the circular leaf list.
        sibling.prev_leaf = leaf.page_id
        sibling.next_leaf = leaf.next_leaf
        if leaf.next_leaf == leaf.page_id:
            leaf.prev_leaf = sibling.page_id
        else:
            successor = self.buffer.get_node(leaf.next_leaf)
            successor.prev_leaf = sibling.page_id
            self.buffer.mark_dirty(successor)
        leaf.next_leaf = sibling.page_id
        self.buffer.mark_dirty(leaf)
        self.buffer.mark_dirty(sibling)
        self._push_up(leaf, sibling.keys[0], sibling)
        return sibling

    def _push_up(
        self, left: BTreeNode, separator: float, right: BTreeNode
    ) -> None:
        if left.page_id == self.root_id:
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [left.page_id, right.page_id]
            self.buffer.mark_dirty(new_root)
            self.parent[left.page_id] = new_root.page_id
            self.parent[right.page_id] = new_root.page_id
            self.root_id = new_root.page_id
            self.height += 1
            return
        parent = self.buffer.get_node(self.parent[left.page_id])
        i = parent.children.index(left.page_id)
        parent.keys.insert(i, separator)
        parent.children.insert(i + 1, right.page_id)
        self.parent[right.page_id] = parent.page_id
        self.buffer.mark_dirty(parent)
        if len(parent.keys) > self.index_cap:
            self._split_internal(parent)

    def _split_internal(self, node: BTreeNode) -> None:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        sibling = self._new_node(is_leaf=False)
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        for child in sibling.children:
            self.parent[child] = sibling.page_id
        self.buffer.mark_dirty(node)
        self.buffer.mark_dirty(sibling)
        self._push_up(node, separator, sibling)

    def delete(self, key: float, oid: int) -> bool:
        """Remove the entry ``(key, oid)``; returns False when absent.

        Lazy deletion: leaves may underflow (they are merged only when
        they empty completely into their neighbour's ring position).
        """
        with self.buffer.operation():
            leaf = self._find_leaf(key)
            for i, (k, o) in enumerate(zip(leaf.keys, leaf.oids)):
                if o == oid and k == key:
                    del leaf.keys[i]
                    del leaf.oids[i]
                    del leaf.stamps[i]
                    self.buffer.mark_dirty(leaf)
                    return True
            return False

    # -- moving-key protocol ---------------------------------------------------

    def insert_object(self, oid: int, key: float) -> None:
        self.insert(key, oid)

    def update_object(self, oid: int, old_key: float, new_key: float) -> None:
        """Top-down update: separate delete + insert (two disk operations,
        as in the R-tree baselines)."""
        if not self.delete(old_key, oid):
            raise KeyError(oid)
        self.insert(new_key, oid)

    def delete_object(self, oid: int, old_key: float) -> None:
        if not self.delete(old_key, oid):
            raise KeyError(oid)

    def range_search(self, low: float, high: float) -> List[Tuple[int, float]]:
        """All ``(oid, key)`` with ``low <= key <= high``."""
        rows = self._latest(list(self._scan(low, high)))
        return [(oid, key) for key, oid, _stamp in rows]

    def _latest(self, rows: List[tuple]) -> List[tuple]:
        """Hook: the memo variant hides obsolete entries from queries."""
        return rows

    def _scan(
        self, low: float, high: float
    ) -> Iterator[Tuple[float, int, int]]:
        with self.buffer.operation():
            leaf = self._find_leaf(low)
            # Duplicate keys equal to a separator may straddle a split:
            # step back while the previous ring leaf still reaches ``low``.
            # The entry page bounds the walk — with a ring full of equal
            # keys the loop would otherwise never terminate.
            entry_page = leaf.page_id
            while leaf.prev_leaf not in (NO_PAGE, leaf.page_id, entry_page):
                prev = self.buffer.get_node(leaf.prev_leaf)
                if not prev.keys or prev.keys[-1] < low:
                    break
                if leaf.keys and prev.keys[-1] > leaf.keys[0]:
                    break  # wrapped to the ring's largest keys
                leaf = prev
            start = leaf.page_id
            while True:
                for key, oid, stamp in zip(leaf.keys, leaf.oids, leaf.stamps):
                    if key > high:
                        return
                    if key >= low:
                        yield key, oid, stamp
                if leaf.next_leaf in (NO_PAGE, start):
                    return
                nxt = self.buffer.get_node(leaf.next_leaf)
                # The leaf level is circular: stop when it wraps back to
                # smaller keys instead of walking the whole ring.
                if nxt.keys and leaf.keys and nxt.keys[0] < leaf.keys[0]:
                    return
                leaf = nxt

    # -- introspection ------------------------------------------------------------

    def iter_leaves(self) -> Iterator[BTreeNode]:
        """Uncounted leaf walk (metrics and the cleaner's ring discovery)."""
        stack = [self.root_id]
        while stack:
            node = self.buffer.peek_node(stack.pop())
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def num_entries(self) -> int:
        return sum(len(leaf) for leaf in self.iter_leaves())

    def num_leaves(self) -> int:
        return sum(1 for _ in self.iter_leaves())


class MemoBTree(MemoHost, BPlusTree):
    """B+-tree with memo-based updates — the RUM principle transplanted.

    A :class:`~repro.core.cleaner.MemoHost` like the RUM-tree: the same
    Update Memo, stamp counter and garbage cleaner, over the ring the
    leaf level already is.  A split is the only structural event to
    report; leaves are never merged, so none leaves the ring.
    """

    name = "Memo-B+-tree"

    def __init__(
        self,
        node_size: int = 2048,
        inspection_ratio: float = 0.2,
        clean_upon_touch: bool = True,
        memo_buckets: int = 64,
    ):
        super().__init__(node_size, memo_leaves=True)
        self._wire_memo(inspection_ratio, clean_upon_touch, memo_buckets)

    # -- memo-based operations ---------------------------------------------------

    def insert_object(self, oid: int, key: float) -> None:
        """Inserts and updates are the same operation."""
        stamp = self.stamps.next()
        self.memo.record_update(oid, stamp)
        with self.buffer.operation():
            leaf = self._find_leaf(key)
            if self.clean_upon_touch:
                self.cleaner.note_removed(self._sweep(leaf))
            self._leaf_insert(leaf, key, oid, stamp)
        self._after_update()

    def update_object(self, oid: int, old_key, new_key: float) -> None:
        """One insertion; the old entry just becomes obsolete."""
        self.insert_object(oid, new_key)

    def _split_leaf(self, leaf: BTreeNode) -> BTreeNode:
        sibling = super()._split_leaf(leaf)
        # The upper half now sits one ring position further on, possibly
        # behind a token that has passed the leaf.
        self._shield_obsolete(sibling.oids, sibling.stamps)
        return sibling

    # -- the cleaner's host -----------------------------------------------------------

    def _sweep(self, leaf: BTreeNode) -> int:
        """Drop the leaf's obsolete entries; returns how many."""
        dead = self.memo.sweep_obsolete(leaf.oids, leaf.stamps, len(leaf))
        if dead:
            for column in (leaf.keys, leaf.oids, leaf.stamps):
                for slot in reversed(dead):
                    del column[slot]
            self.buffer.mark_dirty(leaf)
        return len(dead)

    def leaf_ring(self) -> List[int]:
        leaf = next(self.iter_leaves())
        ring = [leaf.page_id]
        while leaf.next_leaf != ring[0]:
            ring.append(leaf.next_leaf)
            leaf = self.buffer.peek_node(leaf.next_leaf)
        return ring

    def clean_at(self, position: int) -> Tuple[int, int]:
        with self.buffer.operation():
            leaf = self.buffer.get_node(position)
            return leaf.next_leaf, self._sweep(leaf)

    def _stored_ids(self) -> Iterator[Tuple[int, int]]:
        for leaf in self.iter_leaves():
            yield from zip(leaf.oids, leaf.stamps)
