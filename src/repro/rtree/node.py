"""R-tree node and entry objects.

A node is one disk page.  Leaf entries follow the paper exactly:

* classic R-tree / R*-tree / FUR-tree leaf entry: ``(MBR_o, p_o)`` where the
  pointer ``p_o`` doubles as the object identifier — 40 bytes on disk;
* RUM-tree leaf entry (Section 3.1): ``(MBR_o, p_o, oid, stamp)`` —
  56 bytes on disk, which is what gives the RUM-tree its smaller leaf
  fanout and the ~10% search-cost penalty observed in Section 5.

Internal (directory) entries are ``(MBR_c, p_c)`` — 40 bytes.

Leaf nodes additionally carry ``prev_leaf``/``next_leaf`` page ids forming
the doubly-linked circular ring that the RUM-tree's cleaning tokens walk
(Section 3.3.1).  Non-RUM trees simply leave the ring untouched.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from repro import kernels

from .geometry import Rect

#: Disk page id used to mean "no page".
NO_PAGE = -1

#: Bytes per on-disk leaf entry in the classic layout: 4 float64 MBR
#: coordinates plus one 8-byte pointer/oid.
CLASSIC_LEAF_ENTRY_BYTES = 40

#: Bytes per on-disk RUM-tree leaf entry: classic layout plus an 8-byte oid
#: and an 8-byte stamp (Section 3.1).
RUM_LEAF_ENTRY_BYTES = 56

#: Bytes per on-disk directory entry: MBR plus child page id.
INDEX_ENTRY_BYTES = 40

#: Fixed per-node header: flags, entry count, prev/next leaf pointers and
#: padding.  See :mod:`repro.storage.codec` for the exact layout.
NODE_HEADER_BYTES = 32


class LeafEntry:
    """One indexed object instance inside a leaf node.

    ``stamp`` is only meaningful in the RUM-tree, where it is the globally
    unique insertion stamp used to tell the latest entry from obsolete
    entries.  Classic trees keep it at 0 and never serialise it.
    """

    __slots__ = ("rect", "oid", "stamp")

    def __init__(self, rect: Rect, oid: int, stamp: int = 0):
        self.rect = rect
        self.oid = oid
        self.stamp = stamp

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeafEntry):
            return NotImplemented
        return (
            self.rect == other.rect
            and self.oid == other.oid
            and self.stamp == other.stamp
        )

    def __hash__(self) -> int:
        return hash((self.rect, self.oid, self.stamp))

    def __repr__(self) -> str:
        return f"LeafEntry({self.rect!r}, oid={self.oid}, stamp={self.stamp})"


class IndexEntry:
    """One directory entry: the MBR of a child node plus its page id."""

    __slots__ = ("rect", "child_id")

    def __init__(self, rect: Rect, child_id: int):
        self.rect = rect
        self.child_id = child_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexEntry):
            return NotImplemented
        return self.rect == other.rect and self.child_id == other.child_id

    def __hash__(self) -> int:
        return hash((self.rect, self.child_id))

    def __repr__(self) -> str:
        return f"IndexEntry({self.rect!r}, child={self.child_id})"


Entry = Union[LeafEntry, IndexEntry]


class Node:
    """One R-tree node, mapped 1:1 onto a disk page.

    The node does not know its parent: parent relationships live in the
    tree's in-memory parent directory (see DESIGN.md), which keeps leaf
    pages free of volatile back-pointers while still enabling the cleaner's
    bottom-up MBR adjustment.

    ``cached_bytes`` holds the exact on-disk page image of the node's
    current state when one is known (set by the codec on decode and by the
    buffer pool after an encode).  Invariant: any mutation of the node must
    clear it — :meth:`repro.storage.buffer.BufferPool.mark_dirty` does —
    so a non-``None`` value can always be written back verbatim, skipping
    a re-encode of never-dirtied pages.

    ``columns`` caches the node's coordinate column block (see
    :mod:`repro.kernels`): a columnar snapshot of every entry MBR that
    the batch kernels consume.  ``area_rows`` caches a directory node's
    ``kernels.area_rows`` over that block, the area order ChooseSubtree
    scans.  ``mark_dirty`` clears both with ``cached_bytes``
    (``RTreeBase._set_child`` then puts back a block and rows it
    patched), so a non-``None`` block always reflects the entry list and
    non-``None`` rows always reflect the block.  Internal nodes amortise
    one block across many searches (they are pinned); leaf blocks live
    for the duration of one operation.
    """

    __slots__ = (
        "page_id", "is_leaf", "entries", "prev_leaf", "next_leaf",
        "cached_bytes", "columns", "area_rows",
    )

    def __init__(
        self,
        page_id: int,
        is_leaf: bool,
        entries: Optional[List[Entry]] = None,
        prev_leaf: int = NO_PAGE,
        next_leaf: int = NO_PAGE,
    ):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.entries: List[Entry] = entries if entries is not None else []
        self.prev_leaf = prev_leaf
        self.next_leaf = next_leaf
        self.cached_bytes: Optional[bytes] = None
        self.columns: Optional[Any] = None
        self.area_rows: Optional[list] = None

    def mbr(self) -> Rect:
        """The MBR covering all entries; raises on an empty node."""
        return Rect.union_all(e.rect for e in self.entries)

    def coord_block(self) -> Any:
        """The cached coordinate column block of this node's entry MBRs.

        Built on first use and memoised in ``columns`` until the next
        ``mark_dirty`` (see the class docstring for the invalidation
        contract).  All bulk kernel calls against this node — search
        masks, MINDIST scans, ChooseSubtree enlargements — consume this
        one snapshot.
        """
        block = self.columns
        if block is None:
            block = self.columns = kernels.block_from_entries(self.entries)
        return block

    def take(self, indices: Sequence[int]) -> List[Entry]:
        """The entries at ``indices``, in that order."""
        entries = self.entries
        return [entries[i] for i in indices]

    def rects_at(self, slots: Sequence[int]) -> List[Rect]:
        """The MBRs of the entries at ``slots``, in that order."""
        entries = self.entries
        return [entries[i].rect for i in slots]

    def rows_at(
        self,
        slots: Sequence[int],
        oids: Sequence[int],
        stamps: Optional[Sequence[int]],
    ) -> List[tuple]:
        """The answer rows ``(oid, x1, y1, x2, y2)`` of the entries at
        ``slots`` — ``(oid, x1, y1, x2, y2, stamp)`` unless ``stamps`` is
        ``None`` — lifted out of the coordinate block with no ``Rect`` or
        entry built; ``oids`` / ``stamps`` are the leaf's id columns."""
        _n, xs1, ys1, xs2, ys2 = self.coord_block()
        if stamps is None:
            return [(oids[i], xs1[i], ys1[i], xs2[i], ys2[i]) for i in slots]
        return [
            (oids[i], xs1[i], ys1[i], xs2[i], ys2[i], stamps[i])
            for i in slots
        ]

    def add_entry(self, entry: Entry) -> None:
        """Append ``entry`` after the last slot (then ``mark_dirty``, as
        after any edit)."""
        self.entries.append(entry)

    def id_columns(self) -> Tuple[List[int], List[int]]:
        """The oid and stamp columns of a leaf, in slot order."""
        entries = self.entries
        return [e.oid for e in entries], [e.stamp for e in entries]

    def drop_slots(self, slots: Sequence[int]) -> None:
        """Remove the entries at ``slots`` (ascending); the rest keep
        their order."""
        entries = self.entries
        for slot in reversed(slots):
            del entries[slot]

    def __len__(self) -> int:
        return len(self.entries)

    def find_child_index(self, child_id: int) -> int:
        """Position of the directory entry pointing at ``child_id``.

        Raises ``KeyError`` when the child is not referenced by this node,
        which would indicate a corrupted parent directory.
        """
        for i, entry in enumerate(self.entries):
            if entry.child_id == child_id:
                return i
        raise KeyError(
            f"node {self.page_id} has no entry for child {child_id}"
        )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "index"
        return (
            f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
        )


class LazyNode(Node):
    """A leaf node whose entries are decoded on first access.

    The codec's lazy path parses only the 32-byte page header; the entry
    region stays raw in ``_page_bytes`` until something touches
    ``entries``.  Operations that never do — a query pruning the leaf via
    its parent MBR never even reads it, but also recovery walks, ring
    traversals, and entry-count checks (``len(node)``) — skip the full
    Python-object materialisation entirely.

    The raw source bytes are kept separately from ``cached_bytes``:
    ``mark_dirty`` clears the latter, but a header-only mutation (the leaf
    ring's prev/next pointers) leaves the entry region valid, so thawing
    from ``_page_bytes`` stays sound.  Replacing ``entries`` wholesale goes
    through the property setter, which detaches the raw bytes.

    While the node is unmaterialised, :meth:`coord_block` decodes the
    coordinate columns straight off the raw page bytes (one bulk kernel
    call, no entry objects), so a range query tests a whole leaf before
    anything is built.  What is built for the matches depends on who
    asks: the baselines :meth:`take` them, which materialises only the
    requested entries; the RUM-tree reads :meth:`id_columns`, lets the
    memo filter them, and lifts the survivors' rectangles out of the same
    block with :meth:`rects_at` — no entry is materialised at all.

    The update path edits the same image: ``add_entry``, ``id_columns``,
    ``drop_slots`` and ``mbr`` work on ``_page_bytes``/``_entry_count``,
    authoritative until a full page or a structural change reads
    ``entries`` and thaws; the codec re-packs only such a leaf's header.
    ``mark_dirty`` clears ``cached_bytes``/``columns`` as for any node.
    """

    __slots__ = ("_entries", "_entry_count", "_codec", "_page_bytes")

    def __init__(
        self,
        page_id: int,
        is_leaf: bool,
        entry_count: int,
        prev_leaf: int,
        next_leaf: int,
        codec,
        page_bytes: bytes,
    ):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.prev_leaf = prev_leaf
        self.next_leaf = next_leaf
        self.cached_bytes = page_bytes
        self.columns = self.area_rows = None
        self._entries: Optional[List[Entry]] = None
        self._entry_count = entry_count
        self._codec = codec
        self._page_bytes = page_bytes

    @property
    def entries(self) -> List[Entry]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._codec.decode_entries(
                self.is_leaf, self._entry_count, self._page_bytes
            )
        return entries

    @entries.setter
    def entries(self, value: List[Entry]) -> None:
        self._entries = value
        self._page_bytes = None
        self.columns = None

    def coord_block(self) -> Any:
        """Column block, decoded from the raw page bytes when possible.

        An unmaterialised leaf never builds entry objects for this: the
        codec lifts the coordinate columns out of the page image in one
        bulk call.  Once thawed (or rewritten), the block derives from the
        live entry list like any other node.
        """
        block = self.columns
        if block is None:
            if self._entries is None:
                block = self._codec.decode_block(
                    self._entry_count, self._page_bytes
                )
            else:
                block = kernels.block_from_entries(self._entries)
            self.columns = block
        return block

    def take(self, indices: Sequence[int]) -> List[Entry]:
        """The entries at ``indices``, materialising only those.

        On an unmaterialised leaf this decodes just the requested slots
        from the page image — the baselines' query path and the kNN
        stream; a thawed leaf answers from the entry list.
        """
        entries = self._entries
        if entries is None:
            return self._codec.decode_entries_at(self._page_bytes, indices)
        return [entries[i] for i in indices]

    def rects_at(self, slots: Sequence[int]) -> List[Rect]:
        """The MBRs at ``slots`` — on an unmaterialised leaf lifted out of
        the coordinate block the window test just read, built as the codec
        builds them, with no entry around them."""
        if self._entries is not None:
            return super().rects_at(slots)
        _n, xs1, ys1, xs2, ys2 = self.coord_block()
        out: List[Rect] = []
        append = out.append
        new_rect = Rect.__new__
        for i in slots:
            r = new_rect(Rect)
            r.xmin = xs1[i]
            r.ymin = ys1[i]
            r.xmax = xs2[i]
            r.ymax = ys2[i]
            append(r)
        return out

    @property
    def materialized(self) -> bool:
        """True once the entry list has been built (tests/introspection)."""
        return self._entries is not None

    @property
    def page_image(self) -> Optional[bytes]:
        """The page whose entry region is current (its header may not
        be), or ``None`` once thawed."""
        return self._page_bytes if self._entries is None else None

    def add_entry(self, entry: Entry) -> None:
        count = self._entry_count
        if self._entries is not None or count >= self._codec.leaf_cap:
            super().add_entry(entry)
            return
        self._page_bytes = self._codec.splice_entry(
            self._page_bytes, count, entry
        )
        self._entry_count = count + 1

    def id_columns(self) -> Tuple[List[int], List[int]]:
        if self._entries is not None or not self._codec.rum_leaves:
            return super().id_columns()
        return self._codec.id_columns(self._entry_count, self._page_bytes)

    def drop_slots(self, slots: Sequence[int]) -> None:
        if self._entries is not None:
            super().drop_slots(slots)
            return
        self._page_bytes = self._codec.drop_slots(self._page_bytes, slots)
        self._entry_count -= len(slots)

    def mbr(self) -> Rect:
        if self._entries is not None:
            return super().mbr()
        return Rect(*kernels.bounds(self.coord_block()))

    def __len__(self) -> int:
        entries = self._entries
        return self._entry_count if entries is None else len(entries)


def leaf_capacity(node_size: int, entry_bytes: int) -> int:
    """Maximum number of leaf entries that fit a page of ``node_size`` bytes.

    The paper's Table 1 sweeps node sizes 1024–8192; the fanout falls out of
    this computation, e.g. 8192-byte pages hold 204 classic entries but only
    145 RUM entries.
    """
    capacity = (node_size - NODE_HEADER_BYTES) // entry_bytes
    if capacity < 4:
        raise ValueError(
            f"node size {node_size} too small for entry size {entry_bytes}"
        )
    return capacity


def index_capacity(node_size: int) -> int:
    """Maximum number of directory entries per internal page."""
    return leaf_capacity(node_size, INDEX_ENTRY_BYTES)
