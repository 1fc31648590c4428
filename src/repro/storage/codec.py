"""Binary page layout for R-tree nodes.

Pages are fixed-size byte blocks (Table 1 of the paper sweeps node sizes of
1024, 2048, 4096 and 8192 bytes).  The codec makes node fanout physically
meaningful: capacity is derived from the byte layout, so the RUM-tree's
larger leaf entries (56 bytes vs. 40) automatically produce the smaller leaf
fanout that explains its ~10% search-cost overhead in Section 5.

Layout
------

Header (32 bytes)::

    offset  size  field
    0       1     is_leaf flag
    1       1     padding
    2       2     number of entries (uint16)
    4       4     padding
    8       8     prev_leaf page id (int64; leaf ring, Section 3.3.1)
    16      8     next_leaf page id (int64)
    24      4     page checksum (crc32 of the page with this field zeroed;
                  0 = page written without a checksum)
    28      4     reserved

Entries, densely packed after the header::

    directory entry (40 B): xmin ymin xmax ymax  (float64 x4) | child (int64)
    classic leaf    (40 B): xmin ymin xmax ymax | oid/p_o (int64)
    RUM leaf        (56 B): xmin ymin xmax ymax | p_o | oid | stamp (int64 x3)

Hot-path design
---------------

Encode and decode are the innermost loops of the whole simulator (every
counted leaf I/O passes through them), so the codec avoids all per-call
format-string construction and per-entry Python-call overhead:

* **encode** is a single ``pack`` of one precompiled full-page
  :class:`struct.Struct` (header + ``count`` entries + trailing padding),
  cached per (page size, layout, count) in a module-level table — no
  byte concatenation, no separate padding allocation, no ``pack_into``;
* **decode** bulk-unpacks the entry region with one precompiled batch
  Struct and materialises entries by grouping the flat value tuple with
  the ``zip(it, it, ...)`` idiom, building ``Rect``/entry objects through
  ``__new__`` + direct slot stores (skipping the ``__init__`` frames —
  page images round-trip values that were validated when the rectangle
  was first constructed);
* the **lazy leaf path** (``decode`` of a leaf page) parses only the
  32-byte header and returns a :class:`~repro.rtree.node.LazyNode` that
  thaws its entries on first access, so header-only consumers (entry
  counts, ring walks, recovery traversals) never materialise entries;
  an update edits that page image in place (``splice_entry``,
  ``id_columns``, ``drop_slots``) and **encode** of a still-frozen leaf
  packs 32 bytes.

Page checksums
--------------

Four of the header's reserved bytes hold a crc32 over the whole page
(computed with the checksum field itself zeroed), so a torn or corrupted
page image is *detected* instead of silently decoded into garbage
entries.  Checksumming is off by default — the in-memory experiment path
never sees torn writes and its codec round-trip is the hottest loop in
the repository — and switched on (``NodeCodec(..., checksums=True)``)
by the stacks that actually face crashes: the file-backed persistence
layer and the crash-simulation harness.  A stored checksum of 0 means
"written without a checksum" (all pre-checksum pages read back as 0
there), and verification skips such legacy pages; freshly computed
checksums that happen to be 0 are remapped so 0 is never written.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Sequence, Tuple
from zlib import crc32

from repro import kernels
from repro.rtree.geometry import Rect
from repro.rtree.node import (
    CLASSIC_LEAF_ENTRY_BYTES,
    INDEX_ENTRY_BYTES,
    NODE_HEADER_BYTES,
    RUM_LEAF_ENTRY_BYTES,
    IndexEntry,
    LazyNode,
    LeafEntry,
    Node,
    index_capacity,
    leaf_capacity,
)

_HEADER_FMT = "BxHxxxxqqI4x"
_HEADER = struct.Struct("<" + _HEADER_FMT)
if _HEADER.size != NODE_HEADER_BYTES:
    raise RuntimeError(
        f"header format {_HEADER_FMT!r} packs {_HEADER.size} bytes, "
        f"expected NODE_HEADER_BYTES={NODE_HEADER_BYTES}"
    )

#: Byte offset of the crc32 checksum field inside the page header.
CHECKSUM_OFFSET = 24
_CRC = struct.Struct("<I")

_INDEX_FMT = "4dq"
_CLASSIC_FMT = "4dq"
_RUM_FMT = "4d3q"

#: Single leaf entries, for splicing one into a page image.
_CLASSIC_ENTRY = struct.Struct("<" + _CLASSIC_FMT)
_RUM_ENTRY = struct.Struct("<" + _RUM_FMT)

#: (entry format, count) -> precompiled batch unpack kernel.
_BATCH_CACHE: Dict[Tuple[str, int], struct.Struct] = {}

#: (page size, entry format, count) -> precompiled full-page pack kernel
#: covering header, entries and trailing padding in one format.
_PAGE_CACHE: Dict[Tuple[int, str, int], struct.Struct] = {}


def _batch_struct(fmt: str, count: int) -> struct.Struct:
    """The precompiled unpack kernel for ``count`` entries of layout ``fmt``."""
    key = (fmt, count)
    kernel = _BATCH_CACHE.get(key)
    if kernel is None:
        kernel = _BATCH_CACHE[key] = struct.Struct("<" + fmt * count)
    return kernel


def _page_struct(
    node_size: int, fmt: str, entry_bytes: int, count: int
) -> struct.Struct:
    """The full-page pack kernel for ``count`` entries of layout ``fmt``."""
    key = (node_size, fmt, count)
    kernel = _PAGE_CACHE.get(key)
    if kernel is None:
        pad = node_size - NODE_HEADER_BYTES - count * entry_bytes
        kernel = _PAGE_CACHE[key] = struct.Struct(
            f"<{_HEADER_FMT}{fmt * count}{pad}x"
        )
        if kernel.size != node_size:
            raise RuntimeError(
                f"page kernel for {count}x{fmt!r} packs {kernel.size} "
                f"bytes, expected the page size {node_size}"
            )
    return kernel


class PageOverflowError(RuntimeError):
    """Raised when a node holds, or a page header claims, more entries
    than a page can store."""


class PageChecksumError(RuntimeError):
    """A page image fails its crc32 — torn write or corruption.

    Raised instead of decoding, so damaged pages can never masquerade as
    valid nodes: a torn leaf would otherwise come back with a plausible
    header and garbage entries.
    """

    def __init__(self, page_id: int, stored: int, computed: int) -> None:
        super().__init__(
            f"page {page_id}: checksum mismatch "
            f"(stored {stored:#010x}, computed {computed:#010x}) — "
            f"torn write or corruption"
        )
        self.page_id = page_id
        self.stored = stored
        self.computed = computed


def _page_crc(data: bytes) -> int:
    """crc32 of a page with its checksum field read as zero; a computed 0
    is remapped, because a stored 0 means "no checksum"."""
    crc = crc32(data[:CHECKSUM_OFFSET])
    crc = crc32(data[CHECKSUM_OFFSET + 4:], crc32(b"\x00\x00\x00\x00", crc))
    return crc or 0xFFFFFFFF


def stamp_checksum(data: bytes) -> bytes:
    """``data`` with its header checksum field set to the page's crc32.

    Usable on any page image (the field is zeroed before hashing, so
    re-stamping is idempotent).
    """
    return (
        data[:CHECKSUM_OFFSET]
        + _CRC.pack(_page_crc(data))
        + data[CHECKSUM_OFFSET + 4:]
    )


def checksum_ok(data: bytes) -> bool:
    """Whether a page image matches its stored checksum.

    Pages stamped with 0 (written before checksumming existed, or by a
    codec with ``checksums=False``) verify trivially — there is nothing
    to check them against.
    """
    (stored,) = _CRC.unpack_from(data, CHECKSUM_OFFSET)
    return stored == 0 or stored == _page_crc(data)


def _verify_or_raise(page_id: int, data: bytes) -> None:
    (stored,) = _CRC.unpack_from(data, CHECKSUM_OFFSET)
    if stored:
        crc = _page_crc(data)
        if crc != stored:
            raise PageChecksumError(page_id, stored, crc)


class NodeCodec:
    """Encode/decode :class:`~repro.rtree.node.Node` objects to page bytes.

    Parameters
    ----------
    node_size:
        Page size in bytes; all nodes of one tree share it.
    rum_leaves:
        When true, leaf entries use the 56-byte RUM layout carrying the oid
        and the stamp (Section 3.1); otherwise the 40-byte classic layout.
    checksums:
        When true, :meth:`encode` stamps a crc32 into the page header and
        :meth:`decode` verifies it (raising :class:`PageChecksumError` on
        a torn or corrupted image).  Off by default: the in-memory
        simulator never sees torn writes and the codec is its hottest
        loop; the file-backed stacks turn it on.
    """

    def __init__(
        self,
        node_size: int,
        rum_leaves: bool = False,
        checksums: bool = False,
    ) -> None:
        if node_size < 128:
            raise ValueError(f"node size {node_size} is unrealistically small")
        self.node_size = node_size
        self.rum_leaves = rum_leaves
        self.checksums = checksums
        self.leaf_entry_bytes = (
            RUM_LEAF_ENTRY_BYTES if rum_leaves else CLASSIC_LEAF_ENTRY_BYTES
        )
        self.leaf_cap = leaf_capacity(node_size, self.leaf_entry_bytes)
        self.index_cap = index_capacity(node_size)

    # -- encoding ----------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        """Serialise ``node`` into exactly ``node_size`` bytes."""
        count = len(node)
        cap = self.leaf_cap if node.is_leaf else self.index_cap
        if count > cap:
            raise PageOverflowError(
                f"node {node.page_id}: {count} entries exceed capacity {cap}"
            )
        image = node.page_image if isinstance(node, LazyNode) else None
        if image is not None:
            # An unmaterialised leaf: its entry region is current; only
            # the header lives on the node.
            page = _HEADER.pack(
                1, count, node.prev_leaf, node.next_leaf, 0
            ) + image[NODE_HEADER_BYTES:]
            return stamp_checksum(page) if self.checksums else page
        entries = node.entries
        # The checksum field is packed as 0 and stamped afterwards (the
        # crc covers the fully assembled page).
        flat: List[Any] = [
            1 if node.is_leaf else 0, count, node.prev_leaf, node.next_leaf, 0
        ]
        if node.is_leaf:
            if self.rum_leaves:
                # p_o (the tuple pointer) is stored as the oid itself; a
                # real system would store a record id here.
                for e in entries:
                    r = e.rect
                    flat += (
                        r.xmin, r.ymin, r.xmax, r.ymax,
                        e.oid, e.oid, e.stamp,
                    )
                fmt, entry_bytes = _RUM_FMT, RUM_LEAF_ENTRY_BYTES
            else:
                for e in entries:
                    r = e.rect
                    flat += (r.xmin, r.ymin, r.xmax, r.ymax, e.oid)
                fmt, entry_bytes = _CLASSIC_FMT, CLASSIC_LEAF_ENTRY_BYTES
        else:
            for e in entries:
                r = e.rect
                flat += (r.xmin, r.ymin, r.xmax, r.ymax, e.child_id)
            fmt, entry_bytes = _INDEX_FMT, INDEX_ENTRY_BYTES
        page = _page_struct(self.node_size, fmt, entry_bytes, count).pack(
            *flat
        )
        if self.checksums:
            page = stamp_checksum(page)
        return page

    # -- decoding ----------------------------------------------------------

    def decode(self, page_id: int, data: bytes) -> Node:
        """Reconstruct the node stored in ``data`` (a full page).

        A *leaf* page is parsed header-only and comes back as a
        :class:`~repro.rtree.node.LazyNode` whose coordinate columns
        (:meth:`decode_block`) and entries thaw on first access;
        internal pages always decode eagerly (they live in the pinned
        directory cache and are read constantly).
        """
        if len(data) != self.node_size:
            raise ValueError(
                f"page {page_id}: expected {self.node_size} bytes, "
                f"got {len(data)}"
            )
        if self.checksums:
            _verify_or_raise(page_id, data)
        is_leaf_flag, count, prev_leaf, next_leaf, _crc = _HEADER.unpack_from(
            data
        )
        is_leaf = bool(is_leaf_flag)
        cap = self.leaf_cap if is_leaf else self.index_cap
        if count > cap:
            # The entry region is sliced by this count from here on; a
            # header that overstates it would read as a short column.
            raise PageOverflowError(
                f"page {page_id}: header claims {count} entries, "
                f"capacity {cap}"
            )
        if is_leaf:
            return LazyNode(
                page_id, is_leaf, count, prev_leaf, next_leaf, self, data
            )
        node = Node(
            page_id,
            is_leaf,
            self.decode_entries(is_leaf, count, data),
            prev_leaf=prev_leaf,
            next_leaf=next_leaf,
        )
        node.cached_bytes = data
        return node

    def decode_block(self, count: int, data: bytes) -> Any:
        """Coordinate column block of a leaf page's entry region.

        One bulk kernel call over the raw page bytes — no per-entry
        ``struct`` unpacking and no entry objects.  The id/stamp words of
        each entry are never touched; they are materialised on demand by
        :meth:`decode_entries_at` (or a full thaw) when a query actually
        selects the entry.
        """
        return kernels.block_from_buffer(
            data, NODE_HEADER_BYTES, count, self.leaf_entry_bytes
        )

    def decode_entries_at(
        self, data: bytes, indices: Sequence[int]
    ) -> List[Any]:
        """Materialise only the leaf entries at ``indices`` of a page.

        The selective half of the columnar read path: after a kernel mask
        picks the matching slots, just those entries are decoded with a
        single-entry struct per slot.  Builds objects exactly like
        :meth:`decode_entries` does, so selected entries compare equal to
        a full thaw's.
        """
        out: List[Any] = []
        append = out.append
        new_rect = Rect.__new__
        new_entry = LeafEntry.__new__
        base = NODE_HEADER_BYTES
        if self.rum_leaves:
            one = _batch_struct(_RUM_FMT, 1)
            stride = RUM_LEAF_ENTRY_BYTES
            for i in indices:
                x1, y1, x2, y2, _p_o, oid, stamp = one.unpack_from(
                    data, base + i * stride
                )
                r = new_rect(Rect)
                r.xmin = x1
                r.ymin = y1
                r.xmax = x2
                r.ymax = y2
                e = new_entry(LeafEntry)
                e.rect = r
                e.oid = oid
                e.stamp = stamp
                append(e)
        else:
            one = _batch_struct(_CLASSIC_FMT, 1)
            stride = CLASSIC_LEAF_ENTRY_BYTES
            for i in indices:
                x1, y1, x2, y2, oid = one.unpack_from(
                    data, base + i * stride
                )
                r = new_rect(Rect)
                r.xmin = x1
                r.ymin = y1
                r.xmax = x2
                r.ymax = y2
                e = new_entry(LeafEntry)
                e.rect = r
                e.oid = oid
                e.stamp = 0
                append(e)
        return out

    # -- page-image edits (LazyNode, while unmaterialised) -------------------

    def splice_entry(self, data: bytes, slot: int, entry: LeafEntry) -> bytes:
        """``data`` with ``entry`` packed into the free leaf slot ``slot``."""
        r = entry.rect
        if self.rum_leaves:
            packed = _RUM_ENTRY.pack(
                r.xmin, r.ymin, r.xmax, r.ymax,
                entry.oid, entry.oid, entry.stamp,
            )
        else:
            packed = _CLASSIC_ENTRY.pack(
                r.xmin, r.ymin, r.xmax, r.ymax, entry.oid
            )
        at = NODE_HEADER_BYTES + slot * len(packed)
        return data[:at] + packed + data[at + len(packed):]

    def id_columns(
        self, count: int, data: bytes
    ) -> Tuple[List[int], List[int]]:
        """The oid and stamp columns of a RUM leaf page, in slot order."""
        words = memoryview(data)[
            NODE_HEADER_BYTES:NODE_HEADER_BYTES + count * RUM_LEAF_ENTRY_BYTES
        ].cast("q")
        step = RUM_LEAF_ENTRY_BYTES // 8
        return words[5::step].tolist(), words[6::step].tolist()

    def drop_slots(self, data: bytes, slots: Sequence[int]) -> bytes:
        """``data`` without the leaf entries at ``slots`` (ascending): the
        survivors close up in order and the freed tail is zeroed."""
        stride = self.leaf_entry_bytes
        parts: List[bytes] = []
        begin = 0
        for slot in slots:
            end = NODE_HEADER_BYTES + slot * stride
            parts.append(data[begin:end])
            begin = end + stride
        parts.append(data[begin:])
        parts.append(bytes(len(slots) * stride))
        return b"".join(parts)

    def verify_page(self, page_id: int, data: bytes) -> None:
        """Raise :class:`PageChecksumError` when ``data`` fails its stored
        checksum (legacy pages with a stored checksum of 0 pass)."""
        _verify_or_raise(page_id, data)

    def decode_entries(
        self, is_leaf: bool, count: int, data: bytes
    ) -> List[Any]:
        """Materialise the entry list of a page in one pass.

        Shared by the eager decode and the lazy thaw, so both paths build
        identical entries.  Entry objects are constructed via ``__new__``
        plus direct slot stores: the values come from a page image the
        codec itself produced, so re-validating every rectangle would only
        re-check invariants enforced at original construction time.
        """
        if not count:
            return []
        out: List[Any] = []
        append = out.append
        if is_leaf:
            new_rect = Rect.__new__
            new_entry = LeafEntry.__new__
            if self.rum_leaves:
                values = _batch_struct(_RUM_FMT, count).unpack_from(
                    data, NODE_HEADER_BYTES
                )
                it = iter(values)
                for x1, y1, x2, y2, _p_o, oid, stamp in zip(
                    it, it, it, it, it, it, it
                ):
                    r = new_rect(Rect)
                    r.xmin = x1
                    r.ymin = y1
                    r.xmax = x2
                    r.ymax = y2
                    e = new_entry(LeafEntry)
                    e.rect = r
                    e.oid = oid
                    e.stamp = stamp
                    append(e)
            else:
                values = _batch_struct(_CLASSIC_FMT, count).unpack_from(
                    data, NODE_HEADER_BYTES
                )
                it = iter(values)
                for x1, y1, x2, y2, oid in zip(it, it, it, it, it):
                    r = new_rect(Rect)
                    r.xmin = x1
                    r.ymin = y1
                    r.xmax = x2
                    r.ymax = y2
                    e = new_entry(LeafEntry)
                    e.rect = r
                    e.oid = oid
                    e.stamp = 0
                    append(e)
        else:
            new_rect = Rect.__new__
            new_entry = IndexEntry.__new__
            values = _batch_struct(_INDEX_FMT, count).unpack_from(
                data, NODE_HEADER_BYTES
            )
            it = iter(values)
            for x1, y1, x2, y2, child_id in zip(it, it, it, it, it):
                r = new_rect(Rect)
                r.xmin = x1
                r.ymin = y1
                r.xmax = x2
                r.ymax = y2
                e = new_entry(IndexEntry)
                e.rect = r
                e.child_id = child_id
                append(e)
        return out
