"""Tests for the node model and the binary page codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtree.geometry import Rect
from repro.rtree.node import (
    CLASSIC_LEAF_ENTRY_BYTES,
    INDEX_ENTRY_BYTES,
    NO_PAGE,
    NODE_HEADER_BYTES,
    RUM_LEAF_ENTRY_BYTES,
    IndexEntry,
    LeafEntry,
    Node,
    index_capacity,
    leaf_capacity,
)
from repro.storage.codec import CHECKSUM_OFFSET, NodeCodec, PageOverflowError

coords = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def leaf_entries(draw, with_stamp: bool) -> LeafEntry:
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    oid = draw(st.integers(min_value=0, max_value=2**40))
    stamp = draw(st.integers(min_value=0, max_value=2**40)) if with_stamp else 0
    return LeafEntry(Rect(x1, y1, x2, y2), oid, stamp)


class TestCapacities:
    def test_paper_fanouts_at_8192(self):
        # 8192-byte pages: 204 classic leaf entries vs 145 RUM entries —
        # the fanout difference behind the RUM-tree's ~10% search overhead.
        assert leaf_capacity(8192, CLASSIC_LEAF_ENTRY_BYTES) == 204
        assert leaf_capacity(8192, RUM_LEAF_ENTRY_BYTES) == 145
        assert index_capacity(8192) == 204

    @pytest.mark.parametrize("node_size", [1024, 2048, 4096, 8192])
    def test_capacity_matches_layout(self, node_size):
        for entry_bytes in (CLASSIC_LEAF_ENTRY_BYTES, RUM_LEAF_ENTRY_BYTES):
            cap = leaf_capacity(node_size, entry_bytes)
            assert NODE_HEADER_BYTES + cap * entry_bytes <= node_size
            assert NODE_HEADER_BYTES + (cap + 1) * entry_bytes > node_size

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            leaf_capacity(64, CLASSIC_LEAF_ENTRY_BYTES)


class TestNode:
    def test_mbr(self):
        node = Node(
            0,
            True,
            [
                LeafEntry(Rect(0.1, 0.1, 0.2, 0.2), 1),
                LeafEntry(Rect(0.5, 0.4, 0.9, 0.6), 2),
            ],
        )
        assert node.mbr() == Rect(0.1, 0.1, 0.9, 0.6)

    def test_find_child_index(self):
        node = Node(
            0,
            False,
            [
                IndexEntry(Rect(0, 0, 0.5, 0.5), 7),
                IndexEntry(Rect(0.5, 0.5, 1, 1), 9),
            ],
        )
        assert node.find_child_index(9) == 1
        with pytest.raises(KeyError):
            node.find_child_index(42)

    def test_len_and_repr(self):
        node = Node(3, True, [LeafEntry(Rect.from_point(0.5, 0.5), 1)])
        assert len(node) == 1
        assert "leaf" in repr(node)

    def test_entry_equality(self):
        a = LeafEntry(Rect.from_point(0.1, 0.1), 5, 7)
        b = LeafEntry(Rect.from_point(0.1, 0.1), 5, 7)
        assert a == b and hash(a) == hash(b)
        assert a != LeafEntry(Rect.from_point(0.1, 0.1), 5, 8)
        ia = IndexEntry(Rect(0, 0, 1, 1), 4)
        ib = IndexEntry(Rect(0, 0, 1, 1), 4)
        assert ia == ib and hash(ia) == hash(ib)


class TestCodecRoundtrip:
    def _roundtrip(self, codec: NodeCodec, node: Node) -> Node:
        return codec.decode(node.page_id, codec.encode(node))

    def test_empty_leaf(self):
        codec = NodeCodec(512)
        node = Node(5, True, [], prev_leaf=3, next_leaf=9)
        back = self._roundtrip(codec, node)
        assert back.is_leaf and back.entries == []
        assert back.prev_leaf == 3 and back.next_leaf == 9

    def test_classic_leaf_drops_stamp(self):
        codec = NodeCodec(512, rum_leaves=False)
        node = Node(
            1, True, [LeafEntry(Rect(0.1, 0.2, 0.3, 0.4), 77, stamp=123)]
        )
        back = self._roundtrip(codec, node)
        assert back.entries[0].oid == 77
        assert back.entries[0].stamp == 0  # classic layout has no stamp

    def test_rum_leaf_preserves_stamp(self):
        codec = NodeCodec(512, rum_leaves=True)
        node = Node(
            1, True, [LeafEntry(Rect(0.1, 0.2, 0.3, 0.4), 77, stamp=123)]
        )
        back = self._roundtrip(codec, node)
        assert back.entries[0].oid == 77
        assert back.entries[0].stamp == 123

    def test_internal_node(self):
        codec = NodeCodec(512)
        node = Node(
            2,
            False,
            [
                IndexEntry(Rect(0, 0, 0.5, 1), 10),
                IndexEntry(Rect(0.5, 0, 1, 1), 11),
            ],
        )
        back = self._roundtrip(codec, node)
        assert not back.is_leaf
        assert back.entries == node.entries

    def test_no_page_sentinel_survives(self):
        codec = NodeCodec(512)
        node = Node(0, True, [])
        back = self._roundtrip(codec, node)
        assert back.prev_leaf == NO_PAGE and back.next_leaf == NO_PAGE

    def test_encode_pads_to_page_size(self):
        codec = NodeCodec(1024)
        node = Node(0, True, [LeafEntry(Rect.from_point(0.5, 0.5), 1)])
        assert len(codec.encode(node)) == 1024

    def test_overflow_rejected(self):
        codec = NodeCodec(512, rum_leaves=True)
        entries = [
            LeafEntry(Rect.from_point(0.5, 0.5), i)
            for i in range(codec.leaf_cap + 1)
        ]
        with pytest.raises(PageOverflowError):
            codec.encode(Node(0, True, entries))

    def test_decode_wrong_length_rejected(self):
        codec = NodeCodec(512)
        with pytest.raises(ValueError):
            codec.decode(0, b"\x00" * 100)

    @pytest.mark.parametrize("checksums", [False, True])
    @pytest.mark.parametrize("is_leaf", [True, False])
    def test_decode_rejects_an_overstated_count(self, is_leaf, checksums):
        # The header count is a u16 no checksum need cover (they are off
        # by default, and a stored crc of 0 passes as legacy when on).
        codec = NodeCodec(512, rum_leaves=True, checksums=checksums)
        cap = codec.leaf_cap if is_leaf else codec.index_cap
        rect = Rect.from_point(0.5, 0.5)
        entries = [
            LeafEntry(rect, i, i) if is_leaf else IndexEntry(rect, i)
            for i in range(cap)
        ]
        page = codec.encode(Node(3, is_leaf, entries))
        assert len(codec.decode(3, page)) == cap
        for claimed in (cap + 1, 60000):
            forged = (
                page[:2] + claimed.to_bytes(2, "little")
                + page[4:CHECKSUM_OFFSET] + bytes(4)
                + page[CHECKSUM_OFFSET + 4:]
            )
            with pytest.raises(PageOverflowError, match="page 3"):
                codec.decode(3, forged)

    def test_disk_and_codec_size_must_match(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import DiskManager
        from repro.storage.iostats import IOStats

        with pytest.raises(ValueError):
            BufferPool(DiskManager(512), NodeCodec(1024), IOStats())

    @given(
        st.lists(leaf_entries(with_stamp=True), max_size=8),
        st.integers(min_value=-1, max_value=100),
        st.integers(min_value=-1, max_value=100),
    )
    def test_rum_leaf_roundtrip_property(self, entries, prev, next_):
        codec = NodeCodec(1024, rum_leaves=True)
        node = Node(7, True, entries, prev_leaf=prev, next_leaf=next_)
        back = codec.decode(7, codec.encode(node))
        assert back.entries == entries
        assert (back.prev_leaf, back.next_leaf) == (prev, next_)

    @given(st.lists(leaf_entries(with_stamp=False), max_size=10))
    def test_classic_leaf_roundtrip_property(self, entries):
        codec = NodeCodec(1024, rum_leaves=False)
        node = Node(7, True, entries)
        back = codec.decode(7, codec.encode(node))
        assert back.entries == entries

    def test_entry_byte_constants(self):
        assert CLASSIC_LEAF_ENTRY_BYTES == 40
        assert RUM_LEAF_ENTRY_BYTES == 56
        assert INDEX_ENTRY_BYTES == 40
