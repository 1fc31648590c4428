"""Tests for the memo-based B+-tree and grid-file extensions."""

import random

import pytest

from conftest import assert_windows_match, drive_points
from repro.extensions.btree import BPlusTree, BTreeCodec, BTreeNode, MemoBTree
from repro.extensions.grid import GridFile, MemoGrid


class TestBTreeCodec:
    def test_roundtrip_leaf(self):
        codec = BTreeCodec(512, memo_leaves=True)
        node = BTreeNode(3, True)
        node.keys = [0.1, 0.5, 0.9]
        node.oids = [10, 20, 30]
        node.stamps = [1, 2, 3]
        node.prev_leaf, node.next_leaf = 7, 9
        back = codec.decode(3, codec.encode(node))
        assert back.keys == node.keys
        assert back.oids == node.oids
        assert back.stamps == node.stamps
        assert (back.prev_leaf, back.next_leaf) == (7, 9)

    def test_roundtrip_internal(self):
        codec = BTreeCodec(512, memo_leaves=False)
        node = BTreeNode(4, False)
        node.keys = [0.25, 0.75]
        node.children = [11, 12, 13]
        back = codec.decode(4, codec.encode(node))
        assert back.keys == node.keys
        assert back.children == node.children

    def test_classic_layout_drops_stamps(self):
        codec = BTreeCodec(512, memo_leaves=False)
        node = BTreeNode(1, True)
        node.keys, node.oids, node.stamps = [0.5], [7], [99]
        back = codec.decode(1, codec.encode(node))
        assert back.stamps == [0]

    def test_too_small_page(self):
        with pytest.raises(ValueError):
            BTreeCodec(64, memo_leaves=True)


def _drive_btree(tree, n=200, updates=400, seed=160):
    rng = random.Random(seed)
    keys = {}
    for oid in range(n):
        keys[oid] = rng.random()
        tree.insert_object(oid, keys[oid])
    for _ in range(updates):
        oid = rng.randrange(n)
        new = rng.random()
        tree.update_object(oid, keys[oid], new)
        keys[oid] = new
    return keys


def _assert_ranges_match(tree, keys, seed):
    rng = random.Random(seed)
    for _ in range(30):
        low = rng.random() * 0.8
        high = low + rng.random() * 0.2
        assert sorted(tree.range_search(low, high)) == sorted(
            (oid, k) for oid, k in keys.items() if low <= k <= high
        )


class TestBPlusTree:
    def test_range_search_matches_oracle(self):
        tree = BPlusTree(node_size=512)
        keys = _drive_btree(tree)
        _assert_ranges_match(tree, keys, seed=161)

    def test_duplicate_keys(self):
        tree = BPlusTree(node_size=512)
        for oid in range(100):
            tree.insert_object(oid, 0.5)
        assert len(tree.range_search(0.5, 0.5)) == 100

    def test_update_missing_raises(self):
        tree = BPlusTree(node_size=512)
        with pytest.raises(KeyError):
            tree.update_object(1, 0.5, 0.6)

    def test_delete(self):
        tree = BPlusTree(node_size=512)
        tree.insert_object(1, 0.4)
        tree.delete_object(1, 0.4)
        assert tree.range_search(0.0, 1.0) == []
        with pytest.raises(KeyError):
            tree.delete_object(1, 0.4)

    def test_exactly_one_entry_per_object(self):
        tree = BPlusTree(node_size=512)
        _drive_btree(tree)
        assert tree.num_entries() == 200

    def test_tree_grows(self):
        tree = BPlusTree(node_size=512)
        _drive_btree(tree, n=500, updates=0)
        assert tree.height >= 2
        assert tree.num_leaves() > 4


class TestMemoBTree:
    def test_range_search_filters_obsolete(self):
        tree = MemoBTree(node_size=512, inspection_ratio=0.3)
        keys = _drive_btree(tree)
        _assert_ranges_match(tree, keys, seed=162)

    def test_update_does_not_need_old_key(self):
        tree = MemoBTree(node_size=512)
        tree.insert_object(1, 0.3)
        tree.update_object(1, None, 0.8)
        assert tree.range_search(0.0, 0.5) == []
        assert tree.range_search(0.7, 0.9) == [(1, 0.8)]

    def test_delete_is_memo_only(self):
        tree = MemoBTree(node_size=512, inspection_ratio=0.0,
                         clean_upon_touch=False)
        tree.insert_object(1, 0.5)
        before = tree.stats.leaf_reads + tree.stats.leaf_writes
        tree.delete_object(1)
        assert tree.stats.leaf_reads + tree.stats.leaf_writes == before
        assert tree.range_search(0.0, 1.0) == []

    def test_full_cycle_drains_garbage(self):
        tree = MemoBTree(node_size=512, inspection_ratio=0.0,
                         clean_upon_touch=False)
        keys = _drive_btree(tree, n=100, updates=150)
        assert tree.garbage_count() > 0
        tree.cleaner.run_full_cycle()
        assert tree.garbage_count() == 0
        assert tree.num_entries() == 100
        got = sorted(tree.range_search(0.0, 1.0))
        assert got == sorted(keys.items())

    def test_memo_update_cheaper_than_classic(self):
        classic = BPlusTree(node_size=512)
        memo = MemoBTree(node_size=512, inspection_ratio=0.2)
        _drive_btree(classic, seed=163)
        _drive_btree(memo, seed=163)
        classic_io = classic.stats.leaf_reads + classic.stats.leaf_writes
        memo_io = memo.stats.leaf_reads + memo.stats.leaf_writes
        assert memo_io < classic_io


class TestGridFile:
    def test_range_search_matches_oracle(self):
        grid = GridFile(side=8, page_size=512)
        pos = drive_points(grid, 150, 300, seed=164)
        assert_windows_match(grid, pos, seed=165)

    def test_update_missing_raises(self):
        grid = GridFile(side=4)
        with pytest.raises(KeyError):
            grid.update_object(1, (0.5, 0.5), (0.6, 0.6))

    def test_delete(self):
        grid = GridFile(side=4)
        grid.insert_object(1, 0.5, 0.5)
        grid.delete_object(1, (0.5, 0.5))
        assert grid.range_search(0, 0, 1, 1) == []

    def test_page_overflow_chains(self):
        grid = GridFile(side=1, page_size=128)  # tiny single-cell grid
        for oid in range(50):
            grid.insert_object(oid, 0.5, 0.5)
        assert grid.num_pages() > 1
        assert grid.num_entries() == 50

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            GridFile(side=0)


class TestMemoGrid:
    def test_range_search_filters_obsolete(self):
        grid = MemoGrid(side=8, page_size=512, inspection_ratio=0.3)
        pos = drive_points(grid, 150, 300, seed=164)
        assert_windows_match(grid, pos, seed=166)

    def test_full_sweep_drains_garbage(self):
        grid = MemoGrid(side=6, inspection_ratio=0.0, clean_upon_touch=False)
        drive_points(grid, 100, 200, seed=164)
        assert grid.garbage_count() > 0
        grid.cleaner.run_full_cycle()
        assert grid.garbage_count() == 0
        assert grid.num_entries() == 100

    def test_delete_is_memo_only(self):
        grid = MemoGrid(side=4, inspection_ratio=0.0, clean_upon_touch=False)
        grid.insert_object(1, 0.5, 0.5)
        before = grid.stats.leaf_reads + grid.stats.leaf_writes
        grid.delete_object(1)
        assert grid.stats.leaf_reads + grid.stats.leaf_writes == before
        assert grid.range_search(0, 0, 1, 1) == []

    def test_memo_update_cheaper_than_classic(self):
        classic = GridFile(side=8, page_size=512)
        memo = MemoGrid(side=8, page_size=512, inspection_ratio=0.2)
        drive_points(classic, 150, 300, seed=167)
        drive_points(memo, 150, 300, seed=167)
        classic_io = classic.stats.leaf_reads + classic.stats.leaf_writes
        memo_io = memo.stats.leaf_reads + memo.stats.leaf_writes
        assert memo_io < classic_io

    def test_clean_upon_touch_bounds_garbage(self):
        touch = MemoGrid(side=6, inspection_ratio=0.0, clean_upon_touch=True)
        plain = MemoGrid(side=6, inspection_ratio=0.0, clean_upon_touch=False)
        drive_points(touch, 150, 300, seed=168)
        drive_points(plain, 150, 300, seed=168)
        assert touch.garbage_count() < plain.garbage_count()
