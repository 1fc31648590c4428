"""Tests for the PR-quadtree extension (classic and memo-based)."""

import pytest

from conftest import assert_windows_match, drive_points
from repro.extensions.quadtree import MAX_DEPTH, MemoQuadtree, PRQuadtree


def _drive(tree, n=200, updates=400, seed=210):
    return drive_points(tree, n, updates, seed)


class TestPRQuadtree:
    def test_range_search_matches_oracle(self):
        tree = PRQuadtree(page_size=512)
        pos = _drive(tree)
        assert_windows_match(tree, pos, seed=211)

    def test_exactly_one_entry_per_object(self):
        tree = PRQuadtree(page_size=512)
        _drive(tree)
        assert tree.num_entries() == 200

    def test_subdivision_happens(self):
        tree = PRQuadtree(page_size=256)
        _drive(tree, n=300, updates=0)
        assert tree.depth() >= 2
        assert tree.num_leaves() > 4
        # Buckets respect the capacity (except at the depth cap).
        for leaf in tree.iter_leaves():
            if leaf.depth < MAX_DEPTH:
                assert len(leaf.entries) <= tree.bucket_cap

    def test_duplicate_points_capped_by_max_depth(self):
        tree = PRQuadtree(page_size=256)
        for oid in range(100):
            tree.insert_object(oid, 0.3, 0.3)
        assert tree.depth() <= MAX_DEPTH
        hits = tree.range_search(0.3, 0.3, 0.3, 0.3)
        assert len(hits) == 100

    def test_update_missing_raises(self):
        tree = PRQuadtree()
        with pytest.raises(KeyError):
            tree.update_object(1, (0.5, 0.5), (0.6, 0.6))

    def test_delete(self):
        tree = PRQuadtree()
        tree.insert_object(1, 0.4, 0.4)
        tree.delete_object(1, (0.4, 0.4))
        assert tree.range_search(0, 0, 1, 1) == []


class TestMemoQuadtree:
    def test_range_search_filters_obsolete(self):
        tree = MemoQuadtree(page_size=512, inspection_ratio=0.3)
        pos = _drive(tree, seed=212)
        assert_windows_match(tree, pos, seed=213)

    def test_full_sweep_drains_garbage(self):
        tree = MemoQuadtree(
            page_size=512, inspection_ratio=0.0, clean_upon_touch=False
        )
        _drive(tree, n=120, updates=240, seed=214)
        assert tree.garbage_count() > 0
        tree.cleaner.run_full_cycle()
        assert tree.garbage_count() == 0
        assert tree.num_entries() == 120

    def test_update_does_not_need_old_position(self):
        tree = MemoQuadtree()
        tree.insert_object(1, 0.2, 0.2)
        tree.update_object(1, None, (0.8, 0.8))
        assert tree.range_search(0, 0, 0.5, 0.5) == []
        assert tree.range_search(0.7, 0.7, 0.9, 0.9) == [(1, 0.8, 0.8)]

    def test_delete_is_memo_only(self):
        tree = MemoQuadtree(inspection_ratio=0.0, clean_upon_touch=False)
        tree.insert_object(1, 0.5, 0.5)
        before = tree.stats.leaf_reads + tree.stats.leaf_writes
        tree.delete_object(1)
        assert tree.stats.leaf_reads + tree.stats.leaf_writes == before
        assert tree.range_search(0, 0, 1, 1) == []

    def test_memo_update_cheaper_than_classic(self):
        classic = PRQuadtree(page_size=512)
        memo = MemoQuadtree(page_size=512, inspection_ratio=0.2)
        _drive(classic, seed=215)
        _drive(memo, seed=215)
        classic_io = classic.stats.leaf_reads + classic.stats.leaf_writes
        memo_io = memo.stats.leaf_reads + memo.stats.leaf_writes
        assert memo_io < classic_io

    def test_sweep_survives_splits_between_rounds(self):
        tree = MemoQuadtree(
            page_size=256, inspection_ratio=0.5, clean_upon_touch=False
        )
        pos = _drive(tree, n=150, updates=600, seed=216)
        assert_windows_match(tree, pos, seed=217, side=0.35)

    def test_cycle_in_flight_visits_the_children_of_a_split(self):
        """A split is "one leaf leaves the ring, four enter in its place":
        the cycle that was under way cleans all four before it completes
        (a snapshot of the leaves taken at cycle start would skip them)."""
        tree = MemoQuadtree(
            page_size=256, inspection_ratio=1.0, clean_upon_touch=False
        )
        _drive(tree, n=150, updates=0, seed=218)
        cleaner = tree.cleaner
        cycles = cleaner.cycles_completed
        while cleaner.cycles_completed == cycles:
            cleaner.on_batch(1)
        assert tree.garbage_count() == 0
        # In the half of the ring this cycle reaches last, refresh the
        # fullest bucket's objects in place until the obsolete copies
        # overflow it.
        ring = tree.leaf_ring()
        ahead = ring.index(cleaner.tokens[0].position) + len(ring) // 2
        target = max(
            (ring[i % len(ring)] for i in range(ahead, ahead + len(ring) // 2)),
            key=lambda leaf: len(leaf.entries),
        )
        residents = list(target.entries)
        while target.is_leaf:
            for x, y, oid, _stamp in residents:
                tree.update_object(oid, None, (x, y))
        assert tree.garbage_count() > 0
        while cleaner.cycles_completed == cycles + 1:
            cleaner.on_batch(1)
        assert tree.garbage_count() == 0
