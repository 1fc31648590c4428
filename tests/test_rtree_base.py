"""Structural and behavioural tests for the shared R-tree machinery."""

import random

import pytest

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    brute_force_hits,
    populate,
    random_window,
)
from repro.factory import build_rstar_tree, build_storage
from repro.rtree.base import RTreeBase
from repro.rtree.geometry import Rect


class TestConstruction:
    def test_new_tree_is_single_leaf_root(self, rstar_tree):
        assert rstar_tree.height == 1
        root = rstar_tree.buffer.peek_node(rstar_tree.root_id)
        assert root.is_leaf and not root.entries
        # The root leaf's ring points at itself.
        assert root.prev_leaf == root.page_id
        assert root.next_leaf == root.page_id

    def test_bad_split_name_rejected(self):
        with pytest.raises(ValueError):
            RTreeBase(build_storage(SMALL_NODE), split="bogus")

    def test_min_entries_at_most_half_capacity(self, rstar_tree):
        assert rstar_tree.min_leaf <= rstar_tree.leaf_cap // 2
        assert rstar_tree.min_index <= rstar_tree.index_cap // 2


class TestInsertAndSearch:
    def test_empty_tree_search(self, rstar_tree):
        assert rstar_tree.range_search(Rect(0, 0, 1, 1)) == []

    def test_single_insert_found(self, rstar_tree):
        rstar_tree.insert(Rect.from_point(0.5, 0.5), oid=1)
        hits = rstar_tree.range_search(Rect(0.4, 0.4, 0.6, 0.6))
        assert [e.oid for e in hits] == [1]

    def test_search_excludes_non_intersecting(self, rstar_tree):
        rstar_tree.insert(Rect.from_point(0.1, 0.1), oid=1)
        rstar_tree.insert(Rect.from_point(0.9, 0.9), oid=2)
        hits = rstar_tree.range_search(Rect(0.0, 0.0, 0.2, 0.2))
        assert [e.oid for e in hits] == [1]

    @pytest.mark.parametrize("count", [10, 60, 300])
    def test_matches_brute_force(self, rstar_tree, count):
        positions = populate(rstar_tree, count, seed=count)
        assert_search_matches_oracle(rstar_tree, positions)
        rstar_tree.check_invariants()

    def test_tree_grows_in_height(self, rstar_tree):
        populate(rstar_tree, 400, seed=2)
        assert rstar_tree.height >= 3
        rstar_tree.check_invariants()

    def test_all_entries_reachable(self, rstar_tree):
        populate(rstar_tree, 200, seed=3)
        oids = sorted(e.oid for e in rstar_tree.iter_leaf_entries())
        assert oids == list(range(200))

    def test_duplicate_positions_supported(self, rstar_tree):
        for oid in range(50):
            rstar_tree.insert(Rect.from_point(0.5, 0.5), oid)
        hits = rstar_tree.range_search(Rect(0.5, 0.5, 0.5, 0.5))
        assert len(hits) == 50
        rstar_tree.check_invariants()


class TestDelete:
    def test_delete_existing(self, rstar_tree):
        positions = populate(rstar_tree, 100, seed=4)
        victim = positions.pop(42)
        assert rstar_tree.delete(42, victim)
        assert_search_matches_oracle(rstar_tree, positions)
        rstar_tree.check_invariants()

    def test_delete_missing_returns_false(self, rstar_tree):
        populate(rstar_tree, 20, seed=5)
        assert not rstar_tree.delete(999, Rect.from_point(0.5, 0.5))

    def test_delete_wrong_rect_returns_false(self, rstar_tree):
        rstar_tree.insert(Rect.from_point(0.2, 0.2), oid=1)
        assert not rstar_tree.delete(1, Rect.from_point(0.8, 0.8))

    def test_delete_everything(self, rstar_tree):
        positions = populate(rstar_tree, 150, seed=6)
        for oid, rect in list(positions.items()):
            assert rstar_tree.delete(oid, rect)
        assert rstar_tree.range_search(Rect(0, 0, 1, 1)) == []
        rstar_tree.check_invariants()

    def test_delete_shrinks_height(self, rstar_tree):
        positions = populate(rstar_tree, 400, seed=7)
        grown_height = rstar_tree.height
        assert grown_height >= 3
        for oid, rect in list(positions.items())[:380]:
            rstar_tree.delete(oid, rect)
            del positions[oid]
        assert rstar_tree.height < grown_height
        assert_search_matches_oracle(rstar_tree, positions)
        rstar_tree.check_invariants()

    def test_interleaved_insert_delete(self, rstar_tree):
        rng = random.Random(8)
        positions = {}
        next_oid = 0
        for step in range(600):
            if positions and rng.random() < 0.45:
                oid = rng.choice(list(positions))
                assert rstar_tree.delete(oid, positions.pop(oid))
            else:
                rect = Rect.from_point(rng.random(), rng.random())
                rstar_tree.insert(rect, next_oid)
                positions[next_oid] = rect
                next_oid += 1
            if step % 150 == 0:
                rstar_tree.check_invariants()
        assert_search_matches_oracle(rstar_tree, positions)


class TestStructuralInvariants:
    def test_parent_directory_consistent(self, rstar_tree):
        populate(rstar_tree, 250, seed=9)
        # Every non-root node's parent entry points back at it.
        for leaf in rstar_tree.iter_leaf_nodes():
            if leaf.page_id == rstar_tree.root_id:
                continue
            parent_id = rstar_tree.parent[leaf.page_id]
            parent = rstar_tree.buffer.peek_node(parent_id)
            parent.find_child_index(leaf.page_id)  # raises if absent

    def test_directory_mbrs_exact(self, rstar_tree):
        populate(rstar_tree, 250, seed=10)
        rstar_tree.check_invariants()  # asserts MBR exactness internally

    def test_fanout_bounds(self, rstar_tree):
        populate(rstar_tree, 300, seed=11)
        for node in rstar_tree.iter_leaf_nodes():
            if node.page_id != rstar_tree.root_id:
                assert (
                    rstar_tree.min_leaf
                    <= len(node.entries)
                    <= rstar_tree.leaf_cap
                )

    def test_leaf_mbr_sides(self, rstar_tree):
        populate(rstar_tree, 120, seed=12)
        sides = rstar_tree.leaf_mbr_sides()
        assert len(sides) == rstar_tree.num_leaf_nodes()
        for width, height in sides:
            assert 0.0 <= width <= 1.0
            assert 0.0 <= height <= 1.0

    def test_num_leaf_entries(self, rstar_tree):
        populate(rstar_tree, 77, seed=13)
        assert rstar_tree.num_leaf_entries() == 77


class _RingTree(RTreeBase):
    maintain_leaf_ring = True


class TestLeafRing:
    def _ring_tree(self):
        return _RingTree(build_storage(SMALL_NODE))

    def test_ring_covers_all_leaves_after_growth(self):
        tree = self._ring_tree()
        rng = random.Random(14)
        for oid in range(400):
            tree.insert(Rect.from_point(rng.random(), rng.random()), oid)
        tree.check_invariants()  # includes the ring walk
        assert tree.num_leaf_nodes() > 10

    def test_ring_survives_deletes(self):
        tree = self._ring_tree()
        rng = random.Random(15)
        rects = {}
        for oid in range(300):
            rect = Rect.from_point(rng.random(), rng.random())
            rects[oid] = rect
            tree.insert(rect, oid)
        for oid in range(0, 300, 2):
            assert tree.delete(oid, rects[oid])
        tree.check_invariants()

    def test_classic_trees_skip_ring_maintenance(self, rstar_tree):
        populate(rstar_tree, 200, seed=16)
        # Ring never maintained: fresh leaves carry the NO_PAGE sentinel
        # or stale values; the flag must be off.
        assert rstar_tree.maintain_leaf_ring is False


class TestIOAccounting:
    def test_insert_costs_one_read_one_write_steady_state(self, rstar_tree):
        populate(rstar_tree, 120, seed=17)
        stats = rstar_tree.stats
        costs = []
        rng = random.Random(18)
        for oid in range(120, 170):
            before = stats.snapshot()
            rstar_tree.insert(
                Rect.from_point(rng.random(), rng.random()), oid
            )
            delta = stats.snapshot() - before
            costs.append(delta.leaf_total)
        # Most inserts touch exactly one leaf: 1 read + 1 write; splits and
        # reinserts occasionally cost more.
        assert min(costs) == 2
        assert sorted(costs)[len(costs) // 2] == 2

    def test_query_charges_leaf_reads_only(self, rstar_tree):
        populate(rstar_tree, 150, seed=19)
        stats = rstar_tree.stats
        before = stats.snapshot()
        rstar_tree.range_search(Rect(0.2, 0.2, 0.4, 0.4))
        delta = stats.snapshot() - before
        assert delta.leaf_reads >= 1
        assert delta.leaf_writes == 0

    def test_introspection_charges_nothing(self, rstar_tree):
        populate(rstar_tree, 100, seed=20)
        before = rstar_tree.stats.snapshot()
        list(rstar_tree.iter_leaf_entries())
        rstar_tree.num_leaf_nodes()
        rstar_tree.leaf_mbr_sides()
        rstar_tree.check_invariants()
        assert rstar_tree.stats.snapshot() == before


class TestSplitPolicies:
    @pytest.mark.parametrize("split", ["rstar", "quadratic"])
    @pytest.mark.parametrize("forced", [True, False])
    def test_all_policies_correct(self, split, forced):
        tree = RTreeBase(
            build_storage(SMALL_NODE), split=split, forced_reinsert=forced
        )
        rng = random.Random(21)
        positions = {}
        for oid in range(250):
            rect = Rect.from_point(rng.random(), rng.random())
            positions[oid] = rect
            tree.insert(rect, oid)
        tree.check_invariants()
        window = random_window(rng, side=0.3)
        got = sorted(e.oid for e in tree.range_search(window))
        assert got == brute_force_hits(positions, window)
