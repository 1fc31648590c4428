"""Tests for the FUR-tree (bottom-up updates) and its secondary index."""

import random

import pytest

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    populate,
    random_walk,
)
from repro.factory import build_fur_tree
from repro.rtree.geometry import Rect
from repro.rtree.rstar import ObjectNotFoundError


class TestSecondaryIndexConsistency:
    def _index_matches_tree(self, tree) -> None:
        """Every object's index entry points at the leaf really holding it."""
        location = {}
        for leaf in tree.iter_leaf_nodes():
            for entry in leaf.entries:
                location[entry.oid] = leaf.page_id
        for oid, leaf_page in location.items():
            assert tree.index.peek(oid) == leaf_page, f"oid {oid} stale"
        assert tree.index.num_entries() == len(location)

    def test_after_inserts(self, fur_tree):
        populate(fur_tree, 200, seed=40)
        self._index_matches_tree(fur_tree)

    def test_after_updates(self, fur_tree):
        positions = populate(fur_tree, 150, seed=41)
        random_walk(fur_tree, positions, steps=600, seed=42, distance=0.2)
        self._index_matches_tree(fur_tree)
        assert_search_matches_oracle(fur_tree, positions)
        fur_tree.check_invariants()

    def test_after_deletes(self, fur_tree):
        positions = populate(fur_tree, 120, seed=43)
        for oid in list(positions)[:60]:
            fur_tree.delete_object(oid, positions.pop(oid))
        self._index_matches_tree(fur_tree)
        assert_search_matches_oracle(fur_tree, positions)


class TestUpdateCases:
    def test_small_moves_stay_in_place(self):
        tree = build_fur_tree(node_size=SMALL_NODE, extension=0.05)
        positions = populate(tree, 150, seed=44)
        random_walk(tree, positions, steps=300, seed=45, distance=0.005)
        in_place, sibling, top_down = tree.update_case_mix()
        assert in_place > 0.8 * (in_place + sibling + top_down)

    def test_large_moves_fall_back_to_top_down(self):
        tree = build_fur_tree(node_size=SMALL_NODE, extension=0.0)
        positions = populate(tree, 150, seed=46)
        rng = random.Random(47)
        for oid in list(positions)[:100]:
            old = positions[oid]
            # Jump to the opposite corner: no in-place, rarely a sibling.
            x, y = old.center()
            new = Rect.from_point(1.0 - x, 1.0 - y)
            tree.update_object(oid, old, new)
            positions[oid] = new
        in_place, sibling, top_down = tree.update_case_mix()
        assert top_down + sibling > in_place
        assert_search_matches_oracle(tree, positions)

    def test_case_mix_accumulates(self, fur_tree):
        positions = populate(fur_tree, 100, seed=48)
        random_walk(fur_tree, positions, steps=200, seed=49)
        assert sum(fur_tree.update_case_mix()) == 200

    def test_update_missing_raises(self, fur_tree):
        with pytest.raises(ObjectNotFoundError):
            fur_tree.update_object(
                5, Rect.from_point(0.5, 0.5), Rect.from_point(0.6, 0.6)
            )

    def test_delete_missing_raises(self, fur_tree):
        with pytest.raises(ObjectNotFoundError):
            fur_tree.delete_object(5, Rect.from_point(0.5, 0.5))


class TestIOAccounting:
    def test_in_place_update_costs_three(self):
        """Paper Section 4.2.2: in-place = index read + leaf read+write."""
        tree = build_fur_tree(node_size=SMALL_NODE, extension=0.2)
        positions = populate(tree, 60, seed=50)
        # Warm up so the structure is stable, then measure tiny moves.
        stats = tree.stats
        found_in_place = 0
        rng = random.Random(51)
        for oid in list(positions)[:30]:
            old = positions[oid]
            x, y = old.center()
            new = Rect.from_point(
                min(max(x + rng.uniform(-0.001, 0.001), 0), 1), y
            )
            cases_before = tree.updates_in_place
            before = stats.snapshot()
            tree.update_object(oid, old, new)
            delta = stats.snapshot() - before
            positions[oid] = new
            if tree.updates_in_place > cases_before:
                found_in_place += 1
                assert delta.index_reads == 1
                assert delta.index_writes == 0
                assert delta.leaf_reads == 1
                assert delta.leaf_writes == 1
        assert found_in_place > 0

    def test_update_cheaper_than_top_down_for_small_moves(self):
        from repro.factory import build_rstar_tree

        fur = build_fur_tree(node_size=SMALL_NODE, extension=0.05)
        rstar = build_rstar_tree(node_size=SMALL_NODE)
        pos_fur = populate(fur, 200, seed=52)
        pos_rstar = populate(rstar, 200, seed=52)
        fur_before = fur.stats.snapshot()
        rstar_before = rstar.stats.snapshot()
        random_walk(fur, pos_fur, steps=300, seed=53, distance=0.01)
        random_walk(rstar, pos_rstar, steps=300, seed=53, distance=0.01)
        fur_cost = (fur.stats.snapshot() - fur_before).counted_total
        rstar_cost = (rstar.stats.snapshot() - rstar_before).counted_total
        assert fur_cost < rstar_cost


class TestSecondaryIndexUnit:
    def test_lookup_assign_remove_counting(self, monkeypatch):
        from repro.rtree import secondary_index
        from repro.rtree.secondary_index import SecondaryIndex
        from repro.storage.iostats import IOStats

        monkeypatch.setattr(secondary_index, "N_BUCKETS", 8)
        stats = IOStats()
        index = SecondaryIndex(stats, page_size=256)
        assert index.lookup(1) is None
        assert stats.index_reads == 1
        index.assign(1, 77)
        assert stats.index_reads == 2 and stats.index_writes == 1
        assert index.lookup(1) == 77
        index.assign(1, 99, bucket_in_hand=True)
        assert stats.index_reads == 3  # no extra read charged
        index.remove(1)
        assert index.peek(1) is None

    def test_assign_many_batches_by_bucket(self, monkeypatch):
        from repro.rtree import secondary_index
        from repro.rtree.secondary_index import SecondaryIndex
        from repro.storage.iostats import IOStats

        monkeypatch.setattr(secondary_index, "N_BUCKETS", 4)
        stats = IOStats()
        index = SecondaryIndex(stats, page_size=256)
        # 8 oids over 4 buckets: exactly 4 bucket pages touched.
        index.assign_many((oid, 123) for oid in range(8))
        assert stats.index_writes == 4
        assert index.num_entries() == 8

    def test_overflowing_bucket_charges_chain(self, monkeypatch):
        from repro.rtree import secondary_index
        from repro.rtree.secondary_index import SecondaryIndex
        from repro.storage.iostats import IOStats

        monkeypatch.setattr(secondary_index, "N_BUCKETS", 1)
        stats = IOStats()
        # 16-byte entries, 32-byte pages: 2 entries per bucket page.
        index = SecondaryIndex(stats, page_size=32)
        for oid in range(6):
            index.assign(oid, oid)
        stats.reset()
        index.lookup(0)
        assert stats.index_reads == 3  # 6 entries / 2 per page

    def test_size_bytes(self):
        from repro.rtree.secondary_index import SecondaryIndex
        from repro.storage.iostats import IOStats

        index = SecondaryIndex(IOStats(), page_size=256)
        for oid in range(10):
            index.assign(oid, 1)
        assert index.size_bytes() == 160
