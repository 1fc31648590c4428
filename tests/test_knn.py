"""Tests for k-nearest-neighbour search on all trees (memo-filtered on
the RUM-tree)."""

import math
import random

import pytest

from conftest import SMALL_NODE, populate, random_walk
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.rtree.geometry import Rect


def _euclidean(rect: Rect, x: float, y: float) -> float:
    cx, cy = rect.center()
    return math.hypot(cx - x, cy - y)


def _oracle_knn(positions, x, y, k, alive=None):
    candidates = [
        (oid, rect)
        for oid, rect in positions.items()
        if alive is None or oid in alive
    ]
    candidates.sort(key=lambda item: _euclidean(item[1], x, y))
    return [oid for oid, _rect in candidates[:k]]


class TestMinDist:
    def test_inside_is_zero(self):
        assert Rect(0.2, 0.2, 0.8, 0.8).min_dist(0.5, 0.5) == 0.0

    def test_axis_distance(self):
        r = Rect(0.4, 0.4, 0.6, 0.6)
        assert r.min_dist(0.1, 0.5) == pytest.approx(0.3)
        assert r.min_dist(0.5, 0.9) == pytest.approx(0.3)

    def test_corner_distance(self):
        r = Rect(0.4, 0.4, 0.6, 0.6)
        assert r.min_dist(0.1, 0.1) == pytest.approx(math.hypot(0.3, 0.3))


@pytest.mark.parametrize(
    "builder", [build_rstar_tree, build_fur_tree, build_rum_tree]
)
class TestKNNAllTrees:
    def test_matches_oracle(self, builder):
        tree = builder(node_size=SMALL_NODE)
        positions = populate(tree, 200, seed=150)
        rng = random.Random(151)
        for _ in range(20):
            x, y = rng.random(), rng.random()
            got = [oid for oid, _r in tree.nearest_neighbors(x, y, 5)]
            want = _oracle_knn(positions, x, y, 5)
            assert got == want

    def test_results_ordered_by_distance(self, builder):
        tree = builder(node_size=SMALL_NODE)
        populate(tree, 150, seed=152)
        hits = tree.nearest_neighbors(0.5, 0.5, 10)
        distances = [_euclidean(rect, 0.5, 0.5) for _oid, rect in hits]
        assert distances == sorted(distances)

    def test_ties_at_kth_distance_go_to_smaller_oids(self, builder):
        """Five objects share one point; which of them fill the last
        slots must not depend on the order the traversal pops them."""
        tree = builder(node_size=SMALL_NODE)
        for oid in (5, 4, 3, 2, 1):
            tree.insert_object(oid, Rect.from_point(0.0, 0.0))
        tree.insert_object(7, Rect.from_point(0.3, 0.9))
        for k in range(1, 7):
            got = [oid for oid, _r in tree.nearest_neighbors(0.0, 1.0, k)]
            assert got == [7, 1, 2, 3, 4, 5][:k]

    def test_k_larger_than_population(self, builder):
        tree = builder(node_size=SMALL_NODE)
        populate(tree, 7, seed=153)
        assert len(tree.nearest_neighbors(0.5, 0.5, 50)) == 7

    def test_k_zero(self, builder):
        tree = builder(node_size=SMALL_NODE)
        populate(tree, 10, seed=154)
        assert tree.nearest_neighbors(0.5, 0.5, 0) == []


class TestRUMKNNFiltering:
    def test_obsolete_versions_never_returned(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
        )
        # Object 1's stale version sits exactly at the query point; its
        # latest position is far away.
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.update_object(1, None, Rect.from_point(0.9, 0.9))
        tree.insert_object(2, Rect.from_point(0.6, 0.6))
        hits = tree.nearest_neighbors(0.5, 0.5, 1)
        assert hits[0][0] == 2  # the stale (0.5, 0.5) entry was filtered

    def test_deleted_objects_skipped(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.insert_object(2, Rect.from_point(0.7, 0.7))
        tree.delete_object(1)
        hits = tree.nearest_neighbors(0.5, 0.5, 2)
        assert [oid for oid, _r in hits] == [2]

    def test_after_heavy_churn_matches_oracle(self):
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.2)
        positions = populate(tree, 150, seed=155)
        random_walk(tree, positions, steps=600, seed=156, distance=0.15)
        rng = random.Random(157)
        for _ in range(15):
            x, y = rng.random(), rng.random()
            got = [oid for oid, _r in tree.nearest_neighbors(x, y, 8)]
            assert got == _oracle_knn(positions, x, y, 8)

    def test_knn_reads_few_leaves(self):
        """Best-first kNN must not read the whole leaf level."""
        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 400, seed=158)
        n_leaves = tree.num_leaf_nodes()
        before = tree.stats.snapshot()
        tree.nearest_neighbors(0.5, 0.5, 3)
        delta = tree.stats.snapshot() - before
        assert delta.leaf_reads < n_leaves / 2
        assert delta.leaf_writes == 0


class TestKNNOnBulkLoadedTrees:
    def test_bulk_loaded_rum_knn(self):
        from repro.rtree.bulk import bulk_load_objects

        tree = build_rum_tree(node_size=SMALL_NODE)
        positions = {
            oid: Rect.from_point((oid % 17) / 17.0, (oid % 13) / 13.0)
            for oid in range(200)
        }
        bulk_load_objects(tree, positions.items())
        got = [oid for oid, _r in tree.nearest_neighbors(0.31, 0.42, 6)]
        assert got == _oracle_knn(positions, 0.31, 0.42, 6)
