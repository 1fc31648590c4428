"""Factory wiring and assorted edge-case tests across modules."""

import os
import random
import subprocess
import sys

import pytest

from conftest import SMALL_NODE, populate, random_walk
from repro.factory import (
    DEFAULT_NODE_SIZE,
    build_fur_tree,
    build_rstar_tree,
    build_rum_tree,
    build_storage,
)
from repro.rtree.geometry import Rect
from repro.storage.codec import NodeCodec
from repro.storage.iostats import IOStats


class TestFactory:
    def test_default_node_size_is_papers(self):
        assert DEFAULT_NODE_SIZE == 8192

    def test_storage_stack_shares_stats(self):
        stats = IOStats()
        buffer = build_storage(1024, stats=stats)
        assert buffer.stats is stats
        assert buffer.disk.page_size == 1024
        assert buffer.codec.node_size == 1024

    def test_rum_tree_gets_rum_codec(self):
        tree = build_rum_tree(node_size=1024)
        assert tree.buffer.codec.rum_leaves is True

    def test_baselines_get_classic_codec(self):
        assert build_rstar_tree(node_size=1024).buffer.codec.rum_leaves is False
        assert build_fur_tree(node_size=1024).buffer.codec.rum_leaves is False

    def test_wal_attached_only_when_needed(self):
        assert build_rum_tree(node_size=1024).wal is None
        assert build_rum_tree(node_size=1024, recovery_option="I").wal is None
        tree = build_rum_tree(node_size=1024, recovery_option="III")
        assert tree.wal is not None
        assert tree.wal.page_size == 1024

    def test_independent_stacks(self):
        a = build_rum_tree(node_size=SMALL_NODE)
        b = build_rum_tree(node_size=SMALL_NODE)
        a.insert_object(1, Rect.from_point(0.5, 0.5))
        assert b.stats.snapshot().leaf_total <= 1  # only its root write
        assert b.search(Rect(0, 0, 1, 1)) == []


class TestCodecEdges:
    def test_coordinates_outside_unit_square(self):
        codec = NodeCodec(512, rum_leaves=True)
        from repro.rtree.node import LeafEntry, Node

        entry = LeafEntry(Rect(-5.0, -2.5, 17.25, 100.0), 1, 2)
        node = Node(0, True, [entry])
        back = codec.decode(0, codec.encode(node))
        assert back.entries[0].rect == entry.rect

    def test_full_node_roundtrip(self):
        codec = NodeCodec(512, rum_leaves=True)
        from repro.rtree.node import LeafEntry, Node

        entries = [
            LeafEntry(Rect.from_point(i / 10.0, i / 10.0), i, i + 100)
            for i in range(codec.leaf_cap)
        ]
        node = Node(0, True, entries)
        back = codec.decode(0, codec.encode(node))
        assert back.entries == entries


class TestFURExtensionParameter:
    def test_larger_extension_more_in_place(self):
        mixes = {}
        for extension in (0.0, 0.1):
            tree = build_fur_tree(node_size=SMALL_NODE, extension=extension)
            positions = populate(tree, 150, seed=200)
            random_walk(tree, positions, steps=300, seed=201, distance=0.03)
            in_place, _sibling, _top = tree.update_case_mix()
            mixes[extension] = in_place
        assert mixes[0.1] > mixes[0.0]

    def test_negative_extension_rejected(self):
        with pytest.raises(ValueError):
            build_fur_tree(node_size=SMALL_NODE, extension=-0.1)


class TestStampAcrossRecovery:
    def test_no_stamp_reuse_after_option_iii_recovery(self):
        from repro.core.recovery import recover_option_iii

        tree = build_rum_tree(
            node_size=SMALL_NODE,
            recovery_option="III",
            checkpoint_interval=50,
        )
        positions = populate(tree, 50, seed=202)
        random_walk(tree, positions, steps=120, seed=203)
        stamps_before = {e.stamp for e in tree.iter_leaf_entries()}
        tree.crash()
        recover_option_iii(tree)
        random_walk(tree, positions, steps=50, seed=204)
        new_stamps = {
            e.stamp for e in tree.iter_leaf_entries()
        } - stamps_before
        # Fresh stamps never collide with surviving pre-crash stamps.
        assert all(s > max(stamps_before) for s in new_stamps)


class TestMemoBuckets:
    def test_search_empty_window_far_away(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 30, seed=206)
        # Degenerate (point) query window.
        hits = tree.search(Rect.from_point(2.0, 2.0))
        assert hits == []


class TestDegenerateWorkloads:
    def test_all_objects_identical_position(self):
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.5)
        rect = Rect.from_point(0.5, 0.5)
        for oid in range(100):
            tree.insert_object(oid, rect)
        for oid in range(100):
            tree.update_object(oid, None, rect)
        hits = tree.search(Rect(0.5, 0.5, 0.5, 0.5))
        assert sorted(oid for oid, _r in hits) == list(range(100))
        tree.check_invariants()

    def test_single_object_many_updates(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.2
        )
        rng = random.Random(207)
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        last = None
        for _ in range(300):
            last = Rect.from_point(rng.random(), rng.random())
            tree.update_object(1, None, last)
        assert tree.search(Rect(0, 0, 1, 1)) == [(1, last)]
        tree.check_invariants()

    def test_objects_on_unit_square_border(self):
        tree = build_rstar_tree(node_size=SMALL_NODE)
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        for oid, (x, y) in enumerate(corners):
            tree.insert_object(oid, Rect.from_point(x, y))
        assert len(tree.search(Rect(0, 0, 1, 1))) == 4
        assert len(tree.search(Rect(0, 0, 0, 0))) == 1


def test_nothing_under_repro_imports_numpy():
    # numpy is a dev extra (the gated benchmark's percentiles): a fresh
    # interpreter that imports every module and runs each operation
    # class must not have loaded it.
    script = """
import importlib, pkgutil, sys, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect
tree = build_rum_tree(node_size=1024)
for oid in range(200):
    tree.insert_object(oid, Rect.from_point(oid / 200, oid * 7 % 200 / 200))
tree.update_object(3, None, Rect.from_point(0.5, 0.5))
assert (3, Rect.from_point(0.5, 0.5)) in tree.search(Rect(0.4, 0.4, 0.6, 0.6))
assert len(tree.nearest_neighbors(0.5, 0.5, 3)) == 3
assert "numpy" not in sys.modules
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run(
        [sys.executable, "-c", script], check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
