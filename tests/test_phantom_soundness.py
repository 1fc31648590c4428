"""Stress tests for the soundness of phantom inspection.

Phantom inspection (Lemma 1) is the most delicate part of the RUM-tree:
purging a *real* memo entry resurrects stale object versions.  Three
structural races can break the literal lemma — obsolete entries relocated
behind a token by a split, a condensation re-homing the cycle-start page
next to the token, and a dissolved cycle-start leaving its boundary leaf
unvisited.  The cleaner guards against all three (purge shields, the
minimum-step cycle floor, tainted cycles); these tests hammer exactly
those code paths.

The invariant asserted throughout: **at no point do two tree entries of
the same object both classify as LATEST**, and queries always match a
brute-force oracle.
"""

import random

import pytest

from conftest import SMALL_NODE, assert_search_matches_oracle
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect


def _no_duplicate_latest(tree) -> None:
    latest = {}
    for entry in tree.iter_leaf_entries():
        if not tree.memo.is_obsolete(entry.oid, entry.stamp):
            latest.setdefault(entry.oid, []).append(entry.stamp)
    duplicates = {k: v for k, v in latest.items() if len(v) > 1}
    assert not duplicates, f"objects with two LATEST entries: {duplicates}"


def _churn(tree, positions, rng, steps, jump=0.1):
    oids = list(positions)
    for _ in range(steps):
        oid = rng.choice(oids)
        x, y = positions[oid].center()
        nx = min(max(x + rng.uniform(-jump, jump), 0.0), 1.0)
        ny = min(max(y + rng.uniform(-jump, jump), 0.0), 1.0)
        new = Rect.from_point(nx, ny)
        tree.update_object(oid, None, new)
        positions[oid] = new


@pytest.mark.parametrize("seed", [104, 7, 99, 1234])
@pytest.mark.parametrize("ir", [0.3, 0.5, 1.0])
def test_no_duplicate_latest_under_churn(seed, ir):
    """Continuous churn with aggressive cleaning and the paper's
    single-cycle phantom rule never yields duplicate latest entries."""
    tree = build_rum_tree(
        node_size=SMALL_NODE,
        clean_upon_touch=False,
        inspection_ratio=ir,
    )
    rng = random.Random(seed)
    positions = {}
    for oid in range(80):
        rect = Rect.from_point(rng.random(), rng.random())
        positions[oid] = rect
        tree.insert_object(oid, rect)
    for _round in range(8):
        _churn(tree, positions, rng, steps=60)
        _no_duplicate_latest(tree)
    assert_search_matches_oracle(tree, positions)


def test_reset_mid_stream_regression():
    """Regression for the dissolved-cycle-start race: resetting the
    cleaner mid-stream used to let the next purge fire after a cycle that
    skipped the re-homed boundary leaf."""
    tree = build_rum_tree(
        node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.5
    )
    rng = random.Random(104)
    positions = {}
    for oid in range(60):
        rect = Rect.from_point(rng.random(), rng.random())
        positions[oid] = rect
        tree.insert_object(oid, rect)
    for _round in range(6):
        _churn(tree, positions, rng, steps=100)
        tree.cleaner.reset()
        _no_duplicate_latest(tree)
    assert_search_matches_oracle(tree, positions)


def test_shrinking_population_heavy_condense():
    """Everything migrates into one corner: constant underflow,
    condensation, and ring churn while purges keep firing."""
    tree = build_rum_tree(
        node_size=SMALL_NODE,
        clean_upon_touch=False,
        inspection_ratio=1.0,
    )
    rng = random.Random(42)
    positions = {}
    for oid in range(120):
        rect = Rect.from_point(rng.random(), rng.random())
        positions[oid] = rect
        tree.insert_object(oid, rect)
    for _round in range(4):
        for oid in range(120):
            new = Rect.from_point(
                rng.random() * 0.05, rng.random() * 0.05
            )
            tree.update_object(oid, None, new)
            positions[oid] = new
        _no_duplicate_latest(tree)
        tree.check_invariants()
    assert_search_matches_oracle(tree, positions)
    assert tree.cleaner.phantoms_purged > 0  # inspection did run


def test_purge_happens_eventually():
    """The guards delay purging but must not starve it: phantom entries
    from operations on non-existent objects do disappear."""
    tree = build_rum_tree(
        node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.5
    )
    rng = random.Random(11)
    positions = {}
    for oid in range(60):
        rect = Rect.from_point(rng.random(), rng.random())
        positions[oid] = rect
        tree.insert_object(oid, rect)
    for oid in range(1000, 1020):
        tree.delete_object(oid)  # pure phantoms
    _churn(tree, positions, rng, steps=500)
    for _ in range(6):
        tree.cleaner.run_full_cycle()
    assert all(tree.memo.get(oid) is None for oid in range(1000, 1020))
