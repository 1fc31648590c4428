"""Tests for the runtime structural validator (``repro.lint.invariants``).

Healthy trees of every kind must pass :func:`check_tree`; each invariant
class is then exercised by deliberately corrupting a tree and asserting
the validator catches exactly that corruption.
"""

from __future__ import annotations

import pytest

from conftest import SMALL_NODE, populate
from repro.factory import build_rstar_tree, build_rum_tree
from repro.lint.invariants import InvariantViolation, check_tree
from repro.rtree.geometry import Rect
from repro.rtree.node import IndexEntry


def corrupt_leaf(tree, mutate):
    """Apply ``mutate`` to the first non-root leaf and persist it."""
    for node in tree.iter_leaf_nodes():
        if node.page_id != tree.root_id:
            mutate(node)
            tree.buffer.mark_dirty(node)
            return node
    raise RuntimeError("tree has no non-root leaf; populate it more")


@pytest.fixture
def deep_rstar():
    tree = build_rstar_tree(node_size=SMALL_NODE)
    populate(tree, 200)
    assert tree.height >= 2
    return tree


@pytest.fixture
def deep_rum():
    tree = build_rum_tree(node_size=SMALL_NODE)
    populate(tree, 200)
    assert tree.height >= 2
    return tree


@pytest.fixture
def dirty_rum():
    """A RUM tree with one object carrying an obsolete leaf entry."""
    tree = build_rum_tree(
        node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
    )
    tree.insert_object(1, Rect.from_point(0.1, 0.1))
    tree.update_object(1, None, Rect.from_point(0.9, 0.9))
    return tree


class TestHealthyTrees:
    def test_classic_tree_passes(self, deep_rstar):
        check_tree(deep_rstar)

    def test_rum_tree_passes(self, deep_rum):
        check_tree(deep_rum)

    def test_rum_tree_with_obsolete_entries_passes(self, dirty_rum):
        check_tree(dirty_rum)

    def test_empty_tree_passes(self):
        check_tree(build_rstar_tree(node_size=SMALL_NODE))
        check_tree(build_rum_tree(node_size=SMALL_NODE))

    def test_violation_is_assertion_error(self):
        # Pre-validator call sites catch AssertionError; keep that true.
        assert issubclass(InvariantViolation, AssertionError)

    def test_check_invariants_delegates(self, deep_rstar):
        deep_rstar.check_invariants()
        corrupt_leaf(deep_rstar, lambda node: node.entries.__setitem__(
            slice(None), node.entries[:1]
        ))
        with pytest.raises(InvariantViolation):
            deep_rstar.check_invariants()


class TestStructuralCorruption:
    def test_fanout_underflow_caught(self, deep_rstar):
        corrupt_leaf(deep_rstar, lambda node: node.entries.__setitem__(
            slice(None), node.entries[:1]
        ))
        with pytest.raises(InvariantViolation, match="outside"):
            check_tree(deep_rstar)

    def test_stale_directory_mbr_caught(self, deep_rstar):
        def shift(node):
            node.entries[0].rect = Rect(5.0, 5.0, 6.0, 6.0)

        corrupt_leaf(deep_rstar, shift)
        with pytest.raises(InvariantViolation, match="stale"):
            check_tree(deep_rstar)

    def test_stale_parent_directory_caught(self, deep_rstar):
        root = deep_rstar.buffer.peek_node(deep_rstar.root_id)
        child_id = root.entries[0].child_id
        deep_rstar.parent[child_id] = 999_999
        with pytest.raises(InvariantViolation, match="parent directory"):
            check_tree(deep_rstar)


class TestRingCorruption:
    def test_broken_ring_pointer_caught(self, deep_rum):
        assert deep_rum.maintain_leaf_ring
        corrupted = corrupt_leaf(
            deep_rum, lambda node: setattr(node, "next_leaf", node.page_id)
        )
        assert corrupted.next_leaf == corrupted.page_id
        with pytest.raises(InvariantViolation, match="ring"):
            check_tree(deep_rum)


class TestMemoCorruption:
    def test_n_old_underflow_caught(self, dirty_rum):
        um = dirty_rum.memo.get(1)
        um.n_old = 0
        with pytest.raises(InvariantViolation, match="N_old"):
            check_tree(dirty_rum)

    def test_multiple_latest_caught(self, dirty_rum):
        # Dropping the memo entry reclassifies both physical entries of
        # oid 1 as LATEST — queries would return duplicates.
        dirty_rum.memo._table.pop(1)
        with pytest.raises(InvariantViolation, match="LATEST"):
            check_tree(dirty_rum)

    def test_leaf_newer_than_s_latest_caught(self, dirty_rum):
        um = dirty_rum.memo.get(1)
        um.s_latest = 0
        with pytest.raises(InvariantViolation, match="S_latest"):
            check_tree(dirty_rum)

    def test_stamp_at_or_above_counter_caught(self, dirty_rum):
        dirty_rum.stamps.restore(1)
        with pytest.raises(InvariantViolation, match="next stamp"):
            check_tree(dirty_rum)


STALE_CACHE = "cached block or rows are stale"


class TestCachedBlockCorruption:
    """A directory node's cached block and its area rows are edited in
    place (``RTreeBase._set_child``): a patch that goes astray must fail
    the check."""

    @staticmethod
    def decided_root(tree):
        root = tree.buffer.peek_node(tree.root_id)
        tree._choose_child_index(root, Rect.from_point(0.5, 0.5), False)
        block, rows = root.columns, root.area_rows
        assert block is not None and len(rows) > 1
        return root, block, rows

    def test_stale_block_caught(self, deep_rstar):
        _root, block, _rows = self.decided_root(deep_rstar)
        block[3][0] += 1.0
        with pytest.raises(InvariantViolation, match=STALE_CACHE):
            check_tree(deep_rstar)

    def test_stale_rows_caught(self, deep_rstar):
        _root, _block, rows = self.decided_root(deep_rstar)
        rows.reverse()
        with pytest.raises(InvariantViolation, match=STALE_CACHE):
            check_tree(deep_rstar)

    def test_rows_keyed_to_a_superseded_block_caught(self, deep_rstar):
        root, _block, rows = self.decided_root(deep_rstar)
        superseded = list(rows)
        # A valid edit, then the rows of the block before it put back.
        entry = root.entries[0]
        deep_rstar._set_child(
            root, 0, IndexEntry(entry.rect.union(Rect(0, 0, 2, 2)),
                                entry.child_id),
        )
        root.area_rows = superseded
        with pytest.raises(InvariantViolation, match=STALE_CACHE):
            check_tree(deep_rstar)

    def test_rows_without_a_block_caught(self, deep_rstar):
        root, _block, _rows = self.decided_root(deep_rstar)
        root.columns = None
        with pytest.raises(InvariantViolation, match=STALE_CACHE):
            check_tree(deep_rstar)
