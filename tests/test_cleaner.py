"""Tests for the garbage cleaner: tokens, Property 1, phantom inspection."""

import random

import pytest

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    leaf_entry_count,
    populate,
    random_walk,
)
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect


def _token_tree(ir=0.5, n_tokens=1, **kwargs):
    return build_rum_tree(
        node_size=SMALL_NODE,
        clean_upon_touch=False,
        inspection_ratio=ir,
        n_tokens=n_tokens,
        **kwargs,
    )


class TestConfiguration:
    def test_inspection_ratio_exposed(self):
        tree = _token_tree(ir=0.25)
        assert tree.cleaner.inspection_ratio == 0.25
        assert tree.cleaner.inspection_interval == pytest.approx(4.0)

    def test_zero_ratio_never_cleans(self):
        tree = _token_tree(ir=0.0)
        positions = populate(tree, 60, seed=80)
        random_walk(tree, positions, steps=200, seed=81)
        assert tree.cleaner.leaves_inspected == 0
        assert tree.garbage_count() > 0

    def test_invalid_parameters(self):
        from repro.core.cleaner import GarbageCleaner

        tree = _token_tree()
        with pytest.raises(ValueError):
            GarbageCleaner(tree, n_tokens=-1)
        with pytest.raises(ValueError):
            GarbageCleaner(tree, inspection_ratio=-0.5)

    def test_fractional_ratio_realised_exactly(self):
        tree = _token_tree(ir=0.3)
        positions = populate(tree, 80, seed=82)
        before = tree.cleaner.leaves_inspected
        random_walk(tree, positions, steps=400, seed=83)
        inspected = tree.cleaner.leaves_inspected - before
        assert inspected == pytest.approx(0.3 * 400, abs=2)


class TestCleaningEffect:
    def test_cleaner_removes_garbage(self):
        tree = _token_tree(ir=0.5)
        positions = populate(tree, 100, seed=84)
        random_walk(tree, positions, steps=500, seed=85, distance=0.2)
        # With aggressive cleaning the tree stays near one entry/object.
        assert leaf_entry_count(tree) < 100 * 1.6
        assert_search_matches_oracle(tree, positions)

    def test_higher_ratio_less_garbage(self):
        garbage = {}
        for ir in (0.05, 0.8):
            tree = _token_tree(ir=ir)
            positions = populate(tree, 120, seed=86)
            random_walk(tree, positions, steps=600, seed=87, distance=0.15)
            garbage[ir] = tree.garbage_count()
        assert garbage[0.8] < garbage[0.05]

    def test_cleaning_charges_leaf_io(self):
        tree = _token_tree(ir=1.0)
        positions = populate(tree, 60, seed=88)
        before = tree.stats.snapshot()
        random_walk(tree, positions, steps=100, seed=89)
        delta = tree.stats.snapshot() - before
        # Every update pays ~2 for the insert; the cleaner adds about one
        # read (plus a write when it actually removed something) per update.
        assert delta.leaf_reads > 150


class TestPropertyOne:
    def test_quiescent_full_cycle_removes_all_garbage(self):
        """Property 1: after every leaf has been visited once with no new
        updates, all previously obsolete entries are gone."""
        tree = _token_tree(ir=0.2)
        positions = populate(tree, 120, seed=90)
        random_walk(tree, positions, steps=400, seed=91, distance=0.25)
        assert tree.garbage_count() > 0
        tree.cleaner.run_full_cycle()
        assert tree.garbage_count() == 0
        assert leaf_entry_count(tree) == 120
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()

    def test_full_cycle_drains_memo_of_real_entries(self):
        tree = _token_tree(ir=0.2)
        positions = populate(tree, 100, seed=92)
        random_walk(tree, positions, steps=300, seed=93, distance=0.2)
        tree.cleaner.run_full_cycle()
        # After a quiescent cycle, every remaining memo entry is a phantom
        # (N_old not drained only for objects with no obsolete entries).
        assert tree.garbage_count() == 0

    def test_underflow_during_cleaning_reinserts_survivors(self):
        tree = _token_tree(ir=0.0)  # build garbage first, no cleaning
        rng = random.Random(94)
        positions = {}
        for oid in range(100):
            rect = Rect.from_point(rng.random(), rng.random())
            positions[oid] = rect
            tree.insert_object(oid, rect)
        # Concentrate updates so some leaves become nearly all garbage.
        for oid in range(100):
            new = Rect.from_point(rng.random() * 0.1, rng.random() * 0.1)
            tree.update_object(oid, None, new)
            positions[oid] = new
        # A forced cycle runs at any ratio: the ratio gates only the
        # per-update credit.
        assert tree.garbage_count() > 0
        removed = tree.cleaner.run_full_cycle()
        assert removed > 0 and tree.garbage_count() == 0
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()
        assert leaf_entry_count(tree) == 100


class TestPhantomInspection:
    def test_phantoms_eventually_purged(self):
        tree = _token_tree(ir=0.5)
        positions = populate(tree, 60, seed=95)
        # Operations on objects that never existed create phantoms.
        for oid in (900, 901, 902):
            tree.delete_object(oid)
        assert all(tree.memo.get(oid) is not None for oid in (900, 901, 902))
        # Drive enough cycles for the purge to fire.
        for _ in range(4):
            tree.cleaner.run_full_cycle()
        assert all(tree.memo.get(oid) is None for oid in (900, 901, 902))
        assert_search_matches_oracle(tree, positions)

    def test_purge_counts_reported(self):
        tree = _token_tree(ir=0.5)
        populate(tree, 40, seed=96)
        for oid in range(500, 510):
            tree.delete_object(oid)
        for _ in range(4):
            tree.cleaner.run_full_cycle()
        assert tree.cleaner.phantoms_purged >= 10

    def test_correctness_with_aggressive_phantom_inspection(self):
        """Even with the paper's single-cycle rule, queries stay correct."""
        tree = _token_tree(ir=0.6)
        positions = populate(tree, 100, seed=97)
        random_walk(tree, positions, steps=700, seed=98, distance=0.15)
        assert_search_matches_oracle(tree, positions)


class TestMultipleTokens:
    @pytest.mark.parametrize("n_tokens", [2, 4])
    def test_multi_token_correctness(self, n_tokens):
        tree = _token_tree(ir=0.5, n_tokens=n_tokens)
        positions = populate(tree, 120, seed=99)
        random_walk(tree, positions, steps=500, seed=100, distance=0.2)
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()

    def test_same_ratio_same_inspections(self):
        inspected = {}
        for n_tokens in (1, 4):
            tree = _token_tree(ir=0.4, n_tokens=n_tokens)
            positions = populate(tree, 100, seed=101)
            random_walk(tree, positions, steps=300, seed=102)
            inspected[n_tokens] = tree.cleaner.leaves_inspected
        assert inspected[1] == pytest.approx(inspected[4], abs=4)


class TestTokenResilience:
    def test_tokens_survive_leaf_dissolution(self):
        """Cleaning that underflows leaves re-homes any parked token."""
        tree = _token_tree(ir=1.0)
        rng = random.Random(103)
        positions = {}
        for oid in range(150):
            rect = Rect.from_point(rng.random(), rng.random())
            positions[oid] = rect
            tree.insert_object(oid, rect)
        # Move everything into one corner: massive garbage + dissolutions.
        for oid in range(150):
            new = Rect.from_point(rng.random() * 0.05, rng.random() * 0.05)
            tree.update_object(oid, None, new)
            positions[oid] = new
        for _ in range(3):
            tree.cleaner.run_full_cycle()
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()
        # All token positions refer to live leaves.
        live = {leaf.page_id for leaf in tree.iter_leaf_nodes()}
        for token in tree.cleaner.tokens:
            assert token.position in live

    def test_reset_clears_state(self):
        tree = _token_tree(ir=0.5)
        positions = populate(tree, 60, seed=104)
        random_walk(tree, positions, steps=100, seed=105)
        assert tree.cleaner.tokens
        tree.cleaner.reset()
        assert not tree.cleaner.tokens
        assert tree.cleaner.updates_seen == 0
        # Cleaning resumes cleanly after a reset (e.g. post-recovery).
        random_walk(tree, positions, steps=100, seed=106)
        assert_search_matches_oracle(tree, positions)
