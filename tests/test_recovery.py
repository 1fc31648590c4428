"""Tests for crash recovery of the Update Memo (Section 3.4).

Under ``REPRO_MEMO_SPILL_BUDGET`` (CI's memo spill-tier leg) every RUM
tree of this file stands its memo on a run tier with that RAM budget, so
each recovery option rebuilds through runs on disk.
"""

import sys

import pytest

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    memo_on_a_run_tier,
    populate,
    random_walk,
)
from repro.core.recovery import (
    recover_option_i,
    recover_option_ii,
    recover_option_iii,
)
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect


@pytest.fixture(autouse=True)
def _memo_on_a_run_tier(tmp_path, monkeypatch):
    memo_on_a_run_tier(sys.modules[__name__], tmp_path, monkeypatch)


def _loaded_tree(option, checkpoint_interval=150, seed=110, n=80, steps=300):
    tree = build_rum_tree(
        node_size=SMALL_NODE,
        inspection_ratio=0.2,
        recovery_option=option,
        checkpoint_interval=checkpoint_interval,
    )
    positions = populate(tree, n, seed=seed)
    random_walk(tree, positions, steps=steps, seed=seed + 1, distance=0.15)
    return tree, positions


def _status_map(tree):
    """CheckStatus of every physical leaf entry — the behavioural content
    of the memo."""
    return {
        (e.oid, e.stamp): tree.memo.check_status(e.oid, e.stamp)
        for e in tree.iter_leaf_entries()
    }


class TestCrashModel:
    def test_crash_preserves_tree_loses_memo(self):
        tree, _positions = _loaded_tree(None)
        entries_before = sorted(
            (e.oid, e.stamp) for e in tree.iter_leaf_entries()
        )
        assert len(tree.memo) >= 0
        tree.crash()
        assert len(tree.memo) == 0
        assert tree.stamps.current == 0
        entries_after = sorted(
            (e.oid, e.stamp) for e in tree.iter_leaf_entries()
        )
        assert entries_after == entries_before


class TestOptionI:
    def test_rebuilds_behavioural_memo(self):
        tree, positions = _loaded_tree(None)
        statuses_before = _status_map(tree)
        tree.crash()
        report = recover_option_i(tree)
        assert report.option == "I"
        assert _status_map(tree) == statuses_before
        assert_search_matches_oracle(tree, positions)

    def test_stamp_counter_restored_past_max(self):
        tree, _positions = _loaded_tree(None)
        max_stamp = max(e.stamp for e in tree.iter_leaf_entries())
        tree.crash()
        recover_option_i(tree)
        assert tree.stamps.current == max_stamp + 1

    def test_scan_cost_charged(self):
        tree, _positions = _loaded_tree(None)
        n_leaves = tree.num_leaf_nodes()
        tree.crash()
        report = recover_option_i(tree)
        assert report.io.leaf_reads == n_leaves
        assert report.leaf_entries_scanned == tree.num_leaf_entries()

    def test_spill_accounting(self):
        tree, _positions = _loaded_tree(None)
        tree.crash()
        report = recover_option_i(tree, memory_budget_entries=10)
        assert report.spill_accesses > 0
        assert report.io.index_reads == report.spill_accesses

    def test_no_spill_within_budget(self):
        tree, _positions = _loaded_tree(None)
        tree.crash()
        report = recover_option_i(tree, memory_budget_entries=None)
        assert report.spill_accesses == 0

    def test_pending_deletes_are_lost(self):
        """Documented Option I limitation: memo-based deletes leave no
        trace in the tree, so an unlogged delete resurrects the object."""
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.0)
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.delete_object(1)
        assert tree.search(Rect(0, 0, 1, 1)) == []
        tree.crash()
        recover_option_i(tree)
        assert tree.search(Rect(0, 0, 1, 1)) == [
            (1, Rect.from_point(0.5, 0.5))
        ]

    def test_updates_continue_after_recovery(self):
        tree, positions = _loaded_tree(None)
        tree.crash()
        recover_option_i(tree)
        random_walk(tree, positions, steps=200, seed=111, distance=0.1)
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()


class TestOptionII:
    def test_superset_recovery_and_correct_queries(self):
        tree, positions = _loaded_tree("II")
        memo_before = {e.oid: e.s_latest for e in tree.memo}
        tree.crash()
        report = recover_option_ii(tree)
        assert report.option == "II"
        # Superset: every pre-crash entry survives with its latest stamp.
        memo_after = {e.oid: e.s_latest for e in tree.memo}
        for oid, s_latest in memo_before.items():
            assert memo_after.get(oid) == s_latest
        assert_search_matches_oracle(tree, positions)

    def test_phantoms_removed_by_cleaning_cycle(self):
        tree, positions = _loaded_tree("II")
        tree.crash()
        recover_option_ii(tree)
        phantom_count = len(tree.memo)
        for _ in range(3):
            tree.cleaner.run_full_cycle()
        # One full cycle cleans all garbage; phantom inspection then purges
        # what is left over.
        assert tree.garbage_count() == 0
        assert len(tree.memo) <= phantom_count
        assert_search_matches_oracle(tree, positions)

    def test_falls_back_to_scan_without_checkpoint(self):
        tree, positions = _loaded_tree("II", checkpoint_interval=10**9)
        tree.crash()
        report = recover_option_ii(tree)
        assert report.option == "II"
        assert report.io.leaf_reads > 0
        assert_search_matches_oracle(tree, positions)

    def test_requires_wal(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        with pytest.raises(ValueError):
            recover_option_ii(tree)

    def test_cheaper_than_option_i_with_spill(self):
        tree, _positions = _loaded_tree("II")
        tree.crash()
        cost_ii = recover_option_ii(tree).disk_accesses
        tree.crash()
        cost_i = recover_option_i(
            tree, memory_budget_entries=5
        ).disk_accesses
        assert cost_ii < cost_i


class TestOptionIII:
    def test_exact_behavioural_recovery_with_deletes(self):
        tree, positions = _loaded_tree("III", checkpoint_interval=100)
        alive = set(positions)
        for oid in (1, 5, 9):
            tree.delete_object(oid)
            alive.discard(oid)
        tree.crash()
        report = recover_option_iii(tree)
        assert report.option == "III"
        # Deletes survive: Option III replays every memo change.
        assert_search_matches_oracle(tree, positions, alive=alive)

    def test_no_leaf_scan(self):
        tree, _positions = _loaded_tree("III")
        tree.crash()
        report = recover_option_iii(tree)
        assert report.io.leaf_reads == 0
        assert report.io.log_reads > 0
        assert report.log_records_replayed > 0

    def test_without_checkpoint_replays_whole_log(self):
        tree, positions = _loaded_tree("III", checkpoint_interval=10**9)
        tree.crash()
        report = recover_option_iii(tree)
        assert report.log_records_replayed >= 300
        assert_search_matches_oracle(tree, positions)

    def test_requires_wal(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        with pytest.raises(ValueError):
            recover_option_iii(tree)

    def test_stamp_counter_restored(self):
        tree, _positions = _loaded_tree("III")
        before = tree.stamps.current
        tree.crash()
        recover_option_iii(tree)
        assert tree.stamps.current >= before - 1


class TestLoggingCosts:
    def test_option_iii_logs_every_update(self):
        tree, _positions = _loaded_tree("III")
        # 80 inserts + 300 updates, each force-logged.
        assert tree.stats.log_writes >= 380

    def test_option_ii_logs_only_checkpoints(self):
        tree, _positions = _loaded_tree("II", checkpoint_interval=100)
        assert 0 < tree.stats.log_writes < 100

    def test_option_none_never_logs(self):
        tree, _positions = _loaded_tree(None)
        assert tree.stats.log_writes == 0


class TestOptionIIDeleteSemantics:
    def test_deletes_after_checkpoint_are_lost(self):
        """Documented Option II limitation: a memo-based delete issued
        after the last checkpoint leaves no trace on disk, so recovery
        resurrects the object (Option III is the fix)."""
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            inspection_ratio=0.0,
            clean_upon_touch=False,
            recovery_option="II",
            checkpoint_interval=10**9,
        )
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.write_checkpoint()
        tree.delete_object(1)  # after the checkpoint, memo-only
        assert tree.search(Rect(0, 0, 1, 1)) == []
        tree.crash()
        recover_option_ii(tree)
        assert tree.search(Rect(0, 0, 1, 1)) == [
            (1, Rect.from_point(0.5, 0.5))
        ]

    def test_deletes_before_checkpoint_survive(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            inspection_ratio=0.0,
            clean_upon_touch=False,
            recovery_option="II",
            checkpoint_interval=10**9,
        )
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.delete_object(1)
        tree.write_checkpoint()  # the delete is inside the snapshot
        tree.crash()
        recover_option_ii(tree)
        assert tree.search(Rect(0, 0, 1, 1)) == []


class TestRestoreLeakRegression:
    """Regression for the ``restore`` zero-count leak across all three
    recovery options: a checkpoint snapshot (or intermediate table) that
    carries an ``n_old <= 0`` entry must not plant an undrainable memo
    entry in the recovered tree."""

    @staticmethod
    def _poison_snapshot(tree):
        real = tree.memo.snapshot

        def poisoned():
            return real() + [(999_999, 10**9, 0), (888_888, 10**9, -2)]

        tree.memo.snapshot = poisoned

    def _assert_clean(self, tree):
        assert tree.memo.get(999_999) is None
        assert tree.memo.get(888_888) is None
        assert all(entry.n_old >= 1 for entry in tree.memo)

    def test_option_i_never_emits_drained_entries(self):
        tree, _positions = _loaded_tree(None)
        tree.crash()
        recover_option_i(tree)
        self._assert_clean(tree)

    def test_option_ii_drops_poisoned_checkpoint_entries(self):
        tree, _positions = _loaded_tree("II", checkpoint_interval=10**9)
        self._poison_snapshot(tree)
        tree.write_checkpoint()
        tree.crash()
        recover_option_ii(tree)
        self._assert_clean(tree)

    def test_option_iii_drops_poisoned_checkpoint_entries(self):
        tree, _positions = _loaded_tree("III", checkpoint_interval=10**9)
        self._poison_snapshot(tree)
        tree.write_checkpoint()
        tree.crash()
        recover_option_iii(tree)
        self._assert_clean(tree)
