"""Tests for IOStats/IOSnapshot arithmetic, totals and serialisation,
and for the trees billing every page access they make."""

import random
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.extensions.btree import MemoBTree
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.storage.iostats import IOSnapshot, IOStats
from repro.workload.objects import default_network_workload

FIELD_NAMES = tuple(f.name for f in fields(IOSnapshot))

snapshots = st.builds(
    IOSnapshot,
    **{
        name: st.integers(min_value=0, max_value=10_000)
        for name in FIELD_NAMES
    },
)


class TestArithmetic:
    @given(snapshots, snapshots)
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a
        assert (a + b) - a == b

    @given(snapshots)
    def test_zero_identity(self, a):
        zero = IOSnapshot()
        assert a + zero == a
        assert a - zero == a
        assert a - a == zero

    @given(snapshots, snapshots)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    def test_fieldwise_subtraction(self):
        after = IOSnapshot(leaf_reads=5, leaf_writes=3, log_writes=2)
        before = IOSnapshot(leaf_reads=2, leaf_writes=1)
        delta = after - before
        assert delta.leaf_reads == 3
        assert delta.leaf_writes == 2
        assert delta.log_writes == 2
        assert delta.internal_reads == 0


class TestTotals:
    @given(snapshots)
    def test_totals_invariants(self, snap):
        assert snap.leaf_total == snap.leaf_reads + snap.leaf_writes
        assert snap.index_total == snap.index_reads + snap.index_writes
        assert snap.log_total == snap.log_reads + snap.log_writes
        assert snap.memo_total == snap.memo_reads + snap.memo_writes
        assert snap.counted_total == (
            snap.leaf_total + snap.index_total + snap.log_total
            + snap.memo_total
        )
        assert snap.grand_total == (
            snap.counted_total + snap.internal_reads + snap.internal_writes
        )
        assert snap.grand_total == sum(snap.as_dict().values())

    @given(snapshots)
    def test_as_dict_covers_every_field(self, snap):
        data = snap.as_dict()
        assert set(data) == set(FIELD_NAMES)
        assert IOSnapshot(**data) == snap


class TestIOStats:
    def test_recording_and_snapshot(self):
        stats = IOStats()
        stats.record_read(is_leaf=True)
        stats.record_read(is_leaf=False)
        stats.record_write(is_leaf=True)
        snap = stats.snapshot()
        assert snap.leaf_reads == 1
        assert snap.internal_reads == 1
        assert snap.leaf_writes == 1
        assert snap.leaf_total == 2

    def test_reset(self):
        stats = IOStats()
        stats.record_read(is_leaf=True)
        stats.reset()
        assert stats.snapshot() == IOSnapshot()

    def test_repr_is_flat(self):
        """The repr lists counters directly — no nested IOSnapshot(...)."""
        stats = IOStats()
        stats.record_read(is_leaf=True)
        text = repr(stats)
        assert text.startswith("IOStats(leaf_reads=1, ")
        assert "IOSnapshot" not in text
        assert all(name in text for name in FIELD_NAMES)

class TestMemoFieldsWiring:
    def test_recorder_io_fields_cover_memo(self):
        """The flight recorder's per-op I/O tuple must carry the memo
        tier: IO_FIELDS and IOSnapshot agree field-for-field."""
        from repro.obs.recorder import IO_FIELDS

        assert "memo_reads" in IO_FIELDS and "memo_writes" in IO_FIELDS
        assert len(IO_FIELDS) == 10
        # Positional construction from an IO_FIELDS-ordered tuple must
        # land every value on the right field.
        snap = IOSnapshot(*range(len(IO_FIELDS)))
        for i, name in enumerate(IO_FIELDS):
            assert getattr(snap, name) == i

    def test_stats_reset_clears_memo_counters(self):
        stats = IOStats()
        stats.memo_reads += 3
        stats.memo_writes += 2
        assert stats.snapshot().memo_total == 5
        stats.reset()
        assert stats.snapshot() == IOSnapshot()


class TestEveryPageAccessIsBilled:
    """The Section 4-5 cost model counts page I/O in ``IOStats``; a page
    read or written behind the buffer pool would reach the disk without
    being counted.  Over a workload that inserts, updates, cleans and
    flushes, the disk's own tallies must equal the billed ones, on the
    three R-trees and the memo-hosted B+-tree."""

    @staticmethod
    def _disk_vs_billed(tree):
        stats, disk = tree.stats, tree.buffer.disk
        return (disk.reads, disk.writes), (
            stats.leaf_reads + stats.internal_reads,
            stats.leaf_writes + stats.internal_writes,
        )

    @pytest.mark.parametrize(
        "build",
        [build_rstar_tree, build_fur_tree, build_rum_tree],
        ids=["rstar", "fur", "rum"],
    )
    def test_rtree_page_io_equals_billed_io(self, build):
        tree = build(node_size=1024)
        workload = default_network_workload(150, moving_distance=0.02, seed=3)
        for oid, rect in workload.initial():
            tree.insert_object(oid, rect)
        for oid, old_rect, new_rect in workload.updates(600):
            tree.update_object(oid, old_rect, new_rect)
        if hasattr(tree, "cleaner"):
            tree.cleaner.run_full_cycle()
        tree.buffer.flush()
        disk, billed = self._disk_vs_billed(tree)
        assert disk == billed and disk[0] > 0 and disk[1] > 0

    def test_memo_btree_page_io_equals_billed_io(self):
        tree = MemoBTree(node_size=1024)
        rng = random.Random(1)
        keys = {}
        for oid in range(300):
            keys[oid] = rng.random()
            tree.insert_object(oid, keys[oid])
        for _ in range(900):
            oid = rng.randrange(300)
            new_key = rng.random()
            tree.update_object(oid, keys[oid], new_key)
            keys[oid] = new_key
        tree.cleaner.run_full_cycle()
        tree.buffer.flush()
        disk, billed = self._disk_vs_billed(tree)
        assert disk == billed and disk[0] > 0 and disk[1] > 0
