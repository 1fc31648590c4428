"""Tests for the batched update ingestion pipeline.

Covers the layers the pipeline spans: the pure batch planner
(``repro.core.batch``), the WAL's group commit (unforced appends and one
closing force, including their crash semantics), and the RUM-tree's
``apply_batch``, which runs the same per-op memo write as a single update
inside one buffer operation.  The centrepiece is the equivalence
property: applying a batch must be observably identical to applying the
same operations sequentially.

Under ``REPRO_MEMO_SPILL_BUDGET`` (CI's memo spill-tier leg) every RUM
tree of this file stands its memo on a run tier with that RAM budget, so
``apply_batch`` x ``defer_spills`` x the tier's elision rules run together.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import SMALL_NODE, memo_on_a_run_tier, populate, random_window
from repro import factory
from repro.core.batch import plan_batch
from repro.core.memo_lsm import SpillingUpdateMemo
from repro.core.rum import RUMTree
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.lint.invariants import check_tree
from repro.rtree.geometry import Rect
from repro.rtree.zorder import zorder_key
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector, FaultyDisk, SimulatedCrash
from repro.storage.iostats import IOStats
from repro.storage.wal import UM_ENTRY_BYTES, WriteAheadLog


@pytest.fixture(autouse=True)
def _memo_on_a_run_tier(tmp_path, monkeypatch):
    memo_on_a_run_tier(sys.modules[__name__], tmp_path, monkeypatch)


def _rect(x: float, y: float) -> Rect:
    return Rect.from_point(x, y)


# ---------------------------------------------------------------------------
# Batch planning: dedup fold and Z-order
# ---------------------------------------------------------------------------


class TestPlanBatch:
    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.total_ops == 0
        assert plan.surviving == 0
        assert plan.dedup_ratio == 0.0

    def test_distinct_oids_all_survive(self):
        plan = plan_batch(
            [("insert", i, _rect(i / 10, 0.5)) for i in range(5)]
        )
        assert plan.total_ops == 5
        assert len(plan.upserts) == 5
        assert plan.deduped == 0

    def test_update_chain_keeps_last_rect(self):
        # A trailing old_rect is accepted and ignored (Section 3.2.1).
        plan = plan_batch(
            [
                ("update", 7, _rect(0.2, 0.2), _rect(0.1, 0.1)),
                ("update", 7, _rect(0.3, 0.3), _rect(0.2, 0.2)),
                ("update", 7, _rect(0.4, 0.4)),
            ]
        )
        assert plan.total_ops == 3
        assert plan.deduped == 2
        assert plan.upserts == [(7, _rect(0.4, 0.4))]

    def test_insert_then_delete_is_noop(self):
        plan = plan_batch(
            [("insert", 1, _rect(0.5, 0.5)), ("delete", 1)]
        )
        assert plan.surviving == 0
        assert plan.deduped == 2

    def test_insert_update_delete_is_noop(self):
        plan = plan_batch(
            [
                ("insert", 1, _rect(0.5, 0.5)),
                ("update", 1, _rect(0.6, 0.6), _rect(0.5, 0.5)),
                ("delete", 1),
            ]
        )
        assert plan.surviving == 0

    def test_delete_then_insert_becomes_update(self):
        stored = _rect(0.2, 0.2)
        plan = plan_batch(
            [("delete", 3, stored), ("insert", 3, _rect(0.8, 0.8))]
        )
        assert not plan.deletes
        assert plan.upserts == [(3, _rect(0.8, 0.8))]

    def test_noop_then_insert_is_fresh_insert(self):
        plan = plan_batch(
            [
                ("insert", 1, _rect(0.1, 0.1)),
                ("delete", 1),
                ("insert", 1, _rect(0.9, 0.9)),
            ]
        )
        assert plan.upserts == [(1, _rect(0.9, 0.9))]

    def test_update_then_delete_is_a_delete(self):
        plan = plan_batch(
            [
                ("update", 5, _rect(0.4, 0.4), _rect(0.3, 0.3)),
                ("delete", 5),
            ]
        )
        assert not plan.upserts
        assert plan.deletes == [5]

    def test_upserts_sorted_by_zorder(self):
        rng = random.Random(42)
        ops = [
            ("insert", i, _rect(rng.random(), rng.random()))
            for i in range(50)
        ]
        plan = plan_batch(ops)
        keys = [zorder_key(rect) for _, rect in plan.upserts]
        assert keys == sorted(keys)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            plan_batch([("teleport", 1, _rect(0.5, 0.5))])
        with pytest.raises(ValueError):
            plan_batch([()])
        with pytest.raises(ValueError):
            plan_batch([("insert", 1)])  # missing rect
        with pytest.raises(ValueError):
            plan_batch([("delete", 1, _rect(0.1, 0.1), _rect(0.2, 0.2))])
        with pytest.raises(TypeError):
            plan_batch([("insert", "oid", _rect(0.5, 0.5))])
        with pytest.raises(TypeError):
            plan_batch([("insert", 1, (0.5, 0.5, 0.6, 0.6))])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=30,
        )
    )
    def test_fold_survivors_match_sequential_simulation(self, raw_ops):
        """The fold's surviving op per oid equals a naive replay's final
        visible state (exists where? / gone?)."""
        ops = []
        visible = {}
        for kind, oid, coord in raw_ops:
            if kind == "delete":
                ops.append(("delete", oid))
                visible.pop(oid, None)
            else:
                rect = _rect(coord, coord)
                ops.append((kind, oid, rect))
                visible[oid] = rect
        plan = plan_batch(ops)
        planned = dict(plan.upserts)
        # Deletes in the plan must not overlap the upserts, and nothing
        # visible may be missing from the upserts.
        assert set(planned) == set(visible)
        for oid, rect in visible.items():
            assert planned[oid] == rect
        for oid in plan.deletes:
            assert oid not in visible


class TestZOrder:
    def test_locality_of_nearby_points(self):
        # Morton keys are discontinuous across power-of-two cell
        # boundaries, so pick a "near" pair inside one cell.
        base = zorder_key(_rect(0.3, 0.3))
        near = zorder_key(_rect(0.3001, 0.3001))
        far = zorder_key(_rect(0.9, 0.1))
        assert abs(base - near) < abs(base - far)

    def test_clamps_out_of_range_coordinates(self):
        lo = zorder_key(Rect(-5.0, -5.0, -4.0, -4.0))
        hi = zorder_key(Rect(4.0, 4.0, 5.0, 5.0))
        assert lo == zorder_key(_rect(0.0, 0.0))
        assert hi == zorder_key(_rect(1.0, 1.0))

    def test_interleaving_is_exact_on_grid_corners(self):
        assert zorder_key(_rect(0.0, 0.0)) == 0
        # x contributes the even bits, y the odd bits.
        x_only = zorder_key(_rect(1.0, 0.0))
        y_only = zorder_key(_rect(0.0, 1.0))
        assert x_only & y_only == 0
        assert x_only | y_only == zorder_key(_rect(1.0, 1.0))


# ---------------------------------------------------------------------------
# Equivalence: apply_batch vs sequential application
# ---------------------------------------------------------------------------


def _make_ops(rng: random.Random, positions, n_ops: int):
    """A mixed op stream over existing and fresh oids, tracking the
    expected final visible state."""
    ops = []
    alive = dict(positions)
    next_oid = max(alive) + 1 if alive else 0
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.2 or not alive:
            oid, rect = next_oid, _rect(rng.random(), rng.random())
            next_oid += 1
            ops.append(("insert", oid, rect))
            alive[oid] = rect
        elif roll < 0.85:
            oid = rng.choice(list(alive))
            rect = _rect(rng.random(), rng.random())
            ops.append(("update", oid, rect, alive[oid]))
            alive[oid] = rect
        else:
            oid = rng.choice(list(alive))
            ops.append(("delete", oid, alive.pop(oid)))
    return ops, alive


def _apply_sequentially(tree, ops):
    for op in ops:
        if op[0] == "insert":
            tree.insert_object(op[1], op[2])
        elif op[0] == "update":
            tree.update_object(op[1], op[3] if len(op) > 3 else None, op[2])
        else:
            tree.delete_object(
                op[1], op[2] if len(op) > 2 else None
            )


class TestBatchSequentialEquivalence:
    def _pair(self, **kwargs):
        trees = []
        for _ in range(2):
            tree = build_rum_tree(
                node_size=SMALL_NODE, inspection_ratio=0.2, **kwargs
            )
            populate(tree, 60, seed=9)
            trees.append(tree)
        return trees

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rum_batch_equals_sequential(self, seed):
        seq_tree, batch_tree = self._pair()
        rng = random.Random(seed)
        # Derive the true positions from the populated tree.
        positions = {
            oid: rect for oid, rect in seq_tree.search(Rect(0, 0, 1, 1))
        }
        ops, alive = _make_ops(rng, positions, 200)

        _apply_sequentially(seq_tree, ops)
        result = batch_tree.apply_batch(ops)
        assert result.total_ops == 200

        # Same answer for every query in a window grid...
        wrng = random.Random(seed + 100)
        for _ in range(25):
            window = random_window(wrng)
            assert sorted(batch_tree.search(window)) == sorted(
                seq_tree.search(window)
            )
        # ...and for nearest-neighbour queries.
        for _ in range(10):
            x, y = wrng.random(), wrng.random()
            assert {o for o, _ in batch_tree.nearest_neighbors(x, y, 5)} == {
                o for o, _ in seq_tree.nearest_neighbors(x, y, 5)
            }
        # The final visible state is exactly the tracked oracle.
        assert {
            oid for oid, _ in batch_tree.search(Rect(0, 0, 1, 1))
        } == set(alive)

        # Structural and memo invariants hold on both trees.
        check_tree(seq_tree)
        check_tree(batch_tree)

        # Dedup can only ever *reduce* garbage: superseded in-batch
        # versions are never physically inserted.
        assert batch_tree.garbage_count() <= seq_tree.garbage_count()

    def test_baselines_do_not_batch(self):
        # Batching is the memo's: a top-down or bottom-up update needs the
        # stored entry, which a deduplicated batch does not carry.
        for build in (build_rstar_tree, build_fur_tree):
            assert not hasattr(build(node_size=SMALL_NODE), "apply_batch")

    def test_batch_coalesces_writes(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 80, seed=31)
        rng = random.Random(32)
        ops = [
            ("update", oid, _rect(rng.random(), rng.random()))
            for oid in range(80)
        ]
        result = tree.apply_batch(ops)
        # 80 updates dirty far fewer distinct pages than they mark.
        assert result.write_marks >= result.pages_written
        assert result.coalesced_writes > 0

    def test_batch_writes_leaves_in_ascending_page_order(self):
        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 80, seed=41)
        disk = tree.buffer.disk
        written = []
        original = disk.write_page

        def recording_write(page_id, data):
            written.append(page_id)
            return original(page_id, data)

        disk.write_page = recording_write
        rng = random.Random(42)
        try:
            tree.apply_batch(
                [
                    ("update", oid, _rect(rng.random(), rng.random()))
                    for oid in range(80)
                ]
            )
        finally:
            disk.write_page = original
        # Every write inside the batch comes from the scope-exit flush,
        # which sweeps dirty leaves in ascending page-id order.
        assert written
        assert written == sorted(written)

    def test_rum_update_ignores_missing_old_rect(self):
        # The memo path never needs old_rect; a batch built without it
        # must work on a RUM-tree.
        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 20, seed=51)
        result = tree.apply_batch(
            [("update", oid, _rect(0.5, 0.5)) for oid in range(20)]
        )
        assert result.applied == 20
        assert len(tree.search(Rect(0.49, 0.49, 0.51, 0.51))) == 20


# ---------------------------------------------------------------------------
# Amortised cleaning and checkpointing
# ---------------------------------------------------------------------------


class TestBatchAmortisation:
    def test_cleaner_steps_match_sequential(self):
        seq_tree = build_rum_tree(
            node_size=SMALL_NODE, inspection_ratio=0.3
        )
        batch_tree = build_rum_tree(
            node_size=SMALL_NODE, inspection_ratio=0.3
        )
        populate(seq_tree, 100, seed=61)
        populate(batch_tree, 100, seed=61)
        rng = random.Random(62)
        # Distinct oids: with nothing to dedup, the batch accounts the
        # full op count to the cleaner, exactly like sequential mode.
        ops = [
            ("update", oid, _rect(rng.random(), rng.random()))
            for oid in range(100)
        ]
        _apply_sequentially(seq_tree, ops)
        batch_tree.apply_batch(ops)
        # Same surviving update count -> same accrued step credit ->
        # same number of token inspections, executed at batch end (one
        # step of slack: the batch accrues credit in a single exact
        # multiply, sequential mode in n float additions).
        assert (
            batch_tree.cleaner.updates_seen == seq_tree.cleaner.updates_seen
        )
        assert (
            abs(
                batch_tree.cleaner.leaves_inspected
                - seq_tree.cleaner.leaves_inspected
            )
            <= 1
        )

    def test_deduped_ops_do_not_step_the_cleaner(self):
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.3)
        populate(tree, 50, seed=63)
        seen_before = tree.cleaner.updates_seen
        rng = random.Random(64)
        # Each oid twice: only the 50 surviving ops reach the cleaner —
        # folded-away ops never insert garbage, so stepping for them
        # would over-clean relative to the work actually done.
        tree.apply_batch(
            [
                ("update", oid % 50, _rect(rng.random(), rng.random()))
                for oid in range(100)
            ]
        )
        assert tree.cleaner.updates_seen == seen_before + 50

    def test_at_most_one_checkpoint_per_batch(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            recovery_option="II",
            checkpoint_interval=10,
        )
        populate(tree, 30, seed=71)
        checkpoints_before = tree.wal.checkpoint_count()
        rng = random.Random(72)
        # 40 surviving updates with interval 10: sequentially this would
        # write 4 checkpoints; the batch amortises to exactly one.
        tree.apply_batch(
            [
                ("update", oid % 30, _rect(rng.random(), rng.random()))
                for oid in range(40)
            ]
        )
        assert tree.wal.checkpoint_count() == checkpoints_before + 1
        assert tree._updates_since_checkpoint == 0

    @pytest.mark.parametrize("option", ["II", "III"])
    def test_single_writes_and_batches_share_one_counter(self, option):
        """Single writes and batches accrue toward one checkpoint counter
        and credit one cleaner: the crossing batch writes exactly one
        checkpoint, after its closing force."""
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            inspection_ratio=0.3,
            recovery_option=option,
            checkpoint_interval=10,
        )
        populate(tree, 30, seed=73)
        tree.write_checkpoint()
        wal, cleaner = tree.wal, tree.cleaner
        checkpoints = wal.checkpoint_count()
        seen = cleaner.updates_seen
        at_checkpoint = []
        append_checkpoint = wal.append_checkpoint

        def recording_checkpoint(*args):
            at_checkpoint.append((wal.durable_records(), len(wal)))
            return append_checkpoint(*args)

        wal.append_checkpoint = recording_checkpoint
        rng = random.Random(74)

        def moved(oid):
            return ("update", oid, _rect(rng.random(), rng.random()))

        for oid in range(4):
            tree.update_object(oid, None, moved(oid)[2])
        tree.delete_object(4)
        tree.insert_object(30, _rect(0.5, 0.5))
        tree.apply_batch([moved(5), moved(6), ("delete", 7)])
        # 4 updates + 1 delete + 1 insert + a batch of 3: 9 of 10.
        assert wal.checkpoint_count() == checkpoints
        assert tree._updates_since_checkpoint == 9
        assert cleaner.updates_seen == seen + 9

        # Two surviving ops (the third folds away) cross the interval.
        tree.apply_batch([moved(8), moved(9), moved(9)])
        assert wal.checkpoint_count() == checkpoints + 1
        assert tree._updates_since_checkpoint == 0
        assert cleaner.updates_seen == seen + 11
        # The checkpoint was appended with every earlier record durable:
        # after the batch's closing force.
        ((durable, logged),) = at_checkpoint
        assert durable == logged
        if option == "III":
            *batch, last = wal.read_from(0)[-3:]
            assert sorted(r.payload[0] for r in batch) == [8, 9]
            assert last.kind == "checkpoint"

        tree.update_object(0, None, _rect(0.1, 0.1))
        assert tree._updates_since_checkpoint == 1
        assert wal.checkpoint_count() == checkpoints + 1
        assert cleaner.updates_seen == seen + 12


# ---------------------------------------------------------------------------
# One write body: a single write is a batch of one
# ---------------------------------------------------------------------------


def _pages(tree):
    """Every page image on the tree's disk, after the buffer's flush."""
    tree.buffer.flush()
    disk = tree.buffer.disk
    return {page_id: disk.peek(page_id) for page_id in disk.page_ids()}


class TestBatchOfOne:
    @pytest.mark.parametrize("tier", [False, True], ids=["ram", "tier"])
    @pytest.mark.parametrize("option", [None, "III"])
    def test_single_writes_equal_batches_of_one(self, option, tier, tmp_path):
        """Twin trees, one driven by ``update_object`` / ``insert_object``
        / ``delete_object``, the other by ``apply_batch`` of each op alone:
        same pages, I/O, log and memo.  The single writes run the batch's
        body, with its one page scope, cleaner credit and spill hold; a
        batch of one hands out one stamp, so it forces its record before
        its insert and buys no stamp lease."""
        twins = []
        for name in ("single", "batched"):
            memo = (
                {"memo_dir": str(tmp_path / name),
                 "memo_spill_budget": 8 * UM_ENTRY_BYTES}
                if tier else {}
            )
            tree = factory.build_rum_tree(
                node_size=SMALL_NODE, recovery_option=option,
                checkpoint_interval=50, **memo,
            )
            populate(tree, 60, seed=111)
            twins.append(tree)
        single, batched = twins
        rng = random.Random(112)
        for step in range(300):
            oid = rng.randrange(80)
            if step % 7 == 0:
                single.delete_object(oid)
                batched.apply_batch([("delete", oid)])
            else:
                rect = _rect(rng.random(), rng.random())
                if oid < 60:
                    single.update_object(oid, None, rect)
                    batched.apply_batch([("update", oid, rect)])
                else:
                    single.insert_object(oid, rect)
                    batched.apply_batch([("insert", oid, rect)])
        if tier:
            assert single.memo.runs  # the memo spilled on the way
        assert single.stats.snapshot() == batched.stats.snapshot()
        assert _pages(single) == _pages(batched)
        if option is not None:
            assert single.wal.read_from(0) == batched.wal.read_from(0)
            assert single.wal.force_count == batched.wal.force_count
        assert single.memo.snapshot() == batched.memo.snapshot()
        assert single.stamps.current == batched.stamps.current
        check_tree(batched)
        single.memo.close()
        batched.memo.close()

    def test_option_iii_forces_once_per_single_write(self):
        """Under Option III a single update or delete forces exactly one
        log write and appends no stamp lease, as the paper logs it; a
        batch of 64 still forces two: its lease and its group commit."""
        tree = factory.build_rum_tree(
            node_size=SMALL_NODE, recovery_option="III",
            checkpoint_interval=10**6,
        )
        populate(tree, 100, seed=113)
        wal = tree.wal
        for write in (
            lambda: tree.update_object(3, None, _rect(0.4, 0.4)),
            lambda: tree.delete_object(4),
            lambda: tree.apply_batch([("update", 5, _rect(0.6, 0.6))]),
        ):
            forces, logged = wal.force_count, len(wal)
            log_writes = tree.stats.log_writes
            write()
            assert wal.force_count == forces + 1
            assert tree.stats.log_writes == log_writes + 1
            (record,) = wal.read_from(0)[logged:]
            assert record.kind == "memo"
        forces, logged = wal.force_count, len(wal)
        rng = random.Random(114)
        tree.apply_batch(
            [("update", oid, _rect(rng.random(), rng.random()))
             for oid in range(10, 74)]
        )
        assert wal.force_count == forces + 2
        kinds = [r.kind for r in wal.read_from(0)[logged:]]
        assert kinds == ["lease"] + ["memo"] * 64


# ---------------------------------------------------------------------------
# WAL group commit: a batch appends its records unforced, then forces once
# ---------------------------------------------------------------------------


def _full_log_batch(seed):
    rng = random.Random(seed)
    return [
        ("update", oid, _rect(rng.random(), rng.random()))
        for oid in range(10)
    ]


class TestWalGroupCommit:
    def _full_log_tree(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            recovery_option="III",
            checkpoint_interval=1_000,
        )
        populate(tree, 30, seed=61)
        return tree

    def test_forces_once_per_group(self):
        tree = self._full_log_tree()
        wal = tree.wal
        forces, logged = wal.force_count, len(wal)
        tree.apply_batch(_full_log_batch(62))
        # The stamp lease plus one closing force for all ten records.
        assert wal.force_count == forces + 2
        assert len(wal) == logged + 11
        assert wal.durable_records() == len(wal)

    def test_without_group_each_append_forces(self):
        stats = IOStats()
        wal = WriteAheadLog(4096, stats)
        for i in range(10):
            wal.append_memo_change(i, i + 1)
        assert stats.log_writes == 10

    def test_no_pending_force_means_no_flush(self):
        stats = IOStats()
        wal = WriteAheadLog(4096, stats)
        for i in range(10):
            wal.append_memo_change(i, i + 1, force=False)
        assert stats.log_writes == 0
        assert wal.durable_records() == 0
        wal.force()
        # One forced flush for all ten (no page ever filled).
        assert stats.log_writes == 1
        assert wal.durable_records() == 10

    def test_page_boundary_inside_group_still_advances_durability(self):
        stats = IOStats()
        wal = WriteAheadLog(48, stats)  # two 24-byte records per page
        wal.append_memo_change(1, 1, force=False)
        wal.append_memo_change(2, 2, force=False)  # fills the page
        assert wal.durable_records() == 2
        wal.append_memo_change(3, 3, force=False)
        assert wal.durable_records() == 2
        wal.force()
        assert wal.durable_records() == 3

    def test_exception_inside_group_leaves_tail_undurable(self):
        tree = self._full_log_tree()
        wal = tree.wal
        forces, logged = wal.force_count, len(wal)

        def boom(n):
            raise RuntimeError("boom")

        # The cleaner is credited after every record is appended and
        # before the closing force.
        tree.cleaner.on_batch = boom
        with pytest.raises(RuntimeError):
            tree.apply_batch(_full_log_batch(63))
        assert wal.force_count == forces + 1  # the stamp lease only
        assert wal.durable_records() == logged + 1
        assert wal.crash_truncate() == 10

    def test_crash_mid_group_loses_undurable_records(self):
        inj = FaultInjector()
        wal = WriteAheadLog(4096, IOStats(), faults=inj)
        wal.append_memo_change(0, 1)  # durable before the batch
        inj.arm("wal.append", skip=2)
        with pytest.raises(SimulatedCrash):
            for i in range(1, 4):  # the third append crashes
                wal.append_memo_change(i, i + 1, force=False)
        assert wal.durable_records() == 1
        lost = wal.crash_truncate()
        assert lost == 2
        assert [r.payload for r in wal.read_from(0)] == [(0, 1)]

    def test_crash_at_group_commit_force_loses_batch(self):
        inj = FaultInjector()
        wal = WriteAheadLog(4096, IOStats(), faults=inj)
        wal.append_memo_change(1, 1, force=False)
        wal.append_memo_change(2, 2, force=False)
        inj.arm("wal.force")
        with pytest.raises(SimulatedCrash):
            wal.force()
        # The closing force crashed before flushing: the whole batch is
        # volatile, exactly like a crash an instant before the force.
        assert wal.durable_records() == 0
        assert wal.crash_truncate() == 2


class TestBatchCrashRecovery:
    def _tree_with_faults(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            recovery_option="III",
            checkpoint_interval=1_000,
        )
        inj = FaultInjector()
        tree.wal.faults = inj
        return tree, inj

    def test_crash_at_closing_force_keeps_inserted_entries(self):
        from repro.core.recovery import recover_option_iii

        tree, inj = self._tree_with_faults()
        populate(tree, 30, seed=81)
        tree.write_checkpoint()
        stamps_at_checkpoint = tree.stamps.current

        # Crash on the group-commit force at batch end (skip=1 lets the
        # stamp lease's immediate force through first).  Every insertion
        # of the batch already reached the (durable) tree; only the memo
        # records' tail dies.
        inj.arm("wal.force", skip=1)
        rng = random.Random(82)
        ops = [
            ("update", oid, _rect(rng.random(), rng.random()))
            for oid in range(10)
        ]
        with pytest.raises(SimulatedCrash):
            tree.apply_batch(ops)
        stamps_attempted = tree.stamps.current
        assert stamps_attempted == stamps_at_checkpoint + 10

        lost = tree.wal.crash_truncate()
        assert lost > 0  # the undurable tail of the batch died
        tree.crash()
        inj.disarm()
        report = recover_option_iii(tree)

        # The stamp lease survived (forced before the batch body), so
        # the recovered counter dominates every stamp the batch handed
        # out — none can be reissued onto an orphaned tree entry.
        assert tree.stamps.current == stamps_attempted
        # The lease's range is not covered by durable records, so the
        # recovery detected the torn batch and paid the leaf scan.
        assert report.leaf_entries_scanned > 0
        check_tree(tree)

        # Torn-batch contract: an operation counts as applied iff its
        # entry reached the tree or its record became durable.  Here
        # every insertion ran before the crashing force, so all ten
        # updates are visible despite their lost records.
        expected = {op[1]: op[2] for op in ops}
        results = dict(tree.search(Rect(0, 0, 1, 1)))
        for oid, rect in expected.items():
            assert results[oid] == rect
        assert len(results) == 30

    def test_crash_mid_batch_applies_physical_prefix_only(self):
        from repro.core.recovery import recover_option_iii

        tree, inj = self._tree_with_faults()
        positions = populate(tree, 30, seed=83)
        tree.write_checkpoint()

        # skip=5 lets the stamp lease's append plus four memo appends
        # through, then crashes while appending the fifth memo record:
        # four operations fully applied (record + insert), the rest
        # never happened.
        inj.arm("wal.append", skip=5)
        rng = random.Random(84)
        ops = [
            ("update", oid, _rect(rng.random(), rng.random()))
            for oid in range(10)
        ]
        with pytest.raises(SimulatedCrash):
            tree.apply_batch(ops)

        tree.wal.crash_truncate()
        tree.crash()
        inj.disarm()
        recover_option_iii(tree)
        check_tree(tree)

        # The batch plan Z-orders the upserts, so "the first four" are
        # the first four of the plan, not of the input batch.
        from repro.core.batch import plan_batch

        applied = dict(plan_batch(ops).upserts[:4])
        expected = dict(positions)
        expected.update(applied)
        assert dict(tree.search(Rect(0, 0, 1, 1))) == expected

    def test_sequential_updates_after_recovered_batch_crash(self):
        from repro.core.recovery import recover_option_iii

        tree, inj = self._tree_with_faults()
        populate(tree, 30, seed=85)
        tree.write_checkpoint()
        inj.arm("wal.force", skip=1)
        rng = random.Random(86)
        with pytest.raises(SimulatedCrash):
            tree.apply_batch(
                [
                    ("update", oid, _rect(rng.random(), rng.random()))
                    for oid in range(10)
                ]
            )
        tree.wal.crash_truncate()
        tree.crash()
        inj.disarm()
        recover_option_iii(tree)

        # Life goes on: stamps issued after recovery never collide with
        # the crashed batch's orphans, and the tree stays consistent.
        for oid in range(30):
            tree.update_object(oid, None, _rect(rng.random(), rng.random()))
        check_tree(tree)
        assert len(tree.search(Rect(0, 0, 1, 1))) == 30

    def test_committed_batch_survives_crash(self):
        from repro.core.recovery import recover_option_iii

        tree, inj = self._tree_with_faults()
        populate(tree, 30, seed=91)
        tree.write_checkpoint()
        rng = random.Random(92)
        ops = [
            ("update", oid, _rect(rng.random(), rng.random()))
            for oid in range(10)
        ]
        result = tree.apply_batch(ops)
        assert result.applied == 10
        expected = sorted(tree.search(Rect(0, 0, 1, 1)))
        stamp_after = tree.stamps.current

        # Crash *after* the batch committed: everything must survive.
        tree.wal.crash_truncate()
        tree.crash()
        recover_option_iii(tree)
        assert tree.stamps.current == stamp_after
        assert sorted(tree.search(Rect(0, 0, 1, 1))) == expected
        check_tree(tree)


    def test_fault_points_fire_in_durability_order(self, tmp_path):
        """One Option-III batch over a run tier, cleaner on, reaches its
        crash windows in the batch's durability order: the stamp lease's
        append and force, the memo records (unforced), the spill's run and
        manifest writes, the one closing force, then the leaf flush."""
        seen = []

        class Recording(FaultInjector):
            def trigger(self, point):
                seen.append(point)
                return super().trigger(point)

        inj, stats = Recording(), IOStats()
        tree = RUMTree(
            BufferPool(
                FaultyDisk(DiskManager(SMALL_NODE), inj),
                NodeCodec(SMALL_NODE, rum_leaves=True),
                stats,
            ),
            recovery_option="III",
            wal=WriteAheadLog(SMALL_NODE, stats, faults=inj),
            checkpoint_interval=10**9,
            memo=SpillingUpdateMemo(
                str(tmp_path), spill_budget=256, stats=stats, faults=inj
            ),
        )
        populate(tree, 120, seed=7)
        rng = random.Random(8)
        seen.clear()
        tree.apply_batch(
            [("update", oid, _rect(rng.random(), rng.random()))
             for oid in range(16)]
        )
        assert [(p, len(list(g))) for p, g in itertools.groupby(seen)] == [
            ("wal.append", 1), ("wal.force", 1),
            ("wal.append", 16),
            ("memo.compact", 1), ("memo.run_flush", 1), ("memo.manifest", 1),
            ("memo.compact", 1), ("memo.manifest", 1),
            ("wal.force", 1),
            ("disk.page_write", 14),
        ]


# ---------------------------------------------------------------------------
# Observability wiring
# ---------------------------------------------------------------------------


class TestBatchObservability:
    def test_batch_counters_and_span(self):
        from repro.obs import ListEventSink, Observability

        sink = ListEventSink()
        obs = Observability(level="trace", sink=sink)
        tree = build_rum_tree(node_size=SMALL_NODE, obs=obs)
        populate(tree, 20, seed=101)
        sink.events.clear()
        ops = [("update", 1, _rect(0.5, 0.5))] * 3 + [
            ("update", 2, _rect(0.6, 0.6))
        ]
        tree.apply_batch(ops)
        reg = obs.registry
        assert reg.counter("tree.batches").value == 1
        assert reg.counter("tree.batch_ops").value == 4
        assert reg.counter("tree.batch_deduped").value == 2
        spans = [
            e for e in sink.of_type("span") if e["name"] == "update_batch"
        ]
        assert len(spans) == 1
        assert spans[0]["ops"] == 4
        assert spans[0]["deduped"] == 2
