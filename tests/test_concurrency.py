"""Tests for the read/write locks, granular lock manager, the Figure-16
lock policy and the load driver.  Under ``REPRO_MEMO_SPILL_BUDGET`` every
RUM-tree built through ``build_rum_tree`` here stands its memo on a run
tier."""

import random
import sys
import threading
import time

import pytest

from conftest import memo_on_a_run_tier
from repro import factory
from repro.concurrency import racecheck
from repro.concurrency.locks import (
    READ,
    WRITE,
    GranularLockManager,
    ReadWriteLock,
)
from repro.concurrency.racecheck import RaceChecker
from repro.concurrency.throughput import (
    GranuleLockedTree,
    LoadDriver,
    _cells_for,
)
from repro.factory import build_rstar_tree, build_rum_tree
from repro.rtree.geometry import Rect
from repro.serving import ShardRouter
from repro.workload.objects import UniformMovingObjects
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import QueryOp, UpdateOp, mixed_trace


@pytest.fixture(autouse=True)
def _memo_on_a_run_tier(tmp_path, monkeypatch):
    memo_on_a_run_tier(sys.modules[__name__], tmp_path, monkeypatch)


def _drive(tree, operations, n_clients, **policy):
    """Figure 16's setup: a closed-loop replay through the granule-lock
    policy.  Returns ``(driver, result)``."""
    locked = GranuleLockedTree(tree, **policy)
    driver = LoadDriver(lambda k: locked.perform, n_clients=n_clients)
    return driver, driver.run(operations)


class TestReadWriteLock:
    def test_multiple_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()  # second reader must not block
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        acquired = []

        def reader():
            lock.acquire_read()
            acquired.append(True)
            lock.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        assert not acquired  # blocked while the writer holds the lock
        lock.release_write()
        thread.join(timeout=2)
        assert acquired

    def test_writer_excludes_writer(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        acquired = []

        def writer():
            lock.acquire_write()
            acquired.append(True)
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert not acquired
        lock.release_write()
        thread.join(timeout=2)
        assert acquired

    def test_release_without_acquire_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_context_managers(self):
        lock = ReadWriteLock()
        with lock.read():
            pass
        with lock.write():
            pass


class TestGranularLockManager:
    def test_locks_created_on_demand(self):
        manager = GranularLockManager()
        assert manager.num_granules() == 0
        manager.lock_for("a")
        assert manager.num_granules() == 1
        assert manager.lock_for("a") is manager.lock_for("a")

    def test_locked_acquires_and_releases(self):
        manager = GranularLockManager()
        with manager.locked([("a", WRITE), ("b", READ)]):
            pass
        # Everything released: an exclusive re-acquire must not block.
        with manager.locked([("a", WRITE), ("b", WRITE)]):
            pass

    def test_duplicate_granules_coalesced_write_wins(self):
        manager = GranularLockManager()
        with manager.locked([("a", READ), ("a", WRITE)]):
            # If the read lock were acquired separately the write acquire
            # on the same granule would deadlock — reaching here proves
            # the coalescing.
            pass

    def test_unknown_mode_rejected(self):
        manager = GranularLockManager()
        with pytest.raises(ValueError):
            with manager.locked([("a", "exclusive")]):
                pass

    def test_parallel_disjoint_granules(self):
        manager = GranularLockManager()
        order = []

        def worker(name):
            with manager.locked([(name, WRITE)]):
                order.append(name)
                time.sleep(0.02)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in "abcd"
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Disjoint granules run concurrently: far less than serial time.
        assert time.perf_counter() - started < 4 * 0.02 + 0.2
        assert sorted(order) == list("abcd")


class TestCellCover:
    def test_single_cell_for_point(self):
        cells = _cells_for(Rect.from_point(0.55, 0.55), grid=4)
        assert cells == [("cell", 2, 2)]

    def test_window_spans_cells(self):
        cells = _cells_for(Rect(0.0, 0.0, 0.6, 0.3), grid=4)
        assert ("cell", 0, 0) in cells
        assert ("cell", 2, 1) in cells
        assert len(cells) == 6

    def test_padding_widens_cover(self):
        narrow = _cells_for(Rect.from_point(0.5, 0.5), grid=8)
        padded = _cells_for(Rect.from_point(0.5, 0.5), grid=8, pad=0.2)
        assert len(padded) > len(narrow)

    def test_clamped_to_grid(self):
        cells = _cells_for(Rect(0.9, 0.9, 1.0, 1.0), grid=4, pad=0.5)
        for _tag, cx, cy in cells:
            assert 0 <= cx < 4 and 0 <= cy < 4


class TestConcurrentHarness:
    def _workload(self, tree, n_objects=150, ops=60, update_fraction=0.5):
        objects = UniformMovingObjects(
            n_objects, moving_distance=0.05, seed=120
        )
        for oid, rect in objects.initial():
            tree.insert_object(oid, rect)
        return mixed_trace(
            objects,
            RangeQueryGenerator(side=0.1, seed=121),
            ops,
            update_fraction,
            seed=122,
        )

    def test_rum_tree_runs_mixed_workload(self):
        tree = build_rum_tree(node_size=512)
        trace = self._workload(tree)
        _, outcome = _drive(tree, trace, 8, io_latency=0.0)
        assert outcome.operations == len(outcome.latencies_ms) == len(trace)
        updates = sum(isinstance(op, UpdateOp) for op in trace)
        assert updates / len(trace) == pytest.approx(0.5, abs=0.05)
        tree.check_invariants()

    def test_rstar_tree_runs_mixed_workload(self):
        tree = build_rstar_tree(node_size=512)
        trace = self._workload(tree)
        _, outcome = _drive(tree, trace, 8, io_latency=0.0)
        assert outcome.operations == len(outcome.latencies_ms) == len(trace)
        tree.check_invariants()

    def test_worker_errors_surface(self):
        tree = build_rstar_tree(node_size=512)
        objects = UniformMovingObjects(10, seed=123)
        # Do NOT load the tree: updates must fail and propagate.
        trace = mixed_trace(
            objects, RangeQueryGenerator(seed=124), 10, 1.0, seed=125
        )
        with pytest.raises(Exception):
            _drive(tree, trace, 4, io_latency=0.0)

    def test_invalid_thread_count(self):
        tree = build_rum_tree(node_size=512)
        with pytest.raises(ValueError):
            _drive(tree, [], 0)

    def test_results_identical_to_sequential(self):
        """Concurrency must not change query answers: replay the same
        trace sequentially and compare final search results."""
        trace = None
        results = {}
        for mode in ("concurrent", "sequential"):
            tree = build_rum_tree(node_size=512)
            if trace is None:
                trace = self._workload(tree, update_fraction=1.0)
            else:
                self._workload(tree, update_fraction=1.0)
            if mode == "concurrent":
                _drive(tree, trace, 8, io_latency=0.0)
            else:
                for op in trace:
                    tree.update_object(op.oid, op.old_rect, op.new_rect)
            results[mode] = sorted(tree.search(Rect(0, 0, 1, 1)))
        assert results["concurrent"] == results["sequential"]


class TestLockFootprints:
    """The Section-3.5 asymmetry at the unit level: a memo-based update
    requests far fewer exclusive spatial granules than a top-down one."""

    def _op(self):
        from repro.workload.trace import UpdateOp

        return UpdateOp(
            oid=7,
            old_rect=Rect.from_point(0.5, 0.5),
            new_rect=Rect.from_point(0.52, 0.52),
        )

    def test_rum_update_locks_one_cell(self):
        tree = build_rum_tree(node_size=512)
        _brief, held = GranuleLockedTree(tree).footprint(self._op())
        cells = [
            granule
            for granule, _mode in held
            if isinstance(granule, tuple) and granule[0] == "cell"
        ]
        assert len(cells) == 1

    def test_rstar_update_locks_a_neighbourhood(self):
        rum = GranuleLockedTree(build_rum_tree(node_size=512))
        rstar = GranuleLockedTree(build_rstar_tree(node_size=512))
        op = self._op()
        rum_cells = [
            g for g, _m in rum.footprint(op)[1]
            if isinstance(g, tuple) and g[0] == "cell"
        ]
        rstar_cells = [
            g for g, _m in rstar.footprint(op)[1]
            if isinstance(g, tuple) and g[0] == "cell"
        ]
        assert len(rstar_cells) > len(rum_cells)

    def test_rum_brief_latches_exist_and_are_brief(self):
        tree = build_rum_tree(node_size=512)
        brief, held = GranuleLockedTree(tree).footprint(self._op())
        names = {g if not isinstance(g, tuple) else g[0] for g, _m in brief}
        assert "stamp_counter" in names
        assert "memo_bucket" in names
        assert not names & {g[0] for g, _m in held}  # never held across I/O
        # The R*-tree has no in-memory latches to take.
        rstar = GranuleLockedTree(build_rstar_tree(node_size=512))
        assert rstar.footprint(self._op())[0] == []


class TestReadReentrancy:
    """Read holds are reentrant even with a writer queued (the classic
    writer-preference self-deadlock, see docs/CONCURRENCY.md)."""

    def test_reentrant_read_with_waiting_writer(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = []

        def writer():
            writer_started.set()
            lock.acquire_write()
            writer_done.append(True)
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        writer_started.wait(timeout=2)
        time.sleep(0.05)  # let the writer reach the preference gate
        # Pre-fix this deadlocked: the second acquire_read queued
        # behind the waiting writer, which waits for the first hold.
        lock.acquire_read()
        lock.release_read()
        assert not writer_done  # writer still excluded by the first hold
        lock.release_read()
        thread.join(timeout=2)
        assert writer_done

    def test_fresh_reader_still_respects_writer_preference(self):
        # Reentrancy is per thread: a *different* thread with no prior
        # hold queues behind the waiting writer, and the writer goes
        # first once the original read hold drains.
        lock = ReadWriteLock()
        lock.acquire_read()
        order = []

        def writer():
            lock.acquire_write()
            order.append("writer")
            lock.release_write()

        def fresh_reader():
            lock.acquire_read()
            order.append("reader")
            lock.release_read()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # writer reaches the preference gate
        r = threading.Thread(target=fresh_reader)
        r.start()
        time.sleep(0.05)
        assert order == []  # both parked behind the first read hold
        lock.release_read()
        w.join(timeout=2)
        r.join(timeout=2)
        assert order[0] == "writer"

    def test_write_reentrancy_raises(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        with pytest.raises(RuntimeError, match="not reentrant"):
            lock.acquire_write()
        lock.release_write()

    def test_upgrade_raises(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        with pytest.raises(RuntimeError, match="upgrade"):
            lock.acquire_write()
        lock.release_read()

    def test_downgrade_raises(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        with pytest.raises(RuntimeError, match="downgrade"):
            lock.acquire_read()
        lock.release_write()


class TestWriterPreferenceLiveness:
    def test_writer_not_starved_by_reader_stream(self):
        # A continuous stream of new readers must not starve a queued
        # writer: the preference gate parks readers arriving after it.
        lock = ReadWriteLock()
        stop = threading.Event()
        writer_done = threading.Event()

        def reader_stream():
            while not stop.is_set():
                lock.acquire_read()
                time.sleep(0.001)
                lock.release_read()

        readers = [threading.Thread(target=reader_stream) for _ in range(4)]
        for r in readers:
            r.start()
        time.sleep(0.02)

        def writer():
            lock.acquire_write()
            lock.release_write()
            writer_done.set()

        w = threading.Thread(target=writer)
        w.start()
        assert writer_done.wait(timeout=5), "writer starved by readers"
        stop.set()
        w.join(timeout=2)
        for r in readers:
            r.join(timeout=2)

    def test_no_lost_wakeups_under_churn(self):
        # Many writers and readers hammering one lock: every acquire
        # must eventually succeed (a lost wakeup would hang a thread
        # and trip the join timeout), and the write count must be exact.
        lock = ReadWriteLock()
        counter = {"value": 0}
        per_thread = 40

        def writer():
            for _ in range(per_thread):
                lock.acquire_write()
                counter["value"] += 1
                lock.release_write()

        def reader():
            for _ in range(per_thread):
                lock.acquire_read()
                assert counter["value"] >= 0
                lock.release_read()

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "thread hung: lost wakeup"
        assert counter["value"] == 4 * per_thread


class TestNotifyOnlyWhenSomeoneWaits:
    """A release wakes the condition only for a thread that can move; an
    uncontended acquire / release pair (every served op) notifies nobody."""

    @staticmethod
    def _counted(lock):
        calls = []
        notify_all = lock._condition.notify_all
        lock._condition.notify_all = lambda: calls.append(1) or notify_all()
        return calls

    @staticmethod
    def _parked(lock, attr, n):
        """Wait until ``n`` threads are counted as waiting."""
        deadline = time.monotonic() + 5
        while getattr(lock, attr) != n and time.monotonic() < deadline:
            time.sleep(0.001)
        assert getattr(lock, attr) == n

    def test_idle_releases_skip_the_notify(self):
        lock = ReadWriteLock()
        calls = self._counted(lock)
        for _ in range(3):
            lock.acquire_write()
            lock.release_write()
            lock.acquire_read()
            lock.acquire_read()  # reentrant
            lock.release_read()
            lock.release_read()
            with lock.write():
                pass
            with lock.read():
                pass
        assert calls == []
        assert lock._writers_waiting == lock._readers_waiting == 0

    def test_writer_queued_behind_readers_wakes_on_the_last_release(self):
        lock = ReadWriteLock()
        calls = self._counted(lock)
        lock.acquire_read()
        gate = threading.Event()
        entered = threading.Event()
        held = []

        def second_reader():
            lock.acquire_read()
            held.append("reader")
            entered.set()
            gate.wait(timeout=5)
            lock.release_read()

        def writer():
            lock.acquire_write()
            held.append("writer")
            lock.release_write()

        r = threading.Thread(target=second_reader)
        r.start()
        assert entered.wait(timeout=5)
        w = threading.Thread(target=writer)
        w.start()
        self._parked(lock, "_writers_waiting", 1)
        lock.release_read()  # one reader left: nobody can move yet
        assert calls == [] and held == ["reader"]
        gate.set()  # the last reader leaves and wakes the writer
        w.join(timeout=5)
        r.join(timeout=5)
        assert not w.is_alive() and not r.is_alive()
        assert held == ["reader", "writer"]
        assert calls == [1]  # the writer's own release found nobody waiting

    def test_readers_queued_behind_a_writer_all_wake(self):
        lock = ReadWriteLock()
        calls = self._counted(lock)
        lock.acquire_write()
        inside = []

        def reader(k):
            lock.acquire_read()
            inside.append(k)
            lock.release_read()

        readers = [threading.Thread(target=reader, args=(k,)) for k in range(3)]
        for t in readers:
            t.start()
        self._parked(lock, "_readers_waiting", 3)
        assert inside == []
        lock.release_write()
        for t in readers:
            t.join(timeout=5)
            assert not t.is_alive(), "reader never woken"
        assert sorted(inside) == [0, 1, 2]
        assert calls == [1]
        assert lock._readers_waiting == 0

    def test_exclusion_and_wake_ups_hold_under_a_short_switch_interval(self):
        # More threads than cores, pre-empted every few bytecodes: a
        # skipped notify that was needed hangs a thread (join timeout), a
        # broken exclusion shows as a reader beside a writer.
        import sys

        lock = ReadWriteLock()
        state = {"writers": 0, "readers": 0, "writes": 0}
        violations = []
        per_thread = 150

        def writer():
            for _ in range(per_thread):
                lock.acquire_write()
                try:
                    state["writers"] += 1
                    if state["writers"] != 1 or state["readers"]:
                        violations.append(dict(state))
                    state["writes"] += 1
                    state["writers"] -= 1
                finally:
                    lock.release_write()

        def reader():
            for _ in range(per_thread):
                lock.acquire_read()
                try:
                    if state["writers"]:
                        violations.append(dict(state))
                finally:
                    lock.release_read()

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "thread hung: lost wakeup"
        finally:
            sys.setswitchinterval(interval)
        assert violations == []
        assert state["writes"] == 4 * per_thread
        assert lock._writers_waiting == lock._readers_waiting == 0


class TestLockOrderTotalOrder:
    class _EvilRepr:
        """Adversarial granule: every repr() call differs."""

        _serial = [0]

        def __init__(self):
            self._serial[0] += 1
            self.me = self._serial[0]

        def __repr__(self):
            import random

            return f"evil-{random.random()}"

        def __hash__(self):
            return 0  # force hash collisions too

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.me == other.me

    def test_order_key_is_stable_per_granule(self):
        manager = GranularLockManager()
        granules = [self._EvilRepr() for _ in range(8)]
        first = [manager.order_key(g) for g in granules]
        second = [manager.order_key(g) for g in granules]
        # The repr is captured once at registration: stable thereafter.
        assert first == second
        assert len(set(first)) == len(granules)

    def test_order_key_total_across_types(self):
        manager = GranularLockManager()
        granules = [("cell", 1, 2), "stamp_counter", 7, self._EvilRepr()]
        keys = [manager.order_key(g) for g in granules]
        assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable
        assert len(set(keys)) == len(granules)

    def test_adversarial_granules_do_not_deadlock(self):
        # Two threads locking the same adversarial pair in opposite
        # request order: the manager's total order must serialise them.
        manager = GranularLockManager()
        a, b = self._EvilRepr(), self._EvilRepr()
        done = []

        def forwards():
            for _ in range(50):
                with manager.locked([(a, WRITE), (b, WRITE)]):
                    done.append("f")

        def backwards():
            for _ in range(50):
                with manager.locked([(b, WRITE), (a, WRITE)]):
                    done.append("b")

        threads = [
            threading.Thread(target=forwards),
            threading.Thread(target=backwards),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "deadlock: total order violated"
        assert len(done) == 100


class TestTwoPhaseLockingHammer:
    def test_multi_granule_2pl_invariant(self):
        # Each op moves one unit from one account-granule to another
        # under both write locks; the grand total is the oracle — any
        # 2PL violation (lock not actually held, partial acquisition)
        # shows up as a lost update.
        manager = GranularLockManager()
        n_accounts = 6
        balances = {i: 100 for i in range(n_accounts)}
        ops_per_thread = 150

        def worker(seed):
            import random

            rng = random.Random(seed)
            for _ in range(ops_per_thread):
                src, dst = rng.sample(range(n_accounts), 2)
                with manager.locked(
                    [(("acct", src), WRITE), (("acct", dst), WRITE)]
                ):
                    take = balances[src]
                    give = balances[dst]
                    balances[src] = take - 1
                    balances[dst] = give + 1

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert sum(balances.values()) == 100 * n_accounts


#: A memo on a run tier with a 256-byte RAM budget and no cleaning: after
#: ``_spilled_load`` most query probes read a run page.
SPILLED = dict(
    node_size=512,
    memo_spill_budget=256,
    inspection_ratio=0,
    clean_upon_touch=False,
)


def _spilled_load(upsert, updates=3000, seed=290):
    """400 objects inserted, then ``updates`` moves, through
    ``upsert(oid, rect)``; returns 200 seeded query windows."""
    rng = random.Random(seed)

    def square(side):
        x, y = rng.random() * (1 - side), rng.random() * (1 - side)
        return Rect(x, y, x + side, y + side)

    for oid in range(400):
        upsert(oid, square(0.01))
    for _ in range(updates):
        upsert(rng.randrange(400), square(0.01))
    return [square(0.2) for _ in range(200)]


def _spilled_tree(tmp_path, updates=3000):
    """A RUM-tree over a spilled memo after ``_spilled_load``."""
    tree = factory.build_rum_tree(memo_dir=str(tmp_path / "memo"), **SPILLED)
    windows = _spilled_load(
        lambda oid, rect: tree.update_object(oid, None, rect), updates
    )
    assert len(tree.memo.tier.runs) > 1
    return tree, windows


def _four_callers(execute, ops):
    """Replay ``ops`` from 4 closed-loop callers with the GIL switching
    every microsecond; the first caller error is re-raised."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        LoadDriver(lambda k: execute, n_clients=4).run(ops)
    finally:
        sys.setswitchinterval(interval)


class TestExclusiveLatchedQueries:
    """Queries hold the structure latch exclusively, like every tree
    operation: shared, they raced on a spilled memo's run files and
    bought no throughput under one GIL (docs/CONCURRENCY.md)."""

    def _query_workload(self, tree, ops=40):
        objects = UniformMovingObjects(120, moving_distance=0.05, seed=220)
        for oid, rect in objects.initial():
            tree.insert_object(oid, rect)
        return mixed_trace(
            objects,
            RangeQueryGenerator(side=0.15, seed=221),
            ops,
            0.25,  # query-heavy
            seed=222,
        )

    def test_one_query_at_a_time_inside_search(self):
        """At most one thread is ever inside one tree's ``search``: the
        policy holds the latch exclusively for queries too."""
        tree = build_rum_tree(node_size=512)
        for oid in range(50):
            tree.insert_object(
                oid, Rect(oid / 50, 0.4, oid / 50 + 0.01, 0.41)
            )
        inside, peak = [0], [0]
        original = tree.search

        def counted_search(window):
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
            time.sleep(0.002)  # a caller sharing the latch gets in here
            inside[0] -= 1
            return original(window)

        tree.search = counted_search
        ops = [QueryOp(Rect(0, 0, 1, 1))] * 16
        _, outcome = _drive(tree, ops, 4, io_latency=0.0)
        assert len(outcome.latencies_ms) == 16
        assert peak[0] == 1

    def test_query_heavy_run_is_race_free(self):
        """With the detector on, a query-heavy mixed run over one tree
        reports zero races."""
        checker = racecheck.activate(RaceChecker())
        try:
            tree = build_rum_tree(node_size=512)
            trace = self._query_workload(tree)
            _drive(tree, trace, 8, io_latency=0.0)
            assert checker._fields  # the tree's probes reached it
            checker.assert_no_races()
        finally:
            racecheck.deactivate()
        tree.check_invariants()

    def test_served_queries_on_a_spilled_memo_answer_as_one_caller(
        self, tmp_path
    ):
        """4 callers on one shard over a spilled memo: every answer is
        the single caller's and none raises (read-latched, 627 of 800
        raised and 28 answered wrong)."""
        with ShardRouter(1, memo_dir=str(tmp_path), **SPILLED) as router:
            windows = _spilled_load(router.upsert)
            assert len(router.shards[0].tree.memo.tier.runs) > 1
            want = {window: router.query(window) for window in windows}
            wrong = []

            def ask(window):
                if router.query(window) != want[window]:
                    wrong.append(window)

            _four_callers(ask, windows * 4)
        assert wrong == []

    def test_policy_queries_on_a_spilled_memo_answer_as_one_caller(
        self, tmp_path
    ):
        """The same through the Figure-16 policy, queries only."""
        tree, windows = _spilled_tree(tmp_path)
        want = {window: sorted(tree.search(window)) for window in windows}
        wrong = []
        search = tree.search

        def checked_search(window):
            rows = search(window)
            if sorted(rows) != want[window]:
                wrong.append(window)
            return rows

        tree.search = checked_search
        locked = GranuleLockedTree(tree, io_latency=0.0)
        _four_callers(locked.perform, [QueryOp(w) for w in windows] * 4)
        assert wrong == []

    def test_detector_sees_read_latched_run_probes(self, tmp_path):
        """The run tier reports its probes: two searches of a spilled
        memo that share the read side of one lock are an RC001 on
        ``RunStore.runs`` (one after the other: Eraser needs no overlap
        to see it)."""
        tree, windows = _spilled_tree(tmp_path, updates=1000)
        shared = ReadWriteLock()
        checker = racecheck.activate(RaceChecker())
        try:
            def read_latched_searches():
                with shared.read():
                    for window in windows[:20]:
                        tree.search(window)

            for _ in range(2):
                thread = threading.Thread(target=read_latched_searches)
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            racecheck.deactivate()
        races = {(race.class_name, race.field) for race in checker.races}
        assert ("RunStore", "runs") in races

    def test_policy_over_a_spilled_memo_is_race_free(self, tmp_path):
        """The exclusive latch covers the run tier: no race reported."""
        checker = racecheck.activate(RaceChecker())
        try:
            tree, windows = _spilled_tree(tmp_path, updates=1000)
            ops = [QueryOp(window) for window in windows[:40]] * 2
            _drive(tree, ops, 4, io_latency=0.0)
            assert any(field == "runs" for _obj, field in checker._fields)
            checker.assert_no_races()
        finally:
            racecheck.deactivate()


class TestPercentile:
    def test_empty_and_singleton(self):
        from repro.concurrency.throughput import percentile

        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_linear_interpolation(self):
        from repro.concurrency.throughput import percentile

        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        vals = [float(i) for i in range(101)]
        assert percentile(vals, 0.95) == pytest.approx(95.0)
        assert percentile(vals, 0.0) == 0.0
        assert percentile(vals, 1.0) == 100.0


class TestOpenLoopHarness:
    """The load driver: the six open-loop cases, their closed-loop
    mirror images, and the two failure paths."""

    def _factory(self, sink, lock):
        def make(k):
            def execute(op):
                with lock:
                    sink.append((k, op))

            return execute

        return make

    def test_fixed_rate_run(self):
        sink = []
        lock = threading.Lock()
        harness = LoadDriver(self._factory(sink, lock), n_clients=4)
        ops = list(range(120))
        result = harness.run(ops, rate=3000.0)
        assert result.operations == 120
        assert len(result.latencies_ms) == 120
        assert sorted(op for _, op in sink) == ops
        # Round-robin assignment: client k got ops k, k+4, ...
        for k, op in sink:
            assert op % 4 == k
        assert result.latencies_ms == sorted(result.latencies_ms)
        report = result.report()
        assert set(report) == {"p50_ms", "p95_ms", "p99_ms", "max_ms"}
        assert report["p50_ms"] <= report["p95_ms"] <= report["p99_ms"]
        # 120 ops at 3000/s is a 40 ms schedule; generous upper bound.
        assert 0.03 < result.elapsed_seconds < 5.0

    def test_saturation_run(self):
        sink = []
        lock = threading.Lock()
        harness = LoadDriver(self._factory(sink, lock), n_clients=2)
        result = harness.run(list(range(50)), rate=float("inf"))
        assert result.offered_rate == float("inf")
        assert result.achieved_rate > 0
        assert len(sink) == 50

    def test_queueing_charged_to_latency(self):
        """Open-loop semantics: a slow server at an offered rate beyond
        its capacity shows *growing* latency (queueing from the
        scheduled arrival), not the flat service time a closed loop
        would report."""
        service = 0.005

        def factory(k):
            def execute(op):
                time.sleep(service)  # one blocking server per client

            return execute

        harness = LoadDriver(factory, n_clients=1)
        # Offered 1000/s against a 200/s server: op i queues ~i*4ms.
        result = harness.run(list(range(30)), rate=1000.0)
        assert result.percentile_ms(0.99) > 4 * service * 1000
        assert result.percentile_ms(0.99) > 3 * result.percentile_ms(0.05)

    def test_errors_surface(self):
        def factory(k):
            def execute(op):
                if op == 7:
                    raise RuntimeError("injected")

            return execute

        harness = LoadDriver(factory, n_clients=2)
        with pytest.raises(RuntimeError, match="injected"):
            harness.run(list(range(20)), rate=float("inf"))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            LoadDriver(lambda k: (lambda op: None), n_clients=0)
        harness = LoadDriver(lambda k: (lambda op: None), n_clients=1)
        with pytest.raises(ValueError):
            harness.run([1], rate=0.0)

    def test_racecheck_brackets_clients(self):
        from repro.concurrency import racecheck
        from repro.concurrency.racecheck import RaceChecker
        checker = racecheck.activate(RaceChecker())
        try:
            counts = [0, 0]

            def factory(k):
                def execute(op):
                    checker.access(counts, f"slot[{k}]", write=True)
                    counts[k] += 1  # disjoint slots: no race

                return execute

            # The main thread writes both slots before and reads them
            # after the run: only the fork and join edges order those
            # accesses with the clients'.
            for k in range(2):
                checker.access(counts, f"slot[{k}]", write=True)
            harness = LoadDriver(factory, n_clients=2)
            harness.run(list(range(20)), rate=float("inf"))
            for k in range(2):
                checker.access(counts, f"slot[{k}]", write=False)
            checker.assert_no_races()
        finally:
            racecheck.deactivate()
        assert sum(counts) == 20

    def test_closed_loop_runs_every_op_once(self):
        sink = []
        lock = threading.Lock()
        harness = LoadDriver(self._factory(sink, lock), n_clients=4)
        ops = list(range(120))
        result = harness.run(ops)
        assert result.offered_rate is None
        assert result.operations == len(result.latencies_ms) == 120
        assert sorted(op for _, op in sink) == ops
        assert result.latencies_ms == sorted(result.latencies_ms)
        assert result.achieved_rate > 0

    def test_closed_loop_latency_is_service_time(self):
        """Mirror image of ``test_queueing_charged_to_latency``: the
        same slow server driven closed-loop reads its flat service time
        — no queueing growth from the first op to the last."""
        service = 0.005

        def factory(k):
            def execute(op):
                time.sleep(service)

            return execute

        result = LoadDriver(factory, n_clients=1).run(list(range(30)))
        assert result.percentile_ms(0.50) >= service * 1000
        # Queueing would make op i wait ~i x 4 ms (p75 near 20 x service in
        # the open-loop test above).  Asserted on a percentile that one
        # scheduler hiccup among the 30 sleeps cannot move: the p99 of 30
        # samples is the single slowest one, and a busy host stretches it.
        assert result.percentile_ms(0.75) < 2 * result.percentile_ms(0.05)

    def test_factory_failure_surfaces_instead_of_hanging(self):
        """A client whose factory raises never reaches the start
        barrier; the run must re-raise, not wait on it forever."""

        def factory(k):
            if k == 1:
                raise ConnectionRefusedError("injected")
            return lambda op: None

        outcome = []

        def run():
            try:
                LoadDriver(factory, n_clients=2).run(list(range(10)))
            except ConnectionRefusedError as exc:
                outcome.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert len(outcome) == 1

    @pytest.mark.parametrize("rate", [None, float("inf")])
    def test_first_failure_stops_the_other_clients(self, rate):
        executed = []

        def factory(k):
            def execute(op):
                if op == 0:
                    raise RuntimeError("injected")
                time.sleep(0.002)
                executed.append(op)

            return execute

        with pytest.raises(RuntimeError, match="injected"):
            LoadDriver(factory, n_clients=2).run(list(range(400)), rate)
        assert len(executed) < 50  # not the ~200-400 of a drained trace
