"""Tests for the Eraser-style race detector (``repro.concurrency.racecheck``).

Three layers:

* the lockset/vector-clock algorithm on synthetic objects (seeded races
  must be flagged, disciplined code must not be);
* seeded races on the *real* structures — an unprotected concurrent
  ``UpdateMemo.record_update`` is the canonical bug the paper's locking
  protocol exists to prevent;
* clean runs: the concurrency harness and the mixed stress harness over
  a real RUM-tree report **zero** races, with an invariant oracle on the
  final tree state.

Eraser is schedule-insensitive: two unordered threads touching a field
race *deterministically* in the checker's eyes even if the OS never
interleaves them, so none of these tests depend on timing.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import racecheck
from repro.concurrency.locks import ReadWriteLock
from repro.concurrency.primitives import make_lock
from repro.concurrency.racecheck import RaceChecker, TrackedLock
from repro.concurrency.throughput import (
    GranuleLockedTree,
    LoadDriver,
    build_mixed_ops,
)
from repro.core.memo import UpdateMemo
from repro.core.stamp import StampCounter
from repro.factory import build_rum_tree
from repro.obs import Observability
from repro.rtree.geometry import Rect
from repro.workload.trace import QueryOp, UpdateOp


@pytest.fixture()
def checker():
    """A fresh checker installed as the process-wide ACTIVE one."""
    chk = racecheck.activate(RaceChecker())
    try:
        yield chk
    finally:
        racecheck.deactivate()


def locations(chk):
    """``(class name, field)`` of every location ``chk`` has tracked."""
    return {(chk._class_names[key], key[1]) for key in chk._fields}


def run_threads(*targets):
    threads = [
        threading.Thread(target=fn, name=f"rc-test-{i}")
        for i, fn in enumerate(targets)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Shared:
    """A bare object to hang checker-visible fields on."""


class TestLocksetAlgorithm:
    def test_unprotected_shared_write_is_a_race(self, checker):
        obj = Shared()

        def writer():
            checker.access(obj, "field", write=True)

        run_threads(writer, writer)
        assert checker.race_count >= 1
        assert checker.races[0].field == "field"

    def test_consistent_mutex_is_clean(self, checker):
        obj = Shared()
        lock = TrackedLock(threading.Lock())

        def writer():
            with lock:
                checker.access(obj, "field", write=True)

        run_threads(writer, writer)
        assert checker.race_count == 0

    def test_distinct_locks_race(self, checker):
        # Deterministic interleaving (main, worker, main): after the
        # worker's access the candidate set is {lock_b}; the main
        # thread's second access drains it to empty under lock_a.
        obj = Shared()
        lock_a = TrackedLock(threading.Lock())
        lock_b = TrackedLock(threading.Lock())

        def worker():
            with lock_b:
                checker.access(obj, "field", write=True)

        with lock_a:
            checker.access(obj, "field", write=True)
        run_threads(worker)
        with lock_a:
            checker.access(obj, "field", write=True)
        assert checker.race_count >= 1

    def test_read_only_sharing_is_clean(self, checker):
        obj = Shared()

        def reader():
            checker.access(obj, "field", write=False)

        run_threads(reader, reader)
        assert checker.race_count == 0

    def test_read_mode_hold_does_not_protect_writes(self, checker):
        # Mode-awareness: two writers sharing one *read* lock are not
        # mutually excluded — the checker must not count read holds
        # toward a write's candidate lockset.
        obj = Shared()
        latch = ReadWriteLock()

        def writer():
            with latch.read():
                checker.access(obj, "field", write=True)

        run_threads(writer, writer)
        assert checker.race_count >= 1

    def test_write_mode_hold_protects(self, checker):
        obj = Shared()
        latch = ReadWriteLock()

        def writer():
            with latch.write():
                checker.access(obj, "field", write=True)

        run_threads(writer, writer)
        assert checker.race_count == 0

    def test_fields_are_independent(self, checker):
        obj = Shared()

        def writer(field):
            checker.access(obj, field, write=True)

        run_threads(lambda: writer("a"), lambda: writer("a"))
        run_threads(lambda: writer("b"))
        assert checker.race_count == 1
        assert checker.races[0].field == "a"

    def test_race_reported_once_per_location(self, checker):
        obj = Shared()

        def writer():
            for _ in range(5):
                checker.access(obj, "field", write=True)

        run_threads(writer, writer)
        assert checker.race_count == 1


class TestHappensBefore:
    def test_fork_join_lifecycle_is_clean(self, checker):
        # The classic Eraser false positive: parent initialises without
        # locks, workers mutate under a lock, parent reads after join.
        obj = Shared()
        lock = TrackedLock(threading.Lock())
        checker.access(obj, "field", write=True)  # unlocked init

        def worker():
            with lock:
                checker.access(obj, "field", write=True)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            checker.note_fork(t)
            t.start()
        for t in threads:
            t.join()
            checker.note_join(t)
        checker.access(obj, "field", write=True)  # unlocked post-join read-back
        assert checker.race_count == 0

    def test_missing_fork_edge_is_a_race(self, checker):
        # Same shape without the fork edge: the parent's unlocked init
        # is unordered with the worker's write, and must be flagged.
        obj = Shared()
        checker.access(obj, "field", write=True)

        def worker():
            checker.access(obj, "field", write=True)

        run_threads(worker)
        assert checker.race_count == 1

    def test_ownership_transfer(self, checker):
        # Sequential hand-off through fork edges: each owner mutates
        # without locks, but never concurrently with another.
        obj = Shared()
        checker.access(obj, "field", write=True)

        def owner():
            checker.access(obj, "field", write=True)

        first = threading.Thread(target=owner)
        checker.note_fork(first)
        first.start()
        first.join()
        checker.note_join(first)

        second = threading.Thread(target=owner)
        checker.note_fork(second)
        second.start()
        second.join()
        checker.note_join(second)
        assert checker.race_count == 0


class TestReporting:
    def _seed_race(self, checker):
        obj = Shared()

        def writer():
            checker.access(obj, "damaged", write=True)

        run_threads(writer, writer)
        return obj

    def test_report_carries_location_and_stacks(self, checker):
        self._seed_race(checker)
        report = checker.races[0]
        assert report.location == "Shared.damaged"
        rendered = report.render()
        assert "RC001" in rendered
        assert "Shared.damaged" in rendered
        assert "rc-test-" in rendered  # the racing thread's name
        assert "test_racecheck.py" in rendered  # a real stack frame

    def test_assert_no_races_raises_with_report(self, checker):
        self._seed_race(checker)
        with pytest.raises(RuntimeError, match="RC001"):
            checker.assert_no_races()

    def test_clean_checker_reports_clean(self, checker):
        assert "no data races" in checker.report()
        checker.assert_no_races()

    def test_obs_counter(self, checker):
        obs = Observability(level="metrics")
        checker.attach_obs(obs)
        self._seed_race(checker)
        assert obs.registry.counter("racecheck.races").value == 1

    def test_obs_counter_survives_reset(self, checker):
        obs = Observability(level="metrics")
        checker.attach_obs(obs)
        self._seed_race(checker)
        checker.reset()  # clears the reports, not what was counted
        races = obs.registry.counter("racecheck.races")
        assert checker.race_count == 0 and races.value == 1
        self._seed_race(checker)
        assert races.value == 2

    def test_reset_forgets_everything(self, checker):
        self._seed_race(checker)
        checker.reset()
        assert checker.race_count == 0
        self._seed_race(checker)
        assert checker.race_count == 1


class TestActivation:
    def test_env_activation(self, monkeypatch):
        racecheck.deactivate()
        monkeypatch.setenv("REPRO_RACECHECK", "1")
        try:
            assert racecheck.env_enabled()
            chk = racecheck.from_env()
            assert chk is not None
            assert racecheck.active() is chk
            # Idempotent: a second from_env returns the same checker.
            assert racecheck.from_env() is chk
        finally:
            racecheck.deactivate()

    def test_env_zero_and_empty_disable(self, monkeypatch):
        racecheck.deactivate()
        for value in ("0", ""):
            monkeypatch.setenv("REPRO_RACECHECK", value)
            assert not racecheck.env_enabled()
            assert racecheck.from_env() is None

    def test_make_lock_tracks_when_active(self, checker):
        from repro.concurrency.primitives import make_lock

        lock = make_lock()
        assert isinstance(lock, TrackedLock)
        with lock:
            assert checker.held_locks()
        assert checker.held_locks() == []


class TestSeededRacesOnRealStructures:
    def test_unlocked_memo_updates_race(self, checker):
        # The canonical seeded bug: two threads record updates into the
        # same memo bucket without a lock (Section 3.5's protocol
        # requires one).  The detector must flag the bucket.
        memo = UpdateMemo()
        stamps = iter(range(1, 10001))
        stamp_lock = threading.Lock()

        def updater():
            for _ in range(50):
                with stamp_lock:
                    stamp = next(stamps)
                memo.record_update(7, stamp)

        run_threads(updater, updater)
        assert checker.race_count >= 1
        assert "bucket[" in checker.races[0].field

    def test_locked_memo_updates_clean(self, checker):
        # Same workload, disciplined: each thread holds one lock across
        # its record_update.  Zero races.
        memo = UpdateMemo()
        lock = make_lock()
        stamps = iter(range(1, 10001))
        stamp_lock = threading.Lock()

        def updater():
            for _ in range(50):
                with stamp_lock:
                    stamp = next(stamps)
                with lock:
                    memo.record_update(7, stamp)

        run_threads(updater, updater)
        assert checker.race_count == 0

    def test_stamp_counter_is_internally_safe(self, checker):
        # StampCounter locks internally — raw concurrent use is clean.
        stamps = StampCounter()

        def worker():
            for _ in range(100):
                stamps.next()

        run_threads(worker, worker)
        assert checker.race_count == 0
        assert stamps.current == 201

    def test_unlocked_snapshot_against_locked_writer_races(self, checker):
        # A lockless whole-table snapshot concurrent with a locked
        # bucket writer is still a race on that bucket: the snapshot
        # holds nothing, so the candidate lockset drains to empty.
        memo = UpdateMemo()
        lock = make_lock()

        def writer():
            for stamp in range(1, 51):
                with lock:
                    memo.record_update(3, stamp)

        memo.snapshot()  # main-thread scan, no locks held
        run_threads(writer)
        memo.snapshot()  # drains the bucket's candidate set to empty
        assert checker.race_count >= 1


class TestCleanRealTreeRuns:
    """The detector must be silent over the disciplined harnesses."""

    def _workload(self, n_objects=40, n_ops=120, seed=3):
        import random

        rng = random.Random(seed)
        positions = {}
        initial = []
        for oid in range(n_objects):
            x, y = rng.random() * 0.95, rng.random() * 0.95
            rect = Rect(x, y, x + 0.02, y + 0.02)
            positions[oid] = rect
            initial.append((oid, rect))
        ops = []
        for _ in range(n_ops):
            if rng.random() < 0.6:
                oid = rng.randrange(n_objects)
                x, y = rng.random() * 0.95, rng.random() * 0.95
                new = Rect(x, y, x + 0.02, y + 0.02)
                ops.append(UpdateOp(oid, positions[oid], new))
                positions[oid] = new
            else:
                x, y = rng.random() * 0.8, rng.random() * 0.8
                ops.append(QueryOp(Rect(x, y, x + 0.15, y + 0.15)))
        return initial, ops

    def test_concurrent_harness_zero_races(self, checker):
        tree = build_rum_tree()
        initial, ops = self._workload()
        for oid, rect in initial:
            tree.insert(rect, oid)
        locked = GranuleLockedTree(tree, io_latency=0.0)
        harness = LoadDriver(lambda k: locked.perform, n_clients=4)
        assert isinstance(tree.latch, TrackedLock)
        harness.run(ops)
        assert checker.report() == "racecheck: no data races detected"
        checker.assert_no_races()
        # Silent because disciplined, not because blind.
        assert ("UpdateMemo", "bucket[0]") in locations(checker)
        assert ("BufferPool", "caches") in locations(checker)

    def test_mixed_stress_zero_races_and_invariants(self, checker):
        tree = build_rum_tree()
        initial, ops = build_mixed_ops(
            30, 90, batch_every=10, batch_size=4, clean_every=25
        )
        for oid, rect in initial:
            tree.insert(rect, oid)
        locked = GranuleLockedTree(tree, io_latency=0.0)
        LoadDriver(lambda k: locked.perform, n_clients=4).run(ops)
        checker.assert_no_races()
        # Invariant oracle: whatever interleaving ran, the tree must
        # serve exactly one latest entry per object.
        results = tree.search(Rect(0.0, 0.0, 1.0, 1.0))
        oids = [oid for oid, _rect in results]
        assert sorted(oids) == list(range(30))


class TestPostBuildActivation:
    """Every probe reads ``racecheck.ACTIVE`` at the call, so a stack
    built before activation reports from the moment of activation."""

    def test_sees_the_memo_and_buffer_pool(self):
        racecheck.deactivate()
        tree = build_rum_tree()
        for oid in range(20):
            tree.insert(Rect(oid * 0.04, 0.1, oid * 0.04 + 0.01, 0.11), oid)
        chk = racecheck.activate(RaceChecker())
        try:
            tree.update_object(3, None, Rect(0.5, 0.5, 0.51, 0.51))
            tree.search(Rect(0.0, 0.0, 1.0, 1.0))
        finally:
            racecheck.deactivate()
        seen = locations(chk)
        assert ("UpdateMemo", "bucket[3]") in seen
        assert ("BufferPool", "caches") in seen
        assert ("StampCounter", "_value") in seen

    def test_unlocked_memo_writers_race(self):
        tree = build_rum_tree()
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 7)
        stamps = iter(range(100, 10000))
        stamp_lock = threading.Lock()
        chk = racecheck.activate(RaceChecker())
        try:
            def updater():
                for _ in range(50):
                    with stamp_lock:
                        stamp = next(stamps)
                    tree.memo.record_update(7, stamp)

            run_threads(updater, updater)
        finally:
            racecheck.deactivate()
        assert "RC001" in chk.report()
        assert [race.location for race in chk.races] == ["UpdateMemo.bucket[7]"]
