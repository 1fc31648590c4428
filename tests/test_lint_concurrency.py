"""Tests for the concurrency lint rules (REP011–REP015).

Same fixture discipline as ``test_lint.py``: every rule gets a failing
fixture (the violation the rule was written to catch), a suppression
check, and a negative (compliant code passes).  The last test runs the
five rules over the real source tree — the discipline they enforce must
hold in the code that ships.
"""

from __future__ import annotations

import pathlib
import textwrap

from repro.lint import run_lint

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CONCURRENCY_RULES = ("REP011", "REP012", "REP013", "REP014", "REP015")


def write(root: pathlib.Path, rel: str, body: str) -> pathlib.Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def lint(root: pathlib.Path, *select: str):
    return run_lint([root], select=list(select) or None)


def rule_ids(diagnostics) -> set:
    return {d.rule_id for d in diagnostics}


class TestReleasePairing:
    """REP011: explicit acquires must be release-paired on all paths."""

    def test_flags_unpaired_acquire(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(lock):
                lock.acquire()
                do_work()
                lock.release()
            """,
        )
        diags = lint(tmp_path, "REP011")
        assert rule_ids(diags) == {"REP011"}
        assert "acquire" in diags[0].message

    def test_flags_unpaired_rw_acquires(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(latch):
                latch.acquire_read()
                read_things()
                latch.release_read()

            def g(latch):
                latch.acquire_write()
                write_things()
                latch.release_write()
            """,
        )
        assert len(lint(tmp_path, "REP011")) == 2

    def test_accepts_following_try_finally(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(lock):
                lock.acquire()
                try:
                    do_work()
                finally:
                    lock.release()
            """,
        )
        assert lint(tmp_path, "REP011") == []

    def test_accepts_enclosing_try_finally(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(locks):
                acquired = []
                try:
                    for lock in locks:
                        lock.acquire_write()
                        acquired.append(lock)
                    work()
                finally:
                    for lock in reversed(acquired):
                        lock.release_write()
            """,
        )
        assert lint(tmp_path, "REP011") == []

    def test_release_of_other_receiver_does_not_pair(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(a, b):
                a.acquire()
                try:
                    work()
                finally:
                    b.release()
            """,
        )
        assert rule_ids(lint(tmp_path, "REP011")) == {"REP011"}

    def test_mismatched_release_kind_does_not_pair(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(latch):
                latch.acquire_write()
                try:
                    work()
                finally:
                    latch.release_read()
            """,
        )
        assert rule_ids(lint(tmp_path, "REP011")) == {"REP011"}

    def test_nested_function_resets_try_scope(self, tmp_path):
        # A finally around a *def* does not run around later calls of
        # the defined function, so it must not pair the inner acquire.
        write(
            tmp_path,
            "core/x.py",
            """
            def f(lock):
                try:
                    def g():
                        lock.acquire()
                        work()
                        lock.release()
                    return g
                finally:
                    lock.release()
            """,
        )
        assert rule_ids(lint(tmp_path, "REP011")) == {"REP011"}

    def test_with_blocks_never_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(lock):
                with lock:
                    do_work()
            """,
        )
        assert lint(tmp_path, "REP011") == []

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(lock):
                lock.acquire()  # lint: disable=REP011  released by caller
                return lock
            """,
        )
        assert lint(tmp_path, "REP011") == []


class TestLockOrder:
    """REP012: the project-wide lock-order graph must be acyclic."""

    CYCLIC = """
        class Worker:
            def forwards(self):
                with self.memo_lock:
                    with self.stamp_lock:
                        work()

            def backwards(self):
                with self.stamp_lock:
                    with self.memo_lock:
                        work()
    """

    def test_flags_two_lock_cycle(self, tmp_path):
        write(tmp_path, "core/x.py", self.CYCLIC)
        diags = lint(tmp_path, "REP012")
        assert rule_ids(diags) == {"REP012"}
        # Both edges of the cycle are reported, each at its own site.
        assert len(diags) == 2
        assert "cycle" in diags[0].message

    def test_cycle_across_files(self, tmp_path):
        write(
            tmp_path,
            "core/a.py",
            """
            def f(memo_lock, stamp_lock):
                with memo_lock:
                    with stamp_lock:
                        work()
            """,
        )
        write(
            tmp_path,
            "core/b.py",
            """
            def g(memo_lock, stamp_lock):
                with stamp_lock:
                    with memo_lock:
                        work()
            """,
        )
        diags = lint(tmp_path, "REP012")
        assert len(diags) == 2
        assert {d.path.rsplit("/", 1)[-1] for d in diags} == {"a.py", "b.py"}

    def test_three_lock_cycle(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(a_lock, b_lock, c_lock):
                with a_lock:
                    with b_lock:
                        work()

            def g(a_lock, b_lock, c_lock):
                with b_lock:
                    with c_lock:
                        work()

            def h(a_lock, b_lock, c_lock):
                with c_lock:
                    with a_lock:
                        work()
            """,
        )
        diags = lint(tmp_path, "REP012")
        assert len(diags) == 3

    def test_consistent_order_passes(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Worker:
                def one(self):
                    with self.memo_lock:
                        with self.stamp_lock:
                            work()

                def two(self):
                    with self.memo_lock:
                        with self.stamp_lock:
                            other_work()
            """,
        )
        assert lint(tmp_path, "REP012") == []

    def test_non_lock_withs_ignored(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(pool, stamp_lock):
                with pool.operation():
                    with stamp_lock:
                        work()

            def g(pool, stamp_lock):
                with stamp_lock:
                    with pool.operation():
                        work()
            """,
        )
        assert lint(tmp_path, "REP012") == []

    def test_reentrant_same_lock_not_a_cycle(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(latch):
                with latch.read():
                    with latch.read():
                        work()
            """,
        )
        assert lint(tmp_path, "REP012") == []

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Worker:
                def forwards(self):
                    with self.memo_lock:
                        # lint: disable=REP012  intentional for the fixture
                        with self.stamp_lock:
                            work()

                def backwards(self):
                    with self.stamp_lock:
                        # lint: disable=REP012  intentional for the fixture
                        with self.memo_lock:
                            work()
            """,
        )
        assert lint(tmp_path, "REP012") == []


class TestGuardedBy:
    """REP013: guarded attributes only touched under their lock."""

    BAD = """
        class Counter:
            def __init__(self):
                self._value = 0  # guarded-by: _lock
                self._lock = make_lock()

            def unsafe(self):
                return self._value
    """

    def test_flags_unguarded_access(self, tmp_path):
        write(tmp_path, "core/x.py", self.BAD)
        diags = lint(tmp_path, "REP013")
        assert rule_ids(diags) == {"REP013"}
        assert "_value" in diags[0].message
        assert "_lock" in diags[0].message

    def test_with_block_satisfies(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Counter:
                def __init__(self):
                    self._value = 0  # guarded-by: _lock
                    self._lock = make_lock()

                def safe(self):
                    with self._lock:
                        return self._value
            """,
        )
        assert lint(tmp_path, "REP013") == []

    def test_holds_annotation_satisfies(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Memo:
                def __init__(self):
                    self._buckets = []  # guarded-by: bucket_lock

                def _bucket(self, oid):  # holds: bucket_lock
                    return self._buckets[oid % 4]

                # holds: bucket_lock
                def snapshot(self):
                    return list(self._buckets)
            """,
        )
        assert lint(tmp_path, "REP013") == []

    def test_access_after_with_block_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Counter:
                def __init__(self):
                    self._value = 0  # guarded-by: _lock
                    self._lock = make_lock()

                def leaky(self):
                    with self._lock:
                        snapshot = self._value
                    return snapshot + self._value
            """,
        )
        diags = lint(tmp_path, "REP013")
        assert len(diags) == 1

    def test_constructor_and_cascades_exempt(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Memo:
                def __init__(self):
                    self._runs = []  # guarded-by: latch
                    self._runs.append(0)

                def attach_obs(self, obs):
                    obs.gauge("runs").set_function(lambda: len(self._runs))
            """,
        )
        assert lint(tmp_path, "REP013") == []

    def test_wrong_lock_does_not_satisfy(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Counter:
                def __init__(self):
                    self._value = 0  # guarded-by: _lock
                    self._lock = make_lock()
                    self._other_mutex = make_lock()

                def wrong(self):
                    with self._other_mutex:
                        return self._value
            """,
        )
        assert rule_ids(lint(tmp_path, "REP013")) == {"REP013"}

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class Counter:
                def __init__(self):
                    self._value = 0  # guarded-by: _lock
                    self._lock = make_lock()

                def racy_by_design(self):
                    return self._value  # lint: disable=REP013  stat probe
            """,
        )
        assert lint(tmp_path, "REP013") == []


class TestStampLockIO:
    """REP014: no blocking I/O under a stamp-counter lock."""

    def test_flags_io_in_stamp_class_lock(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class StampCounter:
                def checkpoint(self, disk):
                    with self._lock:
                        disk.write_page(0, b"checkpoint")
                        return self._value
            """,
        )
        diags = lint(tmp_path, "REP014")
        assert rule_ids(diags) == {"REP014"}
        assert "write_page" in diags[0].message

    def test_flags_io_under_stamp_named_with(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(locks, wal):
                with locks.locked([("stamp_counter", "write")]):
                    wal.append_record(b"x")
            """,
        )
        assert rule_ids(lint(tmp_path, "REP014")) == {"REP014"}

    def test_flags_open_and_fsync(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(stamp_latch):
                with stamp_latch:
                    handle = open("/tmp/x", "wb")
                    handle.fsync()
            """,
        )
        assert len(lint(tmp_path, "REP014")) == 2

    def test_pure_latch_use_passes(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            class StampCounter:
                def next(self):
                    with self._lock:
                        stamp = self._value
                        self._value += 1
                        return stamp
            """,
        )
        assert lint(tmp_path, "REP014") == []

    def test_io_under_other_locks_not_this_rules_business(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(memo_lock, disk):
                with memo_lock:
                    disk.write_page(0, b"fine here")
            """,
        )
        assert lint(tmp_path, "REP014") == []

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(stamp_latch, disk):
                with stamp_latch:
                    disk.flush()  # lint: disable=REP014  recovery path
            """,
        )
        assert lint(tmp_path, "REP014") == []


class TestThreadingPrimitives:
    """REP015: threading primitives built only inside repro.concurrency."""

    def test_flags_direct_construction(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            import threading

            guard = threading.Lock()
            """,
        )
        diags = lint(tmp_path, "REP015")
        assert rule_ids(diags) == {"REP015"}
        assert "make_lock" in diags[0].message

    def test_flags_from_import_and_alias(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            import threading as t
            from threading import Condition as Cond

            a = t.RLock()
            b = Cond()
            """,
        )
        assert len(lint(tmp_path, "REP015")) == 2

    def test_concurrency_package_exempt(self, tmp_path):
        write(
            tmp_path,
            "concurrency/locks.py",
            """
            import threading

            guard = threading.Lock()
            """,
        )
        assert lint(tmp_path, "REP015") == []

    def test_tests_exempt(self, tmp_path):
        write(
            tmp_path,
            "tests/test_x.py",
            """
            import threading

            gate = threading.Event()
            """,
        )
        assert lint(tmp_path, "REP015") == []

    def test_thread_and_local_allowed(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            import threading

            worker = threading.Thread(target=print)
            slot = threading.local()
            """,
        )
        assert lint(tmp_path, "REP015") == []

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            import threading

            guard = threading.Lock()  # lint: disable=REP015  bootstrap
            """,
        )
        assert lint(tmp_path, "REP015") == []


class TestRealTree:
    def test_concurrency_rules_clean_over_src(self):
        assert REPO_SRC.is_dir()
        diags = run_lint([REPO_SRC], select=list(CONCURRENCY_RULES))
        assert diags == []

    def test_lock_order_graph_sees_the_real_edge(self):
        # The harness nests granule locks outside the structure latch;
        # flipping one nesting elsewhere must close a reportable cycle.
        # This guards against the rule silently collecting no edges.
        from repro.lint.concurrency import LockOrderRule
        from repro.lint.engine import load_context

        throughput = (
            REPO_SRC / "repro" / "concurrency" / "throughput.py"
        )
        ctx = load_context(throughput)
        edges = {}
        rule = LockOrderRule()
        rule._collect(ctx.tree, None, [], ctx, edges)
        assert any(
            "locks" in outer and "tree_latch" in inner
            for outer, inner in edges
        )
