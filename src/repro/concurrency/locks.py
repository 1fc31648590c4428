"""Read/write locks and a granular lock manager (Section 3.5).

The paper adopts Dynamic Granular Locking (DGL [4]) for the on-disk tree
and associates read/write locks with the Update-Memo hash buckets and the
stamp counter.  This module supplies the locking substrate for the
throughput experiment (Figure 16):

* :class:`ReadWriteLock` — a classic shared/exclusive lock with writer
  preference (so update-heavy workloads are not starved) and reentrant
  *reads* (a thread already holding a read hold re-enters without
  queuing behind waiting writers — queuing would self-deadlock, see
  ``docs/CONCURRENCY.md``);
* :class:`GranularLockManager` — a table of read/write locks over named
  granules with deterministic multi-granule acquisition order (granules
  are always locked in a process-wide total order, which rules out
  deadlocks under two-phase locking; the contract is documented on
  :meth:`GranularLockManager.order_key`).

Both classes notify the active :mod:`~repro.concurrency.racecheck`
checker on acquire/release so the Eraser lockset algorithm sees
read/write holds with the correct mode.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

from . import racecheck as _racecheck


class ReadWriteLock:
    """A shared/exclusive lock with writer preference.

    Reads are **reentrant**: a thread that already holds a read hold may
    acquire further read holds without blocking, even while a writer is
    queued.  Without this, writer preference turns read reentrancy into
    a guaranteed self-deadlock — the waiting writer blocks the thread's
    second ``acquire_read`` while the writer itself waits for that
    thread's first hold to drain.  Writes are **not** reentrant, and
    upgrading (``acquire_write`` while holding a read hold) is refused:
    both are detected and raise ``RuntimeError`` instead of deadlocking.
    """

    def __init__(self) -> None:
        # ``_mutex`` guards the state; the condition shares it and is only
        # touched to park or wake (entering it costs a Python frame).
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = False
        self._writer_tid: int | None = None
        # Threads parked in ``wait()``, by kind: a release notifies only
        # when one of them can move.
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Per-thread read hold count (each lock instance carries its own
        # thread-local namespace, so counts never mix across locks).
        self._local = threading.local()

    def _read_holds(self) -> int:
        holds: int = getattr(self._local, "read_holds", 0)
        return holds

    def acquire_read(self) -> None:
        held = self._read_holds()
        if held:
            # Reentrant read: exclusion already holds for this thread,
            # and waiting on the writer-preference gate here would
            # deadlock against any queued writer.
            with self._mutex:
                self._readers += 1
            self._local.read_holds = held + 1
        else:
            with self._mutex:
                if self._writer_tid == threading.get_ident():
                    raise RuntimeError(
                        "acquire_read while holding the write lock "
                        "would self-deadlock (no downgrade support)"
                    )
                self._readers_waiting += 1  # a leak only over-notifies
                while self._writer or self._writers_waiting:
                    self._condition.wait()
                self._readers_waiting -= 1
                self._readers += 1
            self._local.read_holds = 1
        checker = _racecheck.ACTIVE
        if checker is not None:
            checker.note_acquire(self, _racecheck.READ_MODE)

    def release_read(self) -> None:
        with self._mutex:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._readers -= 1
            # Only a writer waits on the reader count, and only for zero.
            if self._readers == 0 and self._writers_waiting:
                self._condition.notify_all()
        held = self._read_holds()
        if held:
            self._local.read_holds = held - 1
        checker = _racecheck.ACTIVE
        if checker is not None:
            checker.note_release(self)

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer_tid == me:
                raise RuntimeError(
                    "the write lock is not reentrant (second "
                    "acquire_write by the holding thread)"
                )
            if self._read_holds():
                raise RuntimeError(
                    "lock upgrade (acquire_write while holding a read "
                    "hold) would self-deadlock"
                )
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
            self._writer_tid = me
        checker = _racecheck.ACTIVE
        if checker is not None:
            checker.note_acquire(self, _racecheck.WRITE_MODE)

    def release_write(self) -> None:
        with self._mutex:
            if not self._writer:
                raise RuntimeError("release_write without a matching acquire")
            self._writer = False
            self._writer_tid = None
            if self._writers_waiting or self._readers_waiting:
                self._condition.notify_all()
        checker = _racecheck.ACTIVE
        if checker is not None:
            checker.note_release(self)

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


#: Lock modes accepted by the lock manager.
READ = "read"
WRITE = "write"

#: The sort key produced by :meth:`GranularLockManager.order_key`.
OrderKey = Tuple[str, str, int]


class GranularLockManager:
    """Read/write locks over dynamically created granules.

    Granules are arbitrary hashable names (spatial cells, memo buckets,
    the stamp counter).  :meth:`locked` acquires a whole set of
    ``(granule, mode)`` pairs in the total order defined by
    :meth:`order_key` and releases them on exit — two-phase locking
    with a global acquisition order, hence deadlock-free.
    """

    def __init__(self) -> None:
        self._locks: Dict[Hashable, ReadWriteLock] = {}
        self._order: Dict[Hashable, OrderKey] = {}
        self._table_guard = threading.Lock()

    def lock_for(self, granule: Hashable) -> ReadWriteLock:
        with self._table_guard:
            lock = self._locks.get(granule)
            if lock is None:
                lock = ReadWriteLock()
                self._locks[granule] = lock
            return lock

    def order_key(self, granule: Hashable) -> OrderKey:
        """The granule's position in the global acquisition order.

        **Total-order contract.**  Deadlock freedom under two-phase
        locking needs every thread to acquire granules in one
        process-wide total order.  Sorting by ``repr`` alone (the
        original scheme) is *not* total: two distinct granules can
        share a repr (or embed ``id()`` hex that compares differently
        from their identity), so two threads could order the same pair
        oppositely.  The key is a triple:

        ``(type-name, repr, registration index)``

        * *type-name* groups granules of one type together and keeps
          heterogeneous granule sets comparable (tuples of strings
          always compare; raw granules of different types may not);
        * *repr* keeps the common case — distinct, meaningful reprs —
          deterministic across runs and independent of first-use order;
        * the *registration index*, assigned once per granule under the
          table guard on first use and cached for the granule's
          lifetime, breaks every remaining tie.  Within one process the
          index never changes, so the induced order is total and
          stable even for adversarial types whose ``repr`` collides or
          is non-deterministic call-to-call (the repr is captured once,
          at registration).
        """
        with self._table_guard:
            key = self._order.get(granule)
            if key is None:
                key = (type(granule).__name__, repr(granule), len(self._order))
                self._order[granule] = key
            return key

    @contextmanager
    def locked(
        self, requests: Iterable[Tuple[Hashable, str]]
    ) -> Iterator[None]:
        """Hold all requested granule locks for the duration of the block.

        Duplicate granules are coalesced (write wins over read).
        """
        merged: Dict[Hashable, str] = {}
        for granule, mode in requests:
            if mode not in (READ, WRITE):
                raise ValueError(f"unknown lock mode {mode!r}")
            if merged.get(granule) != WRITE:
                merged[granule] = mode
        ordered: Sequence[Tuple[Hashable, str]] = sorted(
            merged.items(), key=lambda item: self.order_key(item[0])
        )
        acquired: List[Tuple[ReadWriteLock, str]] = []
        try:
            for granule, mode in ordered:
                lock = self.lock_for(granule)
                if mode == WRITE:
                    lock.acquire_write()
                else:
                    lock.acquire_read()
                acquired.append((lock, mode))
            yield
        finally:
            for lock, mode in reversed(acquired):
                if mode == WRITE:
                    lock.release_write()
                else:
                    lock.release_read()

    def num_granules(self) -> int:
        with self._table_guard:
            return len(self._locks)
