"""The RUM-tree's global stamp counter (Section 3.1).

Every leaf entry receives a stamp when it enters the tree.  Stamps are
globally unique and monotonically increasing, placing a temporal order on
all entries of one object: the entry with the largest stamp is the *latest*
entry, every other entry is *obsolete*.

The counter is volatile (it lives with the Update Memo in main memory) and
is recovered after a crash either from a checkpoint or by scanning the leaf
entries (Section 3.4).
"""

from __future__ import annotations

from repro.concurrency import racecheck
from repro.concurrency.primitives import make_lock


class StampCounter:
    """Monotonic counter handing out globally unique stamps.

    Thread-safe: the concurrency experiment (Section 3.5) treats the
    counter as a lockable resource; here the lock is built in.  Every
    access to the counter value — including the ``current`` snapshot
    and ``repr`` — takes the lock; the lock is a pure latch (held for
    an increment, never across I/O — rule REP014).
    """

    def __init__(self, start: int = 1):
        if start < 0:
            raise ValueError("stamp counter cannot start negative")
        self._value = start  # guarded-by: _lock
        self._lock = make_lock()

    def next(self) -> int:
        """Return the next stamp and advance the counter."""
        with self._lock:
            if (checker := racecheck.ACTIVE) is not None:
                checker.access(self, "_value", write=True)
            stamp = self._value
            self._value += 1
            return stamp

    @property
    def current(self) -> int:
        """The next stamp that would be handed out (not yet consumed)."""
        with self._lock:
            if (checker := racecheck.ACTIVE) is not None:
                checker.access(self, "_value", write=False)
            return self._value

    def restore(self, value: int) -> None:
        """Reset the counter after crash recovery.

        ``value`` must be at least the current value observed during the
        recovery scan, otherwise stamp uniqueness would break.
        """
        if value < 0:
            raise ValueError("cannot restore a negative stamp counter")
        with self._lock:
            if (checker := racecheck.ACTIVE) is not None:
                checker.access(self, "_value", write=True)
            self._value = value

    def __repr__(self) -> str:
        return f"StampCounter(next={self.current})"
