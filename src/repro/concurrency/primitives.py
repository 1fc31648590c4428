"""The lock-construction factory — the only sanctioned way to build
``threading`` primitives outside this package (rule REP015).

Two reasons to funnel construction through here instead of calling
``threading.Lock()`` at the use site:

* **one choke point** — the lock-discipline linter can guarantee that
  every mutex in the tree's core was built here, so interposition
  below covers all of them;
* **race-detector interposition** — when :mod:`repro.concurrency.
  racecheck` is (or may become) active, :func:`make_lock` returns a
  :class:`~repro.concurrency.racecheck.TrackedLock` whose
  acquire/release feed the checker's held-lock sets.  When detection
  is off the factory returns the bare ``threading.Lock`` — the
  hot paths pay nothing.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Optional, Protocol

from . import racecheck


class LockLike(Protocol):
    """Structural type shared by ``threading.Lock`` and
    :class:`~repro.concurrency.racecheck.TrackedLock`."""

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool:
        ...

    def release(self) -> None:
        ...

    def __enter__(self) -> bool:
        ...

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> Optional[bool]:
        ...


def _tracking() -> bool:
    return racecheck.ACTIVE is not None or racecheck.env_enabled()


def make_lock() -> LockLike:
    """A mutex; tracked by the race checker when detection is enabled."""
    lock = threading.Lock()
    if _tracking():
        return racecheck.TrackedLock(lock)
    return lock
