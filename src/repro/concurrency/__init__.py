"""Concurrency control substrate (Section 3.5) and the Figure-16 harness.

The harness (the :class:`GranuleLockedTree` lock policy, the
:class:`LoadDriver` and its :class:`LoadResult`) is imported lazily:
``throughput`` pulls in the whole tree stack (``repro.core.rum``), while
the tree stack itself needs this package's locks (``RTreeBase`` owns a
structure latch) — an eager import here would be circular.
"""

from typing import Any

from . import racecheck
from .locks import READ, WRITE, GranularLockManager, ReadWriteLock
from .primitives import LockLike, make_lock

__all__ = [
    "ReadWriteLock",
    "GranularLockManager",
    "READ",
    "WRITE",
    "LockLike",
    "make_lock",
    "racecheck",
    "GranuleLockedTree",
    "LoadDriver",
    "LoadResult",
]

_LAZY = ("GranuleLockedTree", "LoadDriver", "LoadResult")


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from . import throughput

        return getattr(throughput, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
