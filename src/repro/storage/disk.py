"""Simulated paged disk.

The disk stores fixed-size pages of raw bytes addressed by integer page ids.
It deliberately knows nothing about R-trees: access-type accounting (leaf
vs. internal) happens in the buffer pool, which knows what it is reading.

Besides the page store itself the disk keeps a free list so page ids are
recycled, an allocation high-water mark, and an iteration API that the
recovery code (Section 3.4, Option I/II) uses to scan "every leaf entry in
the tree" after a simulated crash.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol

from repro.obs.metrics import UNPUBLISHED, republish

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


class PageStore(Protocol):
    """The structural interface every page store exposes.

    :class:`DiskManager`, :class:`~repro.storage.filedisk.FileDiskManager`
    and :class:`~repro.storage.faults.FaultyDisk` all satisfy it, so the
    buffer pool and the fault-injection wrapper can accept any of them
    interchangeably.
    """

    @property
    def page_size(self) -> int: ...

    @property
    def reads(self) -> int: ...

    @property
    def writes(self) -> int: ...

    def allocate(self) -> int: ...

    def free(self, page_id: int) -> None: ...

    def read_page(self, page_id: int) -> bytes: ...

    def peek(self, page_id: int) -> bytes: ...

    def write_page(self, page_id: int, data: bytes) -> None: ...

    def is_allocated(self, page_id: int) -> bool: ...

    def page_ids(self) -> Iterator[int]: ...

    def num_pages(self) -> int: ...

    def total_bytes(self) -> int: ...

#: Shared all-zero page images, one per page size.  Allocation is on the
#: update hot path (every split allocates), so freshly allocated pages
#: reuse one immutable zero page instead of building a new one each time.
_ZERO_PAGES: Dict[int, bytes] = {}


def zero_page(page_size: int) -> bytes:
    """An immutable all-zero page of ``page_size`` bytes (cached)."""
    page = _ZERO_PAGES.get(page_size)
    if page is None:
        page = _ZERO_PAGES[page_size] = b"\x00" * page_size
    return page


class PageNotAllocatedError(KeyError):
    """Raised when reading or writing a page id that was never allocated."""


class DiskManager:
    """A dictionary-backed page store with fixed page size.

    Pages survive a *simulated crash* (see :meth:`crash`): crashing clears
    nothing on the disk — it is the caller's in-memory state (buffer pool,
    update memo, stamp counter) that is discarded, exactly the failure model
    of Section 3.4.
    """

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self._pages: Dict[int, bytes] = {}
        self._free: List[int] = []
        self._next_id = 0
        #: Page reads, writes, allocations and frees: plain ints kept
        #: whether or not obs is attached (``attach_obs`` publishes them).
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the page tallies as the ``disk.*`` counters and the
        resident page count and byte footprint as gauges (``None``
        detaches)."""
        self._obs_published = republish(self._obs_published, obs, {
            "disk.page_reads": lambda: self.reads,
            "disk.page_writes": lambda: self.writes,
            "disk.allocations": lambda: self.allocations,
            "disk.frees": lambda: self.frees,
        }, {"disk.pages": self.num_pages, "disk.bytes": self.total_bytes})

    # -- allocation ----------------------------------------------------------

    def allocate(self) -> int:
        """Reserve a fresh page id (recycling freed ids first)."""
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = zero_page(self.page_size)
        self.allocations += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page; its id becomes available for reuse."""
        if page_id not in self._pages:
            raise PageNotAllocatedError(page_id)
        del self._pages[page_id]
        self._free.append(page_id)
        self.frees += 1

    # -- I/O -----------------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        """Fetch the current contents of a page."""
        try:
            data = self._pages[page_id]
        except KeyError:
            raise PageNotAllocatedError(page_id) from None
        self.reads += 1
        return data

    def peek(self, page_id: int) -> bytes:
        """Uncounted read for introspection (metrics, invariant checks)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotAllocatedError(page_id) from None

    def write_page(self, page_id: int, data: bytes) -> None:
        """Overwrite a page; ``data`` must be exactly one page long."""
        if page_id not in self._pages:
            raise PageNotAllocatedError(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page {page_id}: write of {len(data)} bytes to a "
                f"{self.page_size}-byte page"
            )
        # bytes(bytes_obj) is a no-op reference; only mutable buffers
        # (bytearray/memoryview) are actually copied here.
        self._pages[page_id] = bytes(data)
        self.writes += 1

    # -- introspection ---------------------------------------------------------

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._pages

    def page_ids(self) -> Iterator[int]:
        """All currently allocated page ids (recovery scans use this)."""
        return iter(sorted(self._pages))

    def num_pages(self) -> int:
        return len(self._pages)

    def total_bytes(self) -> int:
        """Bytes occupied on the simulated disk."""
        return len(self._pages) * self.page_size
