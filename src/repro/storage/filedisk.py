"""File-backed page store: the same interface as :class:`DiskManager`,
persisted to a real file.

The in-memory :class:`~repro.storage.disk.DiskManager` is what the
experiments use (its counters are the metric); this variant exists so a
library user can actually keep an index across processes.  Pages live in a
flat ``pages.bin`` file at ``page_id * page_size`` offsets; the allocation
state (next id, free list) is saved to ``disk.json`` by :meth:`sync` and
restored by :meth:`open`.

The I/O counters have the same meaning as the in-memory manager's, so a
tree running over a file behaves identically in all measurements.

Crash consistency: :meth:`sync` first flushes and fsyncs the page file,
then replaces ``disk.json`` atomically (write to a temp file, fsync it,
``os.replace``), so a crash at *any* point of a sync leaves either the
previous complete metadata or the new complete metadata — never a torn
or stale-beyond-fsync ``disk.json``.  The optional
:class:`~repro.storage.faults.FaultInjector` hooks (``disk.sync.data``,
``disk.meta.tmp``) let the crash-simulation suite kill the process model
between exactly those steps and verify the guarantee.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, BinaryIO, Iterator, List, Optional, Set, Union

from repro.obs.metrics import UNPUBLISHED, republish

from .disk import PageNotAllocatedError, zero_page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from .faults import FaultInjector

PAGES_FILE = "pages.bin"
META_FILE = "disk.json"
META_TMP_FILE = "disk.json.tmp"


class FileDiskManager:
    """Paged storage backed by a directory on the real filesystem."""

    def __init__(
        self,
        page_size: int,
        directory: Union[str, "os.PathLike[str]"],
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.faults = faults
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._path = self.directory / PAGES_FILE
        mode = "r+b" if self._path.exists() else "w+b"
        self._file: BinaryIO = open(self._path, mode)
        self._allocated: Set[int] = set()
        self._free: List[int] = []
        self._next_id = 0
        self.reads = 0
        self.writes = 0
        self.syncs = 0
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the page tallies under the in-memory manager's names,
        plus ``disk.syncs`` for durability points."""
        self._obs_published = republish(self._obs_published, obs, {
            "disk.page_reads": lambda: self.reads,
            "disk.page_writes": lambda: self.writes,
            "disk.syncs": lambda: self.syncs,
        }, {"disk.pages": self.num_pages, "disk.bytes": self.total_bytes})

    # -- persistence of the allocation state --------------------------------

    @classmethod
    def open(
        cls,
        directory: Union[str, "os.PathLike[str]"],
        faults: Optional["FaultInjector"] = None,
    ) -> "FileDiskManager":
        """Re-open a directory previously written by :meth:`sync`."""
        root = pathlib.Path(directory)
        meta = json.loads((root / META_FILE).read_text())
        # A leftover temp file is a sync that crashed before going live;
        # its contents were never the authoritative state.
        tmp_path = root / META_TMP_FILE
        if tmp_path.exists():
            tmp_path.unlink()
        disk = cls(meta["page_size"], root, faults=faults)
        disk._allocated = set(meta["allocated"])
        disk._free = list(meta["free"])
        disk._next_id = meta["next_id"]
        return disk

    def sync(self) -> None:
        """Flush the page file and persist the allocation state.

        The metadata write is crash-safe: the new ``disk.json`` is
        written to a temp file, fsynced, and moved into place with
        ``os.replace`` (atomic on POSIX and Windows), so a crash during
        a sync can never leave torn or partially written metadata — a
        reopen sees either the previous state or the new one, complete.
        """
        self.syncs += 1
        self._file.flush()
        os.fsync(self._file.fileno())
        if self.faults is not None:
            # Crash window: pages durable, metadata not yet touched.
            self.faults.fire("disk.sync.data")
        payload = json.dumps(
            {
                "page_size": self.page_size,
                "allocated": sorted(self._allocated),
                "free": self._free,
                "next_id": self._next_id,
            }
        )
        tmp_path = self.directory / META_TMP_FILE
        with open(tmp_path, "w") as tmp:
            tmp.write(payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        if self.faults is not None:
            # Crash window: new metadata fully written but not yet live;
            # disk.json must still hold the previous complete state.
            self.faults.fire("disk.meta.tmp")
        os.replace(tmp_path, self.directory / META_FILE)

    def close(self) -> None:
        self.sync()
        self._file.close()

    # -- DiskManager interface -----------------------------------------------

    def allocate(self) -> int:
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._allocated.add(page_id)
        self._write_raw(page_id, zero_page(self.page_size))
        return page_id

    def free(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise PageNotAllocatedError(page_id)
        self._allocated.discard(page_id)
        self._free.append(page_id)

    def _read_raw(self, page_id: int) -> bytes:
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) < self.page_size:  # sparse tail
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def _write_raw(self, page_id: int, data: bytes) -> None:
        self._file.seek(page_id * self.page_size)
        self._file.write(data)

    def read_page(self, page_id: int) -> bytes:
        if page_id not in self._allocated:
            raise PageNotAllocatedError(page_id)
        self.reads += 1
        return self._read_raw(page_id)

    def peek(self, page_id: int) -> bytes:
        """Uncounted read for introspection (metrics, invariant checks)."""
        if page_id not in self._allocated:
            raise PageNotAllocatedError(page_id)
        return self._read_raw(page_id)

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id not in self._allocated:
            raise PageNotAllocatedError(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page {page_id}: write of {len(data)} bytes to a "
                f"{self.page_size}-byte page"
            )
        self.writes += 1
        self._write_raw(page_id, bytes(data))

    # -- introspection ----------------------------------------------------------

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._allocated

    def page_ids(self) -> Iterator[int]:
        return iter(sorted(self._allocated))

    def num_pages(self) -> int:
        return len(self._allocated)

    def total_bytes(self) -> int:
        return len(self._allocated) * self.page_size
