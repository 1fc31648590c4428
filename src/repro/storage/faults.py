"""Fault injection for the durable storage stack.

Crash-consistency claims are only testable if crashes can actually
happen, so this module provides a deterministic process-death model: a
:class:`FaultInjector` is armed at one of the registered *fault points*
(a named place in the storage code where a real process could die), and
when the running workload reaches that point the injector raises
:class:`SimulatedCrash`.  Everything the storage stack had made durable
before the crash point survives; everything after it is lost — exactly
like ``kill -9`` between two syscalls.

Three fault modes exist:

* ``crash`` — die *before* the instrumented action happens (the write /
  sync / force is lost entirely);
* ``torn`` — for page and memo-run writes: persist only a prefix of the
  new image (a page keeps the old bytes past it), then die — the classic
  torn sector-sequence write of a power failure mid-page;
* ``corrupt`` — flip bytes in the written image and *continue silently*,
  modelling bit rot / a misdirected write that no crash announces.

The page-level modes are applied by :class:`FaultyDisk`, a wrapper that
interposes on any ``DiskManager``-shaped object; the intra-operation
points (metadata sync steps, WAL forces) are fired directly by
:class:`~repro.storage.filedisk.FileDiskManager` and
:class:`~repro.storage.wal.WriteAheadLog`, which both accept an optional
injector.  Components without an injector pay nothing: the hook is a
single ``is None`` check.

The registered fault points and the modes each supports
(:data:`FAULT_POINTS`, which the crash matrix iterates):

======================  =================  ===================================
``disk.page_write``     crash torn corrupt a page write: lost, torn (a prefix
                                           of the new image over the old) or
                                           silently damaged
``disk.sync.data``      crash              after the data-file fsync, before
                                           any metadata write
``disk.meta.tmp``       crash              after the metadata temp file is
                                           written, before the atomic rename
                                           — ``disk.json`` must stay intact
``wal.append``          crash              before a log record enters the log
``wal.force``           crash              after a record is appended in
                                           memory, before the forced flush
                                           makes it durable
``wal.checkpoint``      crash              at the start of a checkpoint
                                           append (the checkpoint record
                                           never becomes durable)
``memo.run_flush``      crash torn corrupt mid memo-run write that holds a
                                           spilled table: the run file is
                                           (partially) written but not yet
                                           named by the manifest
``memo.compact``        crash torn corrupt mid merge-output write, before the
                                           manifest swaps it in (inputs must
                                           stay live).  A spill folded over
                                           the newest run is one write in
                                           both windows: either point fires
                                           there, and both count it
``memo.manifest``       crash corrupt      after the manifest temp file is
                                           written, before the atomic rename
                                           — the previous manifest must
                                           survive (a torn temp file is a
                                           crash: the reopen drops it)
======================  =================  ===================================

A fired ``torn`` or ``corrupt`` fault records what it left behind on the
injector (:attr:`FaultInjector.damage`, :attr:`FaultInjector.tear`), so
the harness can tell damage a reader may take for data from a tear that
happened to leave a whole image, and from damage a later write replaced.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union

from repro.obs.metrics import UNPUBLISHED, republish

from .disk import PageStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Fault modes: ``crash`` loses the action, ``torn`` persists a prefix of
#: a write, ``corrupt`` silently damages the written bytes.
MODES = ("crash", "torn", "corrupt")

#: Every fault point the storage stack fires, in rough workload order,
#: with the modes it supports.  The crash matrix crosses every occurrence
#: of every point with each of its modes; adding an instrumented site to
#: the stack means adding its name here so the matrix covers it.
FAULT_POINTS: Dict[str, Tuple[str, ...]] = {
    "disk.page_write": MODES,
    "disk.sync.data": ("crash",),
    "disk.meta.tmp": ("crash",),
    "wal.append": ("crash",),
    "wal.force": ("crash",),
    "wal.checkpoint": ("crash",),
    "memo.run_flush": MODES,
    "memo.compact": MODES,
    "memo.manifest": ("crash", "corrupt"),
}


#: Bytes of the new image a ``torn`` write lands (0: half of it).
TORN_BYTES = 0

#: Bytes a ``corrupt`` write flips.
CORRUPT_BYTES = 8


class SimulatedCrash(BaseException):
    """The process model dies at a fault point.

    Deliberately a ``BaseException``: crash-safety code must not be able
    to swallow it with a broad ``except Exception`` — only the harness
    (or a test) that armed the injector catches it.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


class FaultInjector:
    """Arms one fault point and fires when the workload reaches it.

    ``skip`` delays the trigger past the first ``skip`` occurrences of
    the point, so a scenario can crash the 7th page write rather than
    the 1st.  After firing once the injector disarms itself — a crashed
    process does not crash twice — which also lets the harness reuse the
    same injector for the post-crash verification phase.
    """

    def __init__(self) -> None:
        self.point: Optional[str] = None
        self.mode = "crash"
        self.skip = 0
        self.fired: Optional[str] = None
        #: What a fired ``torn`` / ``corrupt`` fault left where a later
        #: read may take it for data: the page id or file it damaged and
        #: the bytes it put there.  A torn memo file is never named, so
        #: it leaves none.
        self.damage: Optional[Tuple[Union[int, Path], bytes]] = None
        #: A torn page write whose image is whole: ``"landed"`` (the new
        #: image) or ``"lost"`` (the old one).
        self.tear: Optional[str] = None
        #: occurrences seen per point since the last ``arm`` (all points
        #: are counted, armed or not — the crash matrix discovers its
        #: scenarios from an unarmed run).
        self.hits: Dict[str, int] = {}
        #: Faults fired in the injector's life (``arm`` resets ``fired``).
        self.fired_count = 0
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish ``fired_count`` as the ``faults.fired`` counter."""
        self._obs_published = republish(self._obs_published, obs, {
            "faults.fired": lambda: self.fired_count,
        })

    def arm(
        self,
        point: str,
        mode: str = "crash",
        skip: int = 0,
    ) -> "FaultInjector":
        """Schedule a fault at the ``skip``-th next occurrence of ``point``."""
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; expected one of "
                f"{tuple(FAULT_POINTS)}"
            )
        if mode not in FAULT_POINTS[point]:
            raise ValueError(f"fault point {point!r} has no mode {mode!r}")
        if skip < 0:
            raise ValueError("skip must be non-negative")
        self.point = point
        self.mode = mode
        self.skip = skip
        self.fired = None
        self.damage = None
        self.tear = None
        self.hits = {}
        return self

    def disarm(self) -> None:
        self.point = None

    @property
    def armed(self) -> bool:
        return self.point is not None

    def fire(self, point: str) -> None:
        """Called by instrumented code when it reaches ``point``.

        Raises :class:`SimulatedCrash` when the armed countdown expires;
        otherwise returns and the action proceeds normally.  Page-level
        ``torn``/``corrupt`` modes are *not* handled here — they need the
        page image, so those sites call :meth:`trigger` and apply the
        mode themselves.
        """
        if self.trigger(point) is not None:
            raise SimulatedCrash(point)

    def trigger(self, point: str) -> Optional[str]:
        """Count one occurrence of ``point``; when the armed countdown
        expires there, mark the fault fired (and the injector disarmed:
        a process dies once) and return its mode, else ``None``."""
        self.hits[point] = self.hits.get(point, 0) + 1
        if self.point != point or self.fired is not None:
            return None
        if self.skip > 0:
            self.skip -= 1
            return None
        self.fired = point
        self.point = None
        self.fired_count += 1
        return self.mode


def torn_page(old: bytes, new: bytes, torn_bytes: int) -> bytes:
    """The image a power failure leaves mid-write: a prefix of ``new``
    followed by the remainder of ``old``."""
    if len(old) != len(new):
        raise ValueError("torn_page needs images of equal size")
    k = torn_length(len(new), torn_bytes)
    return new[:k] + old[k:]


def torn_length(size: int, torn_bytes: int) -> int:
    """Bytes of a ``size``-byte image a torn write lands: ``torn_bytes``
    (half the image at 0), and never all or none of it."""
    k = torn_bytes if torn_bytes > 0 else size // 2
    return max(1, min(k, size - 1))


def corrupt_page(data: bytes, n_bytes: int) -> bytes:
    """``data`` with ``n_bytes`` bytes bit-flipped in the middle of the
    page (a deterministic offset), modelling silent bit rot."""
    if not data:
        return data
    n = max(1, min(n_bytes, len(data)))
    start = (len(data) - n) // 2
    damaged = bytearray(data)
    for i in range(start, start + n):
        damaged[i] ^= 0xFF
    return bytes(damaged)


class FaultyDisk:
    """Fault-injecting wrapper around any ``DiskManager``-shaped store.

    Interposes only on :meth:`write_page` (where page-level faults live)
    and :meth:`sync`/:meth:`close` (delegated, so an inner
    :class:`~repro.storage.filedisk.FileDiskManager` still fires its own
    metadata fault points); everything else passes straight through, so
    a buffer pool runs over the wrapper unchanged.
    """

    def __init__(self, inner: PageStore, faults: FaultInjector) -> None:
        self.inner = inner
        self.faults = faults

    # -- interposed writes --------------------------------------------------

    def write_page(self, page_id: int, data: bytes) -> None:
        faults = self.faults
        point = "disk.page_write"
        mode = faults.trigger(point)
        if mode is None:
            self.inner.write_page(page_id, data)
            return
        if mode == "crash":  # the write is lost entirely
            raise SimulatedCrash(point)
        new = bytes(data)
        if mode == "corrupt":
            # Silent misdirected write: damaged bytes, no crash.
            image = corrupt_page(new, CORRUPT_BYTES)
            self.inner.write_page(page_id, image)
            faults.damage = (page_id, image)
            return
        old = bytes(self.inner.peek(page_id))
        image = torn_page(old, new, TORN_BYTES)
        self.inner.write_page(page_id, image)
        if image == new:
            faults.tear = "landed"
        elif image == old:
            faults.tear = "lost"
        else:
            faults.damage = (page_id, image)
        raise SimulatedCrash(point)

    # -- plain delegation ---------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.inner.page_size

    @property
    def reads(self) -> int:
        return self.inner.reads

    @property
    def writes(self) -> int:
        return self.inner.writes

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        self.faults.attach_obs(obs)
        attach = getattr(self.inner, "attach_obs", None)
        if attach is not None:
            attach(obs)

    def allocate(self) -> int:
        return self.inner.allocate()

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def read_page(self, page_id: int) -> bytes:
        return self.inner.read_page(page_id)

    def peek(self, page_id: int) -> bytes:
        return self.inner.peek(page_id)

    def is_allocated(self, page_id: int) -> bool:
        return self.inner.is_allocated(page_id)

    def page_ids(self) -> Iterator[int]:
        return self.inner.page_ids()

    def num_pages(self) -> int:
        return self.inner.num_pages()

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    def sync(self) -> None:
        sync = getattr(self.inner, "sync", None)
        if sync is not None:
            sync()

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()
