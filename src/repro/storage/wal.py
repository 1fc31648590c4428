"""Write-ahead log for the RUM-tree's recovery options.

Section 3.4 of the paper describes three recovery options for the in-memory
Update Memo:

* **Option I** — no log at all;
* **Option II** — the UM (plus the stamp counter) is written to the log at
  periodic checkpoints;
* **Option III** — Option II plus a log record for *every* memo change,
  force-flushed so it is durable before the update completes.

The log is an append-only sequence of records.  Physical cost is accounted
in *pages*: records accumulate in the current log page and a ``log_write``
is charged whenever a page fills up, or immediately when a record is
force-flushed (Option III pays exactly the "+1" I/O per update of the cost
model in Section 4.2.3).  Reading the log back during recovery charges
``log_reads`` proportional to the pages scanned.

Durability model: a record is durable once every one of its bytes has
reached a flushed page — either because appends filled the page, or
because a ``force=True`` append flushed the open page.  The log tracks
that durable prefix, and :meth:`crash_truncate` discards everything
behind it, which is exactly what a crash does to a real log device: the
fault-injection harness arms a crash between "record appended in memory"
and "force completed" and the record must be gone after reopen.

**Group commit** is the caller's: a batch appends its N memo changes
unforced (``force=False``) and then calls :meth:`force` once, so it costs
one forced ``log_write`` instead of N (plus the page-fill writes either
way).  An unforced record is durable only once its bytes are behind a
flushed page boundary — a crash before the closing force loses the
in-memory tail, and :meth:`crash_truncate` reflects that.  A batch that
raises never reaches its force, so a :class:`SimulatedCrash` raised
mid-batch cannot retroactively make the batch durable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.obs.metrics import UNPUBLISHED, republish

from .iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from .faults import FaultInjector

#: Simulated on-disk size of one Update-Memo entry (the paper's ``E``):
#: oid (8) + S_latest (8) + N_old (4), padded.
UM_ENTRY_BYTES = 24

#: Simulated size of one memo-change log record (Option III).
MEMO_CHANGE_BYTES = 24

#: Simulated size of a stamp-lease record (batched ingestion): one stamp
#: value plus framing.
STAMP_LEASE_BYTES = 16

#: Simulated size of a checkpoint header (stamp counter + metadata).
CHECKPOINT_HEADER_BYTES = 32


@dataclass(frozen=True)
class LogRecord:
    """One durable log record.

    ``kind`` is ``"checkpoint"`` or ``"memo"``; ``payload`` carries the
    recovery data (a UM snapshot for checkpoints, an ``(oid, stamp)`` pair
    for memo changes); ``nbytes`` is the simulated on-disk size used for
    page accounting.
    """

    lsn: int
    kind: str
    payload: Any
    nbytes: int


class WriteAheadLog:
    """Append-only log with page-granular I/O accounting."""

    def __init__(
        self,
        page_size: int,
        stats: IOStats,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.stats = stats
        self.faults = faults
        self._records: List[LogRecord] = []
        self._current_fill = 0
        self._next_lsn = 0
        #: Records known to be on stable storage (prefix length); the
        #: suffix beyond it dies with the process — see crash_truncate().
        self._durable_count = 0
        #: Forces done and log pages written (appends are ``_next_lsn``).
        #: The page tally is the WAL's own: ``stats`` charges the same
        #: writes to ``log_writes``, which ``IOStats.reset()`` rewinds.
        self.force_count = 0
        self.page_write_count = 0
        self._obs: Optional["Observability"] = None
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish append/force counts and page writes as counters, the
        log's size as gauges."""
        self._obs = obs
        self._obs_published = republish(self._obs_published, obs, {
            "wal.appends": lambda: self._next_lsn,
            "wal.forced_flushes": lambda: self.force_count,
            "wal.page_writes": lambda: self.page_write_count,
        }, {"wal.records": self.__len__, "wal.bytes": self.total_bytes})

    # -- writing -------------------------------------------------------------

    def append(self, kind: str, payload: Any, nbytes: int,
               force: bool = False) -> LogRecord:
        """Append one record, charging page writes as pages fill.

        With ``force=True`` the partially filled current page is written
        immediately (one ``log_write``), modelling a forced flush.
        """
        if nbytes <= 0:
            raise ValueError("record size must be positive")
        faults = self.faults
        if faults is not None:
            # Crash window: the record never enters the log at all.
            faults.fire(
                "wal.checkpoint" if kind == "checkpoint" else "wal.append"
            )
        record = LogRecord(self._next_lsn, kind, payload, nbytes)
        self._next_lsn += 1
        self._records.append(record)

        remaining = nbytes
        pages_written = False
        while self._current_fill + remaining >= self.page_size:
            # The current page fills up (possibly several times for a large
            # record such as a UM checkpoint) -> one write per full page.
            remaining -= self.page_size - self._current_fill
            self._current_fill = 0
            pages_written = True
            self.stats.log_writes += 1
            self.page_write_count += 1
        self._current_fill += remaining
        if pages_written:
            # Everything behind the flushed page boundary is durable; the
            # record itself only if it ended exactly on the boundary.
            self._durable_count = (
                len(self._records)
                if self._current_fill == 0
                else len(self._records) - 1
            )

        if force:
            self.force()
        return record

    def force(self) -> None:
        """Flush the open log page, making every appended record durable.

        One ``log_write`` when the current page is partially filled (it
        stays open for further appends; forcing again later costs another
        write, as in a real log device).  A force whose last record
        exactly filled the page was already flushed by the page-boundary
        write — no extra I/O, but it still counts as a forced flush (the
        caller demanded durability).
        """
        if self.faults is not None:
            # Crash window: records appended in memory, force not yet
            # durable (unless a page boundary already flushed them).
            self.faults.fire("wal.force")
        if self._current_fill > 0:
            self.stats.log_writes += 1
            self.page_write_count += 1
        self.force_count += 1
        self._durable_count = len(self._records)

    def append_memo_change(self, oid: int, stamp: int,
                           force: bool = True) -> LogRecord:
        """Option III: log a single memo change (force-flushed by default;
        a write of two or more stamps appends unforced and forces once at
        its end)."""
        return self.append(
            "memo", (oid, stamp), MEMO_CHANGE_BYTES, force=force
        )

    def append_stamp_lease(self, stamp_hi: int) -> LogRecord:
        """Reserve the stamp range below ``stamp_hi`` ahead of a batch.

        A batch inserts tree entries *before* its memo records are
        forced; the tree is durable on its own, so a crash can leave
        entries stamped beyond every durable memo record.  Logging the
        batch's stamp ceiling first — flushed immediately — lets Option
        III recovery restore a stamp counter that dominates those
        orphaned entries without scanning the tree.  Costs the batch one extra forced log
        write (so two per batch, versus one per *update* unbatched).
        """
        record = self.append("lease", stamp_hi, STAMP_LEASE_BYTES)
        self.force()
        return record

    def append_checkpoint(self, memo_snapshot: List[Tuple[int, int, int]],
                          stamp_counter: int) -> LogRecord:
        """Option II/III: log a full UM snapshot plus the stamp counter."""
        nbytes = CHECKPOINT_HEADER_BYTES + UM_ENTRY_BYTES * len(memo_snapshot)
        payload = (stamp_counter, list(memo_snapshot))
        record = self.append("checkpoint", payload, nbytes, force=True)
        if self._obs is not None:
            self._obs.event(
                "wal.checkpoint",
                lsn=record.lsn,
                entries=len(memo_snapshot),
                stamp=stamp_counter,
                nbytes=nbytes,
            )
        return record

    # -- reading (recovery) -----------------------------------------------------

    def last_checkpoint(self) -> Optional[LogRecord]:
        """The most recent checkpoint record, if any (no I/O charged: the
        log tail location is assumed to be known from the log header)."""
        for record in reversed(self._records):
            if record.kind == "checkpoint":
                return record
        return None

    def checkpoint_count(self) -> int:
        """Number of checkpoint records currently in the log (no I/O
        charged — bookkeeping for the crash-simulation harness, which
        cross-checks it against the checkpoints the workload committed)."""
        return sum(1 for r in self._records if r.kind == "checkpoint")

    def read_from(self, lsn: int) -> List[LogRecord]:
        """Return all records with ``record.lsn >= lsn``; charges
        ``log_reads`` for the pages occupied by the returned records."""
        selected = [r for r in self._records if r.lsn >= lsn]
        total = sum(r.nbytes for r in selected)
        self.stats.log_reads += -(-total // self.page_size) if total else 0
        return selected

    def read_record(self, record: LogRecord) -> LogRecord:
        """Charge ``log_reads`` for exactly one record's pages.

        Option II recovery reads only the checkpoint record — billing it
        via :meth:`read_from` would also charge the whole post-checkpoint
        log tail it never looks at.
        """
        self.stats.log_reads += -(-record.nbytes // self.page_size)
        return record

    # -- crash model ---------------------------------------------------------

    def crash_truncate(self) -> int:
        """Discard every record that never became durable.

        Models what a crash leaves on the log device: records whose bytes
        were all inside flushed pages (or covered by a completed force)
        survive; the in-memory suffix dies with the process.  Returns the
        number of records lost.
        """
        lost = len(self._records) - self._durable_count
        if lost:
            del self._records[self._durable_count:]
        total = sum(r.nbytes for r in self._records)
        self._current_fill = total % self.page_size
        return lost

    # -- introspection -------------------------------------------------------------

    def durable_records(self) -> int:
        """Length of the durable record prefix (see crash_truncate)."""
        return self._durable_count

    def __len__(self) -> int:
        return len(self._records)

    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self._records)
