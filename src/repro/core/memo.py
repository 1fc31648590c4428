"""The Update Memo (Section 3.1).

The UM is the RUM-tree's in-memory auxiliary structure distinguishing the
*latest* entry of an object from its *obsolete* entries.  It is a hash table
on the object identifier whose entries have the form ``(oid, S_latest,
N_old)``:

* ``S_latest`` — the stamp of the latest entry of ``oid``;
* ``N_old`` — the **maximum** number of obsolete entries for ``oid`` still
  in the tree ("maximum" because operations on non-existing objects create
  *phantom* entries whose count never drains; Section 3.3.2).

Objects guaranteed to have no obsolete entries own no UM entry at all —
that is what keeps the UM small (its size is bounded by the number of leaf
nodes over the inspection ratio, Section 4.1, not by the number of objects).

The memo is bucketised so that the concurrency experiment (Section 3.5) can
lock individual hash buckets.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.concurrency.primitives import LockLike, make_lock
from repro.storage.wal import UM_ENTRY_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrency.racecheck import RaceChecker
    from repro.obs import Observability

#: CheckStatus results (Figure 6).
LATEST = "LATEST"
OBSOLETE = "OBSOLETE"


class UMEntry:
    """One Update-Memo entry ``(oid, S_latest, N_old)``."""

    __slots__ = ("oid", "s_latest", "n_old")

    def __init__(self, oid: int, s_latest: int, n_old: int):
        self.oid = oid
        self.s_latest = s_latest
        self.n_old = n_old

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.oid, self.s_latest, self.n_old)

    def __repr__(self) -> str:
        return f"UMEntry(oid={self.oid}, S_latest={self.s_latest}, N_old={self.n_old})"


class UpdateMemo:
    """Hash table on oid holding ``(oid, S_latest, N_old)`` entries."""

    def __init__(self, n_buckets: int = 64):
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.n_buckets = n_buckets
        # Callers serialise per bucket: hold the bucket's lock (or an
        # equivalent exclusive section, e.g. the tree's structure
        # latch) around every probe and mutation of a bucket.
        self._buckets: List[Dict[int, UMEntry]] = [  # guarded-by: bucket_lock
            {} for _ in range(n_buckets)
        ]
        #: Per-bucket locks for the concurrency experiment (Section 3.5).
        self.bucket_locks: List[LockLike] = [
            make_lock() for _ in range(n_buckets)
        ]
        self._rc: Optional["RaceChecker"] = None
        #: Lifetime probe tallies, plain ints kept *unconditionally*:
        #: memo probes run up to once per leaf entry scanned, so even a
        #: ``None``-checked counter increment is measurable against the
        #: metrics-level overhead budget.  One bare integer add costs
        #: the same with or without observability; ``attach_obs``
        #: mirrors the tallies into lazy gauges.
        self.lookup_count = 0
        self.hit_count = 0
        self._obs_purge_runs = None
        self._obs_purged = None
        self._obs_inserts = None
        self._obs_obsoleted = None
        self._obs_cleaned = None

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Bind telemetry.

        Memo *size* (entries, bytes, aggregate ``N_old``) is exposed as
        callback gauges sampled at snapshot time; phantom purges — which
        run once per cleaning cycle — get counters.  The per-update
        mutation operations (``record_update``/``note_cleaned``) are
        counted too (the gap PR 2 left open): at ``metrics`` level each
        costs one ``None`` check plus an integer add, and at ``off`` the
        bound instruments are ``None`` so the disabled path keeps the
        single-check no-op guarantee that ``bench_micro``'s A/B run
        measures.  Lookups and hits fire once per *scanned leaf entry*,
        far too hot even for that pattern — they ride the unconditional
        plain-int tallies ``lookup_count``/``hit_count`` and surface as
        the lazy gauges ``memo.lookups``/``memo.hits`` (values count
        from memo construction, not from attach).
        """
        if obs is None or not obs.metrics_on:
            self._obs_purge_runs = self._obs_purged = None
            self._obs_inserts = self._obs_obsoleted = self._obs_cleaned = None
            return
        reg = obs.registry
        self._obs_purge_runs = reg.counter("memo.purge_runs")
        self._obs_purged = reg.counter("memo.purged_entries")
        self._obs_inserts = reg.counter("memo.inserts")
        self._obs_obsoleted = reg.counter("memo.obsoleted")
        self._obs_cleaned = reg.counter("memo.cleaned")
        reg.gauge("memo.lookups").set_function(
            lambda: float(self.lookup_count)
        )
        reg.gauge("memo.hits").set_function(lambda: float(self.hit_count))
        reg.gauge("memo.entries").set_function(self.__len__)
        reg.gauge("memo.bytes").set_function(self.size_bytes)
        reg.gauge("memo.total_n_old").set_function(self.total_n_old)

    def attach_racecheck(self, checker: Optional["RaceChecker"]) -> None:
        """Bind (or unbind) the Eraser race detector.

        Probe granularity is the hash bucket — the unit the paper locks
        (Section 3.5).  Whole-table operations (snapshot, restore,
        purge, size metrics) touch every bucket, so a lockless snapshot
        concurrent with a locked per-bucket write is still a race on
        that bucket's field.
        """
        self._rc = checker

    def _rc_bucket(self, oid: int, write: bool) -> None:
        checker = self._rc
        if checker is not None:
            checker.access(self, f"bucket[{oid % self.n_buckets}]", write)

    def _rc_all(self, write: bool) -> None:
        checker = self._rc
        if checker is not None:
            for index in range(self.n_buckets):
                checker.access(self, f"bucket[{index}]", write)

    def _bucket(self, oid: int) -> Dict[int, UMEntry]:  # holds: bucket_lock
        return self._buckets[oid % self.n_buckets]

    def bucket_lock(self, oid: int) -> LockLike:
        return self.bucket_locks[oid % self.n_buckets]

    # ------------------------------------------------------------------
    # The paper's memo operations
    # ------------------------------------------------------------------

    def record_update(self, oid: int, stamp: int) -> None:
        """Step 5 of MemoBasedInsert (Figure 4) — also used verbatim by
        MemoBasedDelete (Figure 5).

        If no entry exists a new ``(oid, stamp, 1)`` entry is inserted;
        otherwise ``S_latest`` becomes ``stamp`` and ``N_old`` grows by one
        (the former latest entry just became obsolete).
        """
        self._rc_bucket(oid, True)
        bucket = self._bucket(oid)
        entry = bucket.get(oid)
        if entry is None:
            bucket[oid] = UMEntry(oid, stamp, 1)
            if self._obs_inserts is not None:
                self._obs_inserts.inc()
        else:
            entry.s_latest = stamp
            entry.n_old += 1
            if self._obs_obsoleted is not None:
                self._obs_obsoleted.inc()

    def check_status(self, oid: int, stamp: int) -> str:
        """CheckStatus (Figure 6): classify a leaf entry as LATEST or
        OBSOLETE by comparing its stamp against ``S_latest``."""
        self._rc_bucket(oid, False)
        entry = self._bucket(oid).get(oid)
        self.lookup_count += 1
        if entry is None:
            return LATEST
        self.hit_count += 1
        return LATEST if stamp == entry.s_latest else OBSOLETE

    def is_obsolete(self, oid: int, stamp: int) -> bool:
        """Convenience predicate used by query filtering and the cleaner."""
        self._rc_bucket(oid, False)
        entry = self._bucket(oid).get(oid)
        self.lookup_count += 1
        if entry is None:
            return False
        self.hit_count += 1
        return stamp != entry.s_latest

    def note_cleaned(self, oid: int) -> None:
        """An obsolete entry of ``oid`` was physically removed: decrement
        ``N_old`` and drop the memo entry when it reaches zero (Figure 8,
        step 1b)."""
        self._rc_bucket(oid, True)
        bucket = self._bucket(oid)
        entry = bucket.get(oid)
        if entry is None:
            raise KeyError(
                f"cleaned an obsolete entry for oid {oid} with no UM entry"
            )
        # Count only cleans that actually drained an N_old — a KeyError
        # raised above means nothing was cleaned, so `memo.cleaned` must
        # not move (it reconciles against the cleaner's removal count).
        if self._obs_cleaned is not None:
            self._obs_cleaned.inc()
        entry.n_old -= 1
        if entry.n_old <= 0:
            del bucket[oid]

    # holds: bucket_lock
    def sweep_obsolete(
        self, oids: Sequence[int], stamps: Sequence[int], budget: int
    ) -> List[int]:
        """Clean one leaf (Figure 8, step 1) given its id columns.

        Probes in slot order and returns the slots of the obsolete
        entries, each already accounted as by :meth:`note_cleaned`;
        probing stops with the ``budget``-th removal.  State and tallies
        end up exactly as after one :meth:`latest_stamp` per probed entry
        and one :meth:`note_cleaned` per removal.
        """
        if budget <= 0:
            return []
        buckets = self._buckets
        n_buckets = self.n_buckets
        cleaned = self._obs_cleaned
        slots: List[int] = []
        hits = 0
        slot = -1
        for slot, oid in enumerate(oids):
            bucket = buckets[oid % n_buckets]
            entry = bucket.get(oid)
            if entry is None:
                continue
            hits += 1
            if entry.s_latest != stamps[slot]:
                slots.append(slot)
                if cleaned is not None:
                    cleaned.inc()
                entry.n_old -= 1
                if entry.n_old <= 0:
                    del bucket[oid]
                if len(slots) == budget:
                    break
        self.lookup_count += slot + 1
        self.hit_count += hits
        if self._rc is not None:
            # The same per-bucket accesses the per-entry methods report.
            for oid in oids[: slot + 1]:
                self._rc_bucket(oid, False)
            for removed in slots:
                self._rc_bucket(oids[removed], True)
        return slots

    # holds: bucket_lock
    def purge_phantoms(
        self, stamp_threshold: int, exclude: Optional[Set[int]] = None
    ) -> int:
        """Phantom inspection (Section 3.3.2, Lemma 1).

        After every leaf has been visited and cleaned once since the stamp
        counter read ``stamp_threshold``, any UM entry with ``S_latest <
        stamp_threshold`` can only be a phantom; remove them all.  Returns
        the number of entries purged.

        ``exclude`` names oids whose obsolete entries are known to have
        been relocated by node splits during the inspection cycle — their
        entries may genuinely still be in the tree, so the purge skips
        them (the cleaner shields them for one extra cycle).
        """
        self._rc_all(True)
        purged = 0
        for bucket in self._buckets:
            victims = [
                oid
                for oid, entry in bucket.items()
                if entry.s_latest < stamp_threshold
                and (exclude is None or oid not in exclude)
            ]
            for oid in victims:
                del bucket[oid]
            purged += len(victims)
        if self._obs_purge_runs is not None:
            self._obs_purge_runs.inc()
            self._obs_purged.inc(purged)
        return purged

    # ------------------------------------------------------------------
    # Lookup / snapshot / restore
    # ------------------------------------------------------------------

    def get(self, oid: int) -> Optional[UMEntry]:
        self._rc_bucket(oid, False)
        return self._bucket(oid).get(oid)

    def snapshot(self) -> List[Tuple[int, int, int]]:  # holds: bucket_lock
        """A stable copy of all entries (checkpointing, Section 3.4)."""
        self._rc_all(False)
        return [
            entry.as_tuple()
            for bucket in self._buckets
            for entry in bucket.values()
        ]

    # holds: bucket_lock
    def restore(self, entries: Iterator[Tuple[int, int, int]]) -> None:
        """Replace the whole memo content (crash recovery).

        Entries with ``n_old <= 0`` are dropped: a non-positive count can
        never be drained by ``note_cleaned`` (which deletes at zero) and
        ``purge_phantoms`` will not touch the entry while its ``S_latest``
        is recent, so restoring one would leak it forever.  A memo entry
        exists precisely to count obsolete entries — "no obsolete entries"
        is represented by *absence* (Section 3.1), never by a zero count.
        """
        self._rc_all(True)
        for bucket in self._buckets:
            bucket.clear()
        for oid, s_latest, n_old in entries:
            if n_old <= 0:
                continue
            self._bucket(oid)[oid] = UMEntry(oid, s_latest, n_old)

    # ------------------------------------------------------------------
    # Spill-tier hooks (overridden by SpillingUpdateMemo)
    # ------------------------------------------------------------------

    def latest_stamp(self, oid: int) -> Optional[int]:
        """``S_latest`` for ``oid``, or ``None`` when no entry exists.

        Semantically ``get(oid).s_latest`` with probe-tally accounting,
        but overridable by the disk-tiered memo as a *first-hit* probe:
        the newest record for ``oid`` already carries the latest stamp,
        so the probe can stop without aggregating ``N_old`` across runs.
        Hot callers (search filtering, the cleaner's CheckStatus) should
        prefer this over :meth:`get`.
        """
        self._rc_bucket(oid, False)
        entry = self._bucket(oid).get(oid)
        self.lookup_count += 1
        if entry is None:
            return None
        self.hit_count += 1
        return entry.s_latest

    def defer_spills(self) -> ContextManager[None]:
        """Context manager suspending budget-triggered spills.

        A no-op for the pure in-RAM memo.  The disk-tiered memo overrides
        it so a batch apply (PR 5) stages all its ``record_update`` calls
        in RAM and flushes at most one run at scope exit instead of
        spilling mid-batch.
        """
        return nullcontext()

    # ------------------------------------------------------------------
    # Size metrics (Figures 12d/13d/14d)
    # ------------------------------------------------------------------

    def __len__(self) -> int:  # holds: bucket_lock
        return sum(len(bucket) for bucket in self._buckets)

    def size_bytes(self) -> int:
        """Memo size using the paper's per-entry footprint ``E``."""
        return len(self) * UM_ENTRY_BYTES

    def total_n_old(self) -> int:  # holds: bucket_lock
        """Sum of ``N_old`` — an upper bound on obsolete entries in the tree."""
        return sum(
            entry.n_old
            for bucket in self._buckets
            for entry in bucket.values()
        )

    def __iter__(self) -> Iterator[UMEntry]:  # holds: bucket_lock
        for bucket in self._buckets:
            yield from bucket.values()
