"""The Update Memo (Section 3.1).

The UM is the RUM-tree's auxiliary structure distinguishing the *latest*
entry of an object from its *obsolete* entries.  It is a hash table on
the object identifier whose entries have the form ``(oid, S_latest,
N_old)``:

* ``S_latest`` — the stamp of the latest entry of ``oid``;
* ``N_old`` — the **maximum** number of obsolete entries for ``oid`` still
  in the tree ("maximum" because operations on non-existing objects create
  *phantom* entries whose count never drains; Section 3.3.2).

Objects guaranteed to have no obsolete entries own no UM entry at all —
that is what keeps the UM small (its size is bounded by the number of leaf
nodes over the inspection ratio, Section 4.1, not by the number of objects).

The memo is one dict, and every memo probe and mutation runs under the
owning tree's structure latch (docs/CONCURRENCY.md).  The concurrency
experiment (Section 3.5) models per-bucket locks as granules of its own
over ``oid % N_BUCKETS``.

Below a run tier
----------------

The paper's memo is all in RAM.  :class:`UpdateMemo` is that table, and it
can stand on an optional *run tier* (:class:`repro.core.memo_lsm.RunStore`)
that takes the table over as an immutable sorted run whenever it outgrows a
byte budget.  The table is then the newest tier of an LSM, and because the
tiers below it cannot be edited, every entry — in RAM or in a run — is a
*tagged record* that aggregates, newest to oldest, to the logical entry:

* ``DELTA(stamp, d)`` — ``d >= 1`` updates happened; adds ``d`` to
  ``N_old``.  What ``record_update`` writes on a RAM miss while a run may
  hold the oid: no older tier is read, which keeps an update at the
  paper's O(1), no-I/O cost.
* ``ABSOLUTE(stamp, n)`` — ``N_old`` is exactly ``n >= 1`` as of this
  record; older records of the oid are superseded.  Written by a clean
  (which has to know the total anyway), by restore / phantom purge, and by
  ``record_update`` on a RAM miss when the tier's presence screen says no
  run holds the oid — there is nothing to add to.
* ``TOMBSTONE(stamp)`` — the entry does not exist (``n`` is 0); masks older
  records.  Written when a clean drains ``N_old`` to zero and the screen
  cannot rule out a run holding the oid; where it can, the entry is
  deleted, as without a tier.

A record is kept only where something below it needs masking or adding
to: the memo stays small by *absence* (Section 3.1) in its runs too.

:func:`fold` is that aggregation rule, written once: the memo's deep probe,
the store's scans and its compaction all apply it, and only the memo
decides which tag to write.  The newest record of an oid already carries
``S_latest``, so CheckStatus stops at the first record it finds; only a
clean, which needs the total ``N_old``, walks down to an ``ABSOLUTE`` /
``TOMBSTONE`` base.  Without a tier every entry is ``ABSOLUTE`` and a RAM
miss means "absent": the tier is consulted only where a RAM miss or a
``DELTA`` entry is not the whole answer.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import compress
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.concurrency import racecheck
from repro.obs.metrics import UNPUBLISHED, republish
from repro.storage.wal import UM_ENTRY_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

    from .memo_lsm import RunStore, _Run

#: CheckStatus results (Figure 6).
LATEST = "LATEST"
OBSOLETE = "OBSOLETE"

#: Hash buckets the paper's per-bucket locks would guard: the race
#: detector names a probe of ``oid`` ``bucket[oid % N_BUCKETS]``, and the
#: Figure-16 policy locks the same modulus as a granule.
N_BUCKETS = 64

#: Record tags (see module docstring).
DELTA = 0
ABSOLUTE = 1
TOMBSTONE = 2

#: One tagged record, laid out as a run stores it: (oid, stamp, n, tag).
Record = Tuple[int, int, int, int]


def fold(older: Optional[Record], newer: Record) -> Record:
    """``newer`` laid over ``older``, two records of one oid.

    ``ABSOLUTE`` / ``TOMBSTONE`` replace; a ``DELTA`` adds to what lies
    below it and keeps that record's footing — still a ``DELTA`` over a
    ``DELTA``, an ``ABSOLUTE`` over a base (a tombstone counts zero).
    """
    if older is None or newer[3] != DELTA:
        return newer
    return (
        newer[0],
        newer[1],
        older[2] + newer[2],
        DELTA if older[3] == DELTA else ABSOLUTE,
    )


class UMEntry:
    """One Update-Memo entry ``(oid, S_latest, N_old)`` and its record
    tag (``ABSOLUTE`` — the whole truth — unless a run tier lies below)."""

    __slots__ = ("oid", "s_latest", "n_old", "tag")

    def __init__(self, oid: int, s_latest: int, n_old: int, tag: int = ABSOLUTE):
        self.oid = oid
        self.s_latest = s_latest
        self.n_old = n_old
        self.tag = tag

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.oid, self.s_latest, self.n_old)

    def as_record(self) -> Record:
        return (self.oid, self.s_latest, self.n_old, self.tag)

    def __repr__(self) -> str:
        return f"UMEntry(oid={self.oid}, S_latest={self.s_latest}, N_old={self.n_old})"


class UpdateMemo:
    """Hash table on oid holding ``(oid, S_latest, N_old)`` entries.

    ``tier`` puts a run store below the table (see the module docstring).
    """

    def __init__(self, tier: Optional["RunStore"] = None):
        self._table: Dict[int, UMEntry] = {}  # guarded-by: latch
        self.tier = tier
        #: The tier's age-ordered run list, which the tier edits in place
        #: (empty for good without one): a RAM miss means "absent" exactly
        #: while this is empty.
        self._runs: Sequence["_Run"] = () if tier is None else tier.runs
        #: Lifetime tallies, plain ints kept whether or not obs is
        #: attached (``attach_obs`` publishes them): probes and the
        #: probes that found an entry, entries created and made
        #: obsolete, obsolete entries cleaned, phantom purges run and
        #: the entries they purged.
        self.lookup_count = 0
        self.hit_count = 0
        self.insert_count = 0
        self.obsoleted_count = 0
        self.clean_count = 0
        self.purge_run_count = 0
        self.purged_count = 0
        self._obs_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the memo's tallies as the ``memo.*`` counters and its
        size (entries, bytes, aggregate ``N_old``, RAM bytes above a
        tier) as gauges; cascades to the tier."""
        if self.tier is not None:
            self.tier.attach_obs(obs)
        sizes = {
            "memo.entries": self.__len__,
            "memo.bytes": self.size_bytes,
            "memo.total_n_old": self.total_n_old,
        }
        if self.tier is not None:
            sizes["memo.ram_bytes"] = self.ram_size_bytes
        self._obs_published = republish(self._obs_published, obs, {
            "memo.lookups": lambda: self.lookup_count,
            "memo.hits": lambda: self.hit_count,
            "memo.inserts": lambda: self.insert_count,
            "memo.obsoleted": lambda: self.obsoleted_count,
            "memo.cleaned": lambda: self.clean_count,
            "memo.purge_runs": lambda: self.purge_run_count,
            "memo.purged_entries": lambda: self.purged_count,
        }, sizes)

    def _rc_bucket(self, oid: int, write: bool) -> None:
        """Report one access of ``oid``'s hash bucket to the race detector.

        Probe granularity is the bucket, the unit the paper locks
        (Section 3.5).  Whole-table operations (snapshot, restore, purge)
        touch every bucket, so a lockless snapshot beside a locked
        per-bucket write is still a race on that bucket's location."""
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, f"bucket[{oid % N_BUCKETS}]", write)

    def _rc_all(self, write: bool) -> None:
        if (checker := racecheck.ACTIVE) is not None:
            for index in range(N_BUCKETS):
                checker.access(self, f"bucket[{index}]", write)

    # ------------------------------------------------------------------
    # The paper's memo operations
    # ------------------------------------------------------------------

    def record_update(self, oid: int, stamp: int) -> None:  # holds: latch
        """Step 5 of MemoBasedInsert (Figure 4) — also used verbatim by
        MemoBasedDelete (Figure 5).

        If no entry exists a new ``(oid, stamp, 1)`` entry is inserted;
        otherwise ``S_latest`` becomes ``stamp`` and ``N_old`` grows by one
        (the former latest entry just became obsolete).  Never reads a
        run: above a tier, a RAM miss writes a ``DELTA`` that adds to
        whatever the runs hold (so "insert vs obsoleted" is unknowable
        there at O(1), and a RAM miss is reported as an insert) — or,
        when the presence screen says no run holds the oid, the
        ``ABSOLUTE`` its clean can count down in place.
        """
        if racecheck.ACTIVE is not None:
            self._rc_bucket(oid, True)
        entry = self._table.get(oid)
        if entry is not None:
            entry.s_latest = stamp
            entry.n_old += 1
            if entry.tag == TOMBSTONE:
                entry.tag = ABSOLUTE
            self.obsoleted_count += 1
            return
        self.insert_count += 1
        tier = self.tier
        if tier is None:
            self._table[oid] = UMEntry(oid, stamp, 1)
        else:
            self._table[oid] = UMEntry(
                oid, stamp, 1, DELTA if tier.may_hold(oid) else ABSOLUTE
            )
            self._maybe_spill(tier)

    def latest_stamp(self, oid: int) -> Optional[int]:  # holds: latch
        """``S_latest`` for ``oid``, or ``None`` when no entry exists.

        A *first-hit* probe: the newest record of ``oid`` — in RAM, else
        in the newest run holding one, a Bloom-screened page read —
        already carries the latest stamp, so nothing aggregates ``N_old``.
        Hot callers (search filtering, the cleaner's CheckStatus) should
        prefer this over :meth:`get`.
        """
        if racecheck.ACTIVE is not None:
            self._rc_bucket(oid, False)
        entry = self._table.get(oid)
        self.lookup_count += 1
        if entry is None:
            if not self._runs:
                return None
            rec = self.tier.probe(oid)
            if rec is None or rec[3] == TOMBSTONE:
                return None
            self.hit_count += 1
            return rec[1]
        if entry.tag == TOMBSTONE:
            return None
        self.hit_count += 1
        return entry.s_latest

    # The two predicates probe through the class's own function, so a
    # caller timing ``latest_stamp`` on the instance does not time their
    # probes a second time.
    _latest = latest_stamp

    def check_status(self, oid: int, stamp: int) -> str:  # holds: latch
        """CheckStatus (Figure 6): classify a leaf entry as LATEST or
        OBSOLETE by comparing its stamp against ``S_latest``."""
        s_latest = self._latest(oid)
        return LATEST if s_latest is None or stamp == s_latest else OBSOLETE

    def is_obsolete(self, oid: int, stamp: int) -> bool:  # holds: latch
        """Convenience predicate used by query filtering and the cleaner."""
        s_latest = self._latest(oid)
        return s_latest is not None and stamp != s_latest

    def note_cleaned(self, oid: int) -> None:  # holds: latch
        """An obsolete entry of ``oid`` was physically removed: decrement
        ``N_old`` and drop the memo entry when it reaches zero (Figure 8,
        step 1b)."""
        if racecheck.ACTIVE is not None:
            self._rc_bucket(oid, True)
        self._clean_one(oid, self._table.get(oid))
        # Count only cleans that actually drained an N_old — the KeyError
        # of an absent entry means nothing was cleaned, so `memo.cleaned`
        # must not move (it reconciles against the cleaner's removal count).
        self.clean_count += 1

    # holds: latch
    def sweep_obsolete(
        self, oids: Sequence[int], stamps: Sequence[int], budget: int,
        settled: bool = False,
    ) -> List[int]:
        """Clean one leaf (Figure 8, step 1) given its id columns.

        Probes in slot order and returns the slots of the obsolete
        entries, each already accounted as by :meth:`note_cleaned`;
        probing stops with the ``budget``-th removal.  State and tallies
        end up exactly as after one :meth:`latest_stamp` per probed entry
        and one :meth:`note_cleaned` per removal — which above a tier may
        spill mid-sweep.

        Without a tier a miss is "absent" and skipped unprobed, so one
        C-level pass over the oid column picks the slots the table holds
        (lazily: a removal that drains an entry also screens out a later
        slot of its oid).  Above a tier every slot is probed, because a
        spill in the middle of the sweep changes what a miss means —
        unless the leaf is ``settled`` (swept whole since the run set last
        changed, docs/MEMO.md) and spills are held: then a miss is LATEST
        and is counted as a lookup that missed, as without a tier.
        """
        if budget <= 0:
            return []
        table = self._table
        runs = self._runs
        tier = self.tier
        probe: Iterable[int] = range(len(oids))
        if tier is None or (settled and tier.deferred):
            probe = compress(probe, map(table.__contains__, oids))
        slots: List[int] = []
        hits = 0
        last = len(oids) - 1
        for slot in probe:
            oid = oids[slot]
            entry = table.get(oid)
            if entry is None:
                if not runs:
                    continue
                rec = tier.probe(oid)
                if rec is None or rec[3] == TOMBSTONE:
                    continue
                s_latest = rec[1]
            elif entry.tag == TOMBSTONE:
                continue
            else:
                s_latest = entry.s_latest
            hits += 1
            if s_latest != stamps[slot]:
                # Counted once it has happened, as `note_cleaned` does:
                # `_clean_one` raises for a slot with no entry anywhere.
                self._clean_one(oid, entry)
                slots.append(slot)
                self.clean_count += 1
                if len(slots) == budget:
                    last = slot
                    break
        self.lookup_count += last + 1
        self.hit_count += hits
        if racecheck.ACTIVE is not None:
            # The same per-bucket accesses the per-entry methods report.
            for oid in oids[: last + 1]:
                self._rc_bucket(oid, False)
            for removed in slots:
                self._rc_bucket(oids[removed], True)
        return slots

    # holds: latch
    def filter_latest(
        self,
        oids: Sequence[int],
        stamps: Sequence[int],
        at: Optional[Sequence[int]] = None,
        settled: bool = False,
    ) -> List[int]:
        """CheckStatus (Figure 3b) over id columns: the positions, in
        probe order, of the entries that are LATEST — every position, or
        only those listed in ``at`` (a query's hits in a leaf).

        The read-only twin of :meth:`sweep_obsolete`: nothing is written,
        and the tallies end up exactly as after one :meth:`latest_stamp`
        per probed entry.  For a ``settled`` leaf a RAM miss is LATEST
        without a run probe (nothing here can spill).
        """
        if at is None:
            at = range(len(oids))
        table = self._table
        runs = () if settled else self._runs
        tier = self.tier
        kept: List[int] = []
        keep = kept.append
        hits = 0
        for pos in at:
            oid = oids[pos]
            entry = table.get(oid)
            if entry is None:
                # One pass: screening the whole column ahead of the Bloom
                # walks was measured and lost (docs/MEMO.md).
                rec = tier.probe(oid) if runs else None
                if rec is None or rec[3] == TOMBSTONE:
                    keep(pos)
                    continue
                s_latest = rec[1]
            elif entry.tag == TOMBSTONE:
                keep(pos)
                continue
            else:
                s_latest = entry.s_latest
            hits += 1
            if s_latest == stamps[pos]:
                keep(pos)
        self.lookup_count += len(at)
        self.hit_count += hits
        if racecheck.ACTIVE is not None:
            # The same per-bucket accesses the per-entry methods report.
            for pos in at:
                self._rc_bucket(oids[pos], False)
        return kept

    # holds: latch
    def _folded(self, oid: int, entry: Optional[UMEntry]) -> Optional[Record]:
        """The record of ``oid`` aggregated over RAM (``entry``) and, where
        RAM does not settle it, the runs — a full-depth probe."""
        if entry is not None and entry.tag != DELTA:
            return entry.as_record()
        below = self.tier.probe(oid, deep=True) if self._runs else None
        return below if entry is None else fold(below, entry.as_record())

    # holds: latch
    def _clean_one(self, oid: int, entry: Optional[UMEntry]) -> None:
        """Account one removed obsolete entry of ``oid`` against its RAM
        entry (``None`` on a miss).

        An ``ABSOLUTE`` entry counts down in place.  Anything else cannot
        say ``N_old`` alone, so the total is learnt from the tier first
        and written back as an ``ABSOLUTE`` that supersedes every older
        record of the oid.  At zero, "no obsolete entries" is *absence* —
        unless a run may still hold older records (the tier's presence
        screen cannot rule it out), which a tombstone has to mask.
        """
        tier = self.tier
        if entry is None or entry.tag != ABSOLUTE:
            rec = self._folded(oid, entry)
            if rec is None or rec[2] <= 0:
                raise KeyError(
                    f"cleaned an obsolete entry for oid {oid} with no UM entry"
                )
            if entry is None:
                entry = self._table[oid] = UMEntry(oid, rec[1], rec[2])
            else:
                entry.n_old = rec[2]
                entry.tag = ABSOLUTE
        entry.n_old -= 1
        if entry.n_old <= 0:
            if tier is not None and tier.may_hold(oid):
                entry.n_old = 0
                entry.tag = TOMBSTONE
            else:
                del self._table[oid]
        if tier is not None:
            self._maybe_spill(tier)

    # holds: latch
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

        Above a tier this is a filtered major merge: one charged scan
        pulls every run up into RAM as absolutes and restarts the tier
        empty, and the survivors spill again if they exceed the budget.
        """
        self._rc_all(True)
        tier = self.tier
        if tier is not None:
            self._load([e.as_tuple() for e in self._entries(charged=True)])
        table = self._table
        victims = [
            oid
            for oid, entry in table.items()
            if entry.s_latest < stamp_threshold
            and (exclude is None or oid not in exclude)
        ]
        for oid in victims:
            del table[oid]
        purged = len(victims)
        if tier is not None:
            self._maybe_spill(tier)
        self.purge_run_count += 1
        self.purged_count += purged
        return purged

    # ------------------------------------------------------------------
    # Lookup / snapshot / restore
    # ------------------------------------------------------------------

    def get(self, oid: int) -> Optional[UMEntry]:  # holds: latch
        """The aggregate entry of ``oid`` (a full-depth probe where RAM
        does not hold it whole), or ``None``."""
        self._rc_bucket(oid, False)
        entry = self._table.get(oid)
        if entry is not None and entry.tag == ABSOLUTE:
            return entry
        rec = self._folded(oid, entry)
        if rec is None or rec[2] <= 0:
            return None
        return UMEntry(oid, rec[1], rec[2])

    def snapshot(self) -> List[Tuple[int, int, int]]:  # holds: latch
        """A stable copy of all entries (checkpointing, Section 3.4);
        above a tier, a charged scan of every run."""
        self._rc_all(False)
        return [entry.as_tuple() for entry in self._entries(charged=True)]

    # holds: latch
    def restore(self, entries: Iterable[Tuple[int, int, int]]) -> None:
        """Replace the whole memo content (crash recovery).

        Entries with ``n_old <= 0`` are dropped: a non-positive count can
        never be drained by ``note_cleaned`` (which deletes at zero) and
        ``purge_phantoms`` will not touch the entry while its ``S_latest``
        is recent, so restoring one would leak it forever.  A memo entry
        exists precisely to count obsolete entries — "no obsolete entries"
        is represented by *absence* (Section 3.1), never by a zero count.
        """
        self._rc_all(True)
        self._load(entries)
        if self.tier is not None:
            self._maybe_spill(self.tier)

    # holds: latch
    def _load(self, entries: Iterable[Tuple[int, int, int]]) -> None:
        """Make ``entries`` the whole memo: absolutes in RAM, over a tier
        restarted empty."""
        table = self._table
        table.clear()
        if self.tier is not None:
            self.tier.reset()
        for oid, s_latest, n_old in entries:
            if n_old > 0:
                table[oid] = UMEntry(oid, s_latest, n_old)

    # holds: latch
    def _entries(self, charged: bool) -> Iterator[UMEntry]:
        """Every live entry, RAM folded over the runs below it.  Only
        operation-path callers charge the run scan: gauge callbacks
        sample sizes at snapshot time, and charging those reads would
        pollute per-op I/O deltas."""
        below = self.tier.fold_runs(self._runs, charged) if self._runs else {}
        for entry in self._table.values():
            older = below.pop(entry.oid, None)
            if older is not None and entry.tag == DELTA:
                yield UMEntry(entry.oid, entry.s_latest, entry.n_old + older[2])
            elif entry.tag != TOMBSTONE:
                yield entry
        for oid, stamp, n, _tag in below.values():
            if n > 0:
                yield UMEntry(oid, stamp, n)

    def __iter__(self) -> Iterator[UMEntry]:  # holds: latch
        return self._entries(charged=False)

    # ------------------------------------------------------------------
    # Spilling to the tier (no-ops without one)
    # ------------------------------------------------------------------

    @contextmanager
    def defer_spills(self) -> Iterator[None]:
        """Suspend budget-triggered spills for a batch apply (PR 5):
        every ``record_update`` in the scope stays in RAM, and scope
        exit spills at most once — the batch *becomes* one run write,
        folded into the newest run or flushed beside it, instead of
        shearing into many mid-batch spills."""
        tier = self.tier
        if tier is not None:
            tier.deferred += 1
        try:
            yield
        finally:
            if tier is not None:
                tier.deferred -= 1
                self._maybe_spill(tier)

    def _maybe_spill(self, tier: "RunStore") -> None:  # holds: latch
        if not tier.deferred and self.ram_size_bytes() > tier.spill_budget:
            self.flush_ram()

    def flush_ram(self) -> None:  # holds: latch
        """Spill the whole table to the tier (:meth:`RunStore.spill`:
        folded into the newest run where the level rule would merge it at
        once, else flushed as a new newest run) and empty it."""
        tier = self.tier
        if tier is None or not self._table:
            return
        tier.spill(sorted(entry.as_record() for entry in self._table.values()))
        self._table.clear()

    def close(self) -> None:
        """Release the tier's run file handles (every change of the run
        set is already durable when the call that made it returns)."""
        if self.tier is not None:
            self.tier.close()

    @property
    def runs(self) -> Tuple["_Run", ...]:
        """The runs below the table, oldest first (read-only view)."""
        return tuple(self._runs)

    @property
    def run_probe_count(self) -> int:
        """Run pages read by probes — the tier's lifetime tally."""
        return self.tier.run_probe_count

    @property
    def bloom_fp_count(self) -> int:
        """How many of those page reads were Bloom false positives."""
        return self.tier.bloom_fp_count

    # ------------------------------------------------------------------
    # Size metrics (Figures 12d/13d/14d)
    # ------------------------------------------------------------------

    def __len__(self) -> int:  # holds: latch
        if not self._runs:
            # Tombstones exist only to mask runs: with none, every RAM
            # entry is live — no merge.
            return len(self._table)
        return sum(1 for _ in self)

    def size_bytes(self) -> int:
        """Logical memo size at the paper's per-entry footprint ``E``
        (live entries, whatever tier they sit in)."""
        return len(self) * UM_ENTRY_BYTES

    def ram_size_bytes(self) -> int:  # holds: latch
        """Bytes of table held in RAM — the whole memo without a tier,
        bounded by the tier's ``spill_budget`` outside a
        :meth:`defer_spills` scope with one."""
        return len(self._table) * UM_ENTRY_BYTES

    def total_n_old(self) -> int:
        """Sum of ``N_old`` — an upper bound on obsolete entries in the tree."""
        return sum(entry.n_old for entry in self)
