"""The Update Memo's run tier: sorted runs of tagged records on disk.

The paper's Update Memo (Section 3.1) is a pure in-RAM hash, which caps
the index at memo-fits-in-memory scale.  :class:`RunStore` removes that
cap the way the same authors' successor work ("An Update-intensive
LSM-based R-tree Index", PAPERS.md) does: when the memo's table crosses
a configurable byte budget the memo hands it over as an immutable *run*
— a file of records sorted by oid — and its probes that RAM cannot
answer walk the runs from newest to oldest.  Leveled compaction (each
run more than ``LEVEL_RATIO`` times the next newer one) keeps few runs
and, the live memo being bounded, keeps folding them into the oldest,
where tombstones drop: the policy for the side that is read ("Dynamic
Indexability", Yi — PAPERS.md: this lookup/ingest dial).  A table the
level rule would merge at once is folded straight into the newest run
(:meth:`RunStore.spill`), as the LSM R-tree moves its in-memory
component into the disk component below: no run is written only to be
merged away.  One RAM-only presence screen over all runs answers "no
run holds this oid" before the walk, and page fence pointers plus a
Bloom filter on every run that stands above another keep the rest at
~O(1) page reads.  The oldest run carries no filter: it is the one run
a walk never needs to skip on its way down, so a probe that reaches it
hashes nothing and a merge into it builds nothing.

The store is a store, not a memo: what a record *means* is
:mod:`repro.core.memo`'s business (its module docstring defines the
``DELTA``/``ABSOLUTE``/``TOMBSTONE`` tags).  Where the store has to
combine records of one oid — a full-depth probe, a scan, a compaction —
it applies the memo's :func:`~repro.core.memo.fold`; it never chooses a
tag itself, except that a compaction drops a tombstone, and makes a delta
an absolute, where no older run can hold the oid: nothing is left below to
mask or add to.

On-disk format
--------------

Run file (all little-endian)::

    header   <8sQqqII  magic, record count, min oid, max oid,
                        bloom bits (m), bloom hashes (k)
    bloom    m/8 bytes  (none: a run written oldest has m = k = 0)
    records  count x <qqiB3x  (oid, stamp, n, tag) sorted by oid
    footer   <I  CRC-32 of everything above

The manifest (``memo.manifest``) is the authoritative age-ordered run
list (oldest first), JSON + CRC line, replaced atomically via the PR 3
temp-file + fsync + ``os.replace`` pattern.  A run becomes part of the
memo only when the manifest names it; crash recovery therefore reduces
to: drop a leftover manifest temp file, validate every named run
(magic, size, CRC — :class:`MemoCorruptionError` on damage), and unlink
orphan run files from interrupted flushes or compactions.  The fault
points ``memo.run_flush``, ``memo.compact`` and ``memo.manifest``
(:mod:`repro.storage.faults`) let the crash matrix kill the process
model inside each of those windows.

Run I/O is charged to ``IOStats.memo_reads``/``memo_writes`` at 4 KiB
page granularity, so the spilled memo shows up in ``counted_total`` and
the flight recorder like every other disk structure.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from repro.concurrency import racecheck
from repro.obs.metrics import UNPUBLISHED, republish
from repro.storage import faults as fault_model
from repro.storage.faults import SimulatedCrash, corrupt_page, torn_length

from .memo import ABSOLUTE, DELTA, TOMBSTONE, Record, UpdateMemo, fold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.storage.faults import FaultInjector
    from repro.storage.iostats import IOStats

MAGIC = b"RUMMEMO1"
_HEADER = struct.Struct("<8sQqqII")
_RECORD = struct.Struct("<qqiB3x")
_FOOTER = struct.Struct("<I")

#: I/O is charged at this page granularity (reads and writes).
PAGE_BYTES = 4096
_RECORDS_PER_PAGE = PAGE_BYTES // _RECORD.size

#: Bloom sizing: ~1% false-positive rate at 10 bits/key with 7 hashes.
BLOOM_BITS_PER_KEY = 10
BLOOM_K = 7

#: Presence screen: ``2**k`` bits, doubled until it has this many per record
#: of the live runs.  An oid's bit is the top ``k`` bits of its 64-bit
#: golden-ratio product (:func:`_screen_slot`: multiply-shift in plain ints,
#: exact for any oid, the same in every process), so a doubling gives every
#: slot two children: ``_SPREAD`` maps a byte to its bits doubled.
SCREEN_BITS_PER_RECORD = 16
_SCREEN_MIN_SHIFT = 64 - 9  # 2**9 bits = 2**(61 - 55) bytes
_SCREEN_MULT = 0x9E3779B97F4A7C15
_SPREAD = [
    int("".join(2 * bit for bit in format(byte, "08b")), 2).to_bytes(2, "little")
    for byte in range(256)
]

MANIFEST_FILE = "memo.manifest"
MANIFEST_TMP_FILE = "memo.manifest.tmp"
RUN_SUFFIX = ".run"

#: Spill when the RAM table exceeds this many bytes (paper footprint
#: ``E`` per entry).  1 MiB ~= 43k entries.
DEFAULT_SPILL_BUDGET = 1 << 20

#: Leveling: the newest run merges into its older neighbour while that
#: neighbour holds at most this many times its records.
LEVEL_RATIO = 4


class MemoCorruptionError(RuntimeError):
    """A memo run or manifest failed validation (CRC/magic/size)."""


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """Deterministic 64-bit finalizer (splitmix64-style) for Bloom
    hashing — no process-seeded ``hash()``, so run files are stable
    across interpreter runs (REP004 discipline)."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


def _bloom_hashes(oid: int) -> Tuple[int, int]:
    """The double-hashing pair of ``oid``: one per probe serves all runs."""
    return _mix64(oid), _mix64(oid ^ 0x9E3779B97F4A7C15) | 1


def _bloom_build(oids: List[int], m_bits: int, k: int) -> bytearray:
    bloom = bytearray(m_bits // 8)
    for oid in oids:
        h1, h2 = _bloom_hashes(oid)
        for i in range(k):
            bit = (h1 + i * h2) % m_bits
            bloom[bit >> 3] |= 1 << (bit & 7)
    return bloom


def _oid_column(records: bytes) -> memoryview:
    """The oids (first of three 8-byte words) of packed ``records``, in place."""
    return memoryview(records).cast("q")[::3]


def _admitting(runs: Iterable["_Run"], oid: int) -> Iterator["_Run"]:
    """The runs of ``runs``, in the order given, whose key range and Bloom
    filter let ``oid`` through — RAM only, no false negatives.  A run
    without a filter admits its whole key range, and ``oid`` is hashed at
    the first run that has one, so a walk that reaches none hashes
    nothing."""
    hashes = None
    for run in runs:
        if oid < run.min_oid or oid > run.max_oid:
            continue
        if run.k:
            if hashes is None:
                hashes = _bloom_hashes(oid)
            if not run.bloom_admits(*hashes):
                continue
        yield run


def _admitted(runs: List["_Run"], oid: int) -> bool:
    """Whether any of ``runs`` admits ``oid``: ``False`` means none holds
    it (no I/O)."""
    return next(_admitting(runs, oid), None) is not None


def _screen_slot(oid: int, shift: int) -> int:
    """The presence-screen bit of ``oid`` in a table of ``2**(64 - shift)``."""
    return (oid * _SCREEN_MULT & _MASK64) >> shift


class _Run:
    """One immutable sorted run: RAM-resident fence pointers and, unless
    it was written oldest, Bloom filter; disk-resident records probed one
    page at a time, in place in a read-only map of the file."""

    __slots__ = (
        "path", "count", "min_oid", "max_oid", "m_bits", "k",
        "bloom", "fences", "_records_off", "_map", "_oids",
    )

    def __init__(self, path: Path, data: bytes) -> None:
        """Describe the run whose complete image ``data`` is (or is about
        to be) the content of ``path`` — header fields, the Bloom filter
        as stored, and fence pointers rebuilt from the record bytes.
        Trusts ``data``: an image read back goes through
        :meth:`validated_image` first."""
        self.path = path
        _, self.count, self.min_oid, self.max_oid, self.m_bits, self.k = (
            _HEADER.unpack_from(data)
        )
        self._records_off = _HEADER.size + self.m_bits // 8
        self.bloom = data[_HEADER.size:self._records_off]
        self.fences = self.oids_in(data)[::_RECORDS_PER_PAGE].tolist()
        self._map: Optional[mmap.mmap] = None
        self._oids: Optional[memoryview] = None

    def oids_in(self, data: bytes) -> memoryview:
        """The oid column of this run's image ``data``."""
        return _oid_column(memoryview(data)[self._records_off:-_FOOTER.size])

    # -- construction ------------------------------------------------------

    @staticmethod
    def encode(records: List[Record], filtered: bool) -> bytes:
        """Serialise sorted records into a complete run image, with a
        Bloom filter if ``filtered`` (else ``m = k = 0`` and no filter
        bytes: the store writes the oldest run so)."""
        count = len(records)
        oids = [r[0] for r in records]
        if filtered:
            # Rounded up to a whole byte, never below 64 bits.
            m_bits = max(64, ((count * BLOOM_BITS_PER_KEY + 7) // 8) * 8)
            k = BLOOM_K
            bloom = bytes(_bloom_build(oids, m_bits, k))
        else:
            m_bits, k, bloom = 0, 0, b""
        parts = [_HEADER.pack(MAGIC, count, oids[0], oids[-1], m_bits, k), bloom]
        parts.extend(_RECORD.pack(*r) for r in records)
        payload = b"".join(parts)
        return payload + _FOOTER.pack(zlib.crc32(payload))

    @staticmethod
    def validated_image(path: Path) -> bytes:
        """The bytes of the run at ``path``, fully validated (magic,
        size, CRC).

        Raises :class:`MemoCorruptionError` on any damage — a run named
        by the manifest was fsynced before the manifest pointed at it,
        so a bad image here is real corruption, never a torn flush.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise MemoCorruptionError(
                f"memo run {path.name} named by the manifest is missing"
            ) from None
        if len(data) < _HEADER.size + _FOOTER.size:
            raise MemoCorruptionError(
                f"memo run {path.name} truncated ({len(data)} bytes)"
            )
        magic, count, _, _, m_bits, _ = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise MemoCorruptionError(
                f"memo run {path.name} has bad magic {magic!r}"
            )
        expected = _HEADER.size + m_bits // 8 + count * _RECORD.size
        if len(data) != expected + _FOOTER.size:
            raise MemoCorruptionError(
                f"memo run {path.name} size mismatch: "
                f"{len(data)} != {expected + _FOOTER.size}"
            )
        (crc,) = _FOOTER.unpack_from(data, expected)
        if zlib.crc32(data[:expected]) != crc:
            raise MemoCorruptionError(
                f"memo run {path.name} failed its CRC check"
            )
        return data

    # -- probing -----------------------------------------------------------

    def bloom_admits(self, h1: int, h2: int) -> bool:
        """The Bloom filter's answer for the oid whose ``_bloom_hashes``
        are ``h1, h2`` — RAM only; a run with ``k = 0`` has none."""
        bloom, m_bits = self.bloom, self.m_bits
        for i in range(self.k):
            bit = (h1 + i * h2) % m_bits
            if not bloom[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def _mapped(self) -> memoryview:
        """The oid column of the records, in place in the file mapped
        read-only — mapped at first use and kept until :meth:`close`."""
        if self._map is None:
            with open(self.path, "rb") as f:
                self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            end = self._records_off + self.count * _RECORD.size
            self._oids = _oid_column(memoryview(self._map)[self._records_off:end])
        return self._oids

    def probe_page(self, oid: int) -> Optional[Record]:
        """Bisect the one fence-selected page's oids in the map.

        Caller has already seen the run admit ``oid`` (:func:`_admitting`)
        and charges this as one page read; it returns ``None`` after that
        read when the admission was false: a Bloom false positive, or an
        absent oid inside the key range of a run that has no filter.
        """
        page = bisect_right(self.fences, oid) - 1
        if page < 0:
            return None
        oids = self._oids if self._map is not None else self._mapped()
        lo = page * _RECORDS_PER_PAGE
        hi = min(self.count, lo + _RECORDS_PER_PAGE)
        i = bisect_left(oids, oid, lo, hi)
        if i < hi and oids[i] == oid:
            return _RECORD.unpack_from(self._map, self._records_off + i * _RECORD.size)
        return None

    def iter_records(self) -> Iterator[Record]:
        """All records in oid order (merged scans; unvalidated), copied out
        of the map, so the iterator holds no view of it."""
        self._mapped()
        start = self._records_off
        return _RECORD.iter_unpack(self._map[start:start + self.count * _RECORD.size])

    def read_validated(self) -> Iterator[Record]:
        """All records, with the whole file re-validated first.

        Compaction uses this instead of :meth:`iter_records`: its output
        *replaces* the inputs, so silently merging a bit-rotted run
        would launder the damage into a freshly checksummed file.
        Raises :class:`MemoCorruptionError` so the rot is surfaced at
        the merge instead.
        """
        self.close()
        data = self.validated_image(self.path)
        return _RECORD.iter_unpack(
            data[self._records_off:len(data) - _FOOTER.size]
        )

    @property
    def pages(self) -> int:
        """Record pages in this run (the unit reads are charged in)."""
        return (self.count + _RECORDS_PER_PAGE - 1) // _RECORDS_PER_PAGE

    def close(self) -> None:
        """Release the map (the file is unlinked only after this)."""
        if self._map is not None:
            self._oids.release()
            self._map.close()
            self._map = self._oids = None


class RunStore:
    """The tier below an :class:`~repro.core.memo.UpdateMemo`: the runs
    its table was spilled to, their manifest, and the budget that says
    when the table must spill next.

    Not lock-striped (a spill touches every bucket of the memo above):
    callers serialise behind the owning tree's structure latch, or use
    the memo single-threaded.
    """

    def __init__(
        self,
        directory: str,
        spill_budget: int = DEFAULT_SPILL_BUDGET,
        stats: Optional["IOStats"] = None,
        faults: Optional["FaultInjector"] = None,
    ):
        if spill_budget <= 0:
            raise ValueError("spill_budget must be positive")
        self.spill_budget = spill_budget
        self.stats = stats
        self.faults = faults
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Age order, oldest first.  Edited in place only: the memo above
        #: holds this very list.
        self.runs: List[_Run] = []  # guarded-by: latch
        self._next_seq = 1
        #: While positive (a scope depth) the memo above holds its
        #: budget-triggered spills back.
        self.deferred = 0
        #: Lifetime tallies (plain ints, same discipline as the memo's
        #: ``lookup_count``): run pages read by probes, and how many of
        #: those found no record (Bloom false positives, and the oldest
        #: run's reads of absent oids the screen passed); spills and
        #: merges done.
        self.run_probe_count = 0
        self.bloom_fp_count = 0
        self.spill_count = 0
        self.compaction_count = 0
        #: The presence screen (``_screen``, ``_screen_shift``): the bit of
        #: every oid a live run holds is set — never a false negative — so
        #: a clear bit answers a probe before any Bloom filter is asked.
        #: RAM only, never written: rebuilt from the run images at open.
        self._screen_note((), fresh=True)
        self.screen_reject_count = 0
        #: ``(oid, run, record)`` of the last shallow probe that found one:
        #: where a deep probe of the same oid takes the walk up.  True of
        #: immutable runs until the run set changes, which clears it.
        self._resume: Optional[Tuple[int, _Run, Record]] = None  # guarded-by: latch
        #: Bumped at every change of the run set (:meth:`_runs_changed`):
        #: what the runs answer for an oid is fixed while it holds still,
        #: which is what a tree's settled-leaf marks are taken against.
        self.version = 0  # guarded-by: latch
        self._obs_published = UNPUBLISHED
        self._recover()

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the tier's tallies as the counters ``memo.spills``,
        ``memo.compactions``, ``memo.run_probes``, ``memo.bloom_fp`` and
        ``memo.screen_rejects``, and its size as the gauges ``memo.runs``,
        ``memo.run_records`` (over ``memo.entries``: the tier's own space
        amplification) and ``memo.tier_ram_bytes`` (``memo.ram_bytes`` is
        the memo's)."""
        self._obs_published = republish(self._obs_published, obs, {
            "memo.spills": lambda: self.spill_count,
            "memo.compactions": lambda: self.compaction_count,
            "memo.run_probes": lambda: self.run_probe_count,
            "memo.bloom_fp": lambda: self.bloom_fp_count,
            "memo.screen_rejects": lambda: self.screen_reject_count,
        }, {
            "memo.runs": lambda: float(len(self.runs)),
            "memo.run_records": self.run_records,
            "memo.tier_ram_bytes": self.resident_bytes,
        })

    # ------------------------------------------------------------------
    # I/O charging (4 KiB page granularity)
    # ------------------------------------------------------------------

    def _charge_read_pages(self, pages: int) -> None:
        if self.stats is not None:
            self.stats.memo_reads += pages

    # ------------------------------------------------------------------
    # Reading: the probe walk and the scans
    # ------------------------------------------------------------------

    def probe(self, oid: int, deep: bool = False) -> Optional[Record]:  # holds: latch
        """The record of ``oid`` in the runs, walked newest→oldest, or
        ``None``: no walk at all when the presence screen says no run
        holds ``oid``, else one charged page read per run whose key range
        and Bloom filter (the oldest run has none) let it through.

        The newest record found already carries ``S_latest``, so the
        walk stops there — unless ``deep``, which folds on down to an
        ``ABSOLUTE``/``TOMBSTONE`` base (or the oldest run) for the
        aggregate ``N_old``.  A deep probe of the oid the last shallow
        one found (a clean, after its sweep's CheckStatus) starts below
        that record: one walk, not two.
        """
        if deep and (resume := self._resume) is not None and resume[0] == oid:
            found: Optional[Record] = resume[2]
            if found[3] != DELTA:
                return found
            runs = self.runs[:self.runs.index(resume[1])]
        else:
            # may_hold, inlined: nine probes in ten end here.
            slot = (oid * _SCREEN_MULT & _MASK64) >> self._screen_shift
            if not self._screen[slot >> 3] >> (slot & 7) & 1:
                self.screen_reject_count += 1
                return None
            found = None
            runs = self.runs
        # Past the screen a probe moves a run file's position and
        # rewrites ``_resume``: one write of ``runs`` for the detector, so
        # two probes need one exclusive hold (the tree latch).
        if (checker := racecheck.ACTIVE) is not None:
            checker.access(self, "runs", write=True)
        for run in _admitting(reversed(runs), oid):
            self._charge_read_pages(1)
            self.run_probe_count += 1
            rec = run.probe_page(oid)
            if rec is None:
                self.bloom_fp_count += 1
                continue
            if not deep:
                self._resume = (oid, run, rec)
                return rec
            found = rec if found is None else fold(rec, found)
            if rec[3] != DELTA:
                break
        return found

    def may_hold(self, oid: int) -> bool:  # holds: latch
        """The presence screen's answer alone.  ``False`` is exact — no run
        holds ``oid`` — so the memo above need write nothing that only
        masks or adds to a run's record."""
        slot = _screen_slot(oid, self._screen_shift)
        return bool(self._screen[slot >> 3] >> (slot & 7) & 1)

    # holds: latch
    def fold_runs(
        self, runs: Iterable[_Run], charged: bool, validated: bool = False
    ) -> Dict[int, Record]:
        """``runs`` (age order) folded into one record per oid — the
        probe walk in the forward direction.  A record with a positive
        count is a live entry; a tombstoned oid stays in the dict at
        zero, so the memo can tell "masked" from "never seen"."""
        agg: Dict[int, Record] = {}
        for run in runs:
            if charged:
                self._charge_read_pages(run.pages)
            for rec in run.read_validated() if validated else run.iter_records():
                agg[rec[0]] = fold(agg.get(rec[0]), rec)
        return agg

    # holds: latch
    def _screen_note(
        self, oids: Iterable[int], fresh: bool = False, pending: int = 0,
    ) -> None:
        """Set the screen bits of ``oids`` — a run's, just joined to
        ``self.runs``, or the ``pending`` records a spill is about to fold
        into one — the table first doubled to ``SCREEN_BITS_PER_RECORD``
        bits per record of the live runs and the ``pending`` ones.
        ``fresh`` empties it before: ``oids`` are all there is (none after
        :meth:`reset`; the output of a compaction of every run).  Other
        compactions of runs need no call — the output holds only oids its
        inputs held — and a bit no run needs any more, or a doubling's
        twin, costs a walk, never an answer."""
        if fresh:
            self._screen = bytearray(1 << 61 - _SCREEN_MIN_SHIFT)  # guarded-by: latch
            self._screen_shift = _SCREEN_MIN_SHIFT
        want = SCREEN_BITS_PER_RECORD * (self.run_records() + pending)
        while len(self._screen) * 8 < want:
            self._screen = bytearray().join(map(_SPREAD.__getitem__, self._screen))
            self._screen_shift -= 1
        screen, shift = self._screen, self._screen_shift
        for oid in oids:
            slot = _screen_slot(oid, shift)
            screen[slot >> 3] |= 1 << (slot & 7)

    def screen_misses(self) -> List[int]:  # holds: latch
        """Self-check (uncharged scan): run oids the screen rejects — none."""
        bits = int.from_bytes(self._screen, "little")
        return [
            rec[0] for run in self.runs for rec in run.iter_records()
            if not bits >> _screen_slot(rec[0], self._screen_shift) & 1
        ]

    def idle_tombstones(self) -> List[Tuple[int, int]]:  # holds: latch
        """Self-check (uncharged scan): ``(run position, oid)`` of every
        ``TOMBSTONE`` / ``DELTA`` with no record of its oid in an older run
        — it masks or adds to nothing.  A compaction, a spill's fold
        included, leaves none in the run it writes but what an older run
        admits falsely (a Bloom false positive, or an oid inside the key
        range of an oldest run, which has no filter); a flush may carry
        some (a stale screen bit) and a merge below may strand some.  They
        cost space and page reads, never an answer."""
        below: Set[int] = set()
        idle: List[Tuple[int, int]] = []
        for position, run in enumerate(self.runs):
            records = list(run.iter_records())
            idle.extend(
                (position, rec[0]) for rec in records
                if rec[3] != ABSOLUTE and rec[0] not in below
            )
            below.update(rec[0] for rec in records)
        return idle

    def run_records(self) -> int:  # holds: latch
        """Records in the live runs — O(runs), from their headers."""
        return sum(run.count for run in self.runs)

    def resident_bytes(self) -> int:  # holds: latch
        """RAM the tier holds beside the memo's table (``ram_size_bytes``):
        the screen, and each live run's Bloom filter and 8-byte fences."""
        runs = sum(len(run.bloom) + 8 * len(run.fences) for run in self.runs)
        return len(self._screen) + runs

    # ------------------------------------------------------------------
    # Writing: flush, manifest, reset
    # ------------------------------------------------------------------

    def flush(self, records: List[Record]) -> None:  # holds: latch
        """Make sorted ``records`` the newest run; never merges (a test
        stages run sets with it).  Crash windows: ``memo.run_flush`` while
        the run image is written (an interrupted image is an orphan — the
        manifest does not name it yet), then ``memo.manifest``."""
        run = self._write_run(records, ("memo.run_flush",), filtered=bool(self.runs))
        self._write_manifest([r.path.name for r in self.runs] + [run.path.name])
        self.runs.append(run)
        self._runs_changed()
        self._screen_note(rec[0] for rec in records)
        self.spill_count += 1

    def spill(self, records: List[Record]) -> None:  # holds: latch
        """Move the memo's table — sorted ``records`` — into the tier.
        Where the level rule would merge a run of them into the newest run
        at once (:meth:`compact`'s test), fold them straight over that run
        and let the cascade go on: the bytes a flush and the merge after it
        write, less the run in between — one run write, one manifest swap.
        Else :meth:`flush` them as the newest run."""
        runs = self.runs
        if not runs or runs[-1].count > LEVEL_RATIO * len(records):
            self.flush(records)
            return
        if len(runs) > 1:  # older runs stay: the screen learns the table
            self._screen_note((rec[0] for rec in records), pending=len(records))
        self._compact(len(runs) - 1, len(runs) - 1, records)
        self.compact()
        self.spill_count += 1

    def reset(self) -> None:  # holds: latch
        """Restart from no runs.  The empty manifest is committed
        *before* the old run files are unlinked, so a crash in between
        leaves orphans (swept at the next open), never a manifest naming
        missing files."""
        old_runs = self.runs[:]
        del self.runs[:]
        self._runs_changed()
        self._screen_note((), fresh=True)
        self._write_manifest([])
        for run in old_runs:
            run.close()
            run.path.unlink(missing_ok=True)

    def _runs_changed(self) -> None:  # holds: latch
        """The run set just changed: forget the resume point, bump the
        version."""
        self._resume = None
        self.version += 1

    def _write_run(
        self, records: List[Record], points: Tuple[str, ...], filtered: bool,
    ) -> _Run:
        """Write sorted ``records`` as the next run file, inside the crash
        windows ``points``, with a Bloom filter if ``filtered`` — if the run
        will stand above another; the returned :class:`_Run` is described
        from the image that was written."""
        path = self.directory / f"run-{self._next_seq:08d}{RUN_SUFFIX}"
        self._next_seq += 1
        data = _Run.encode(records, filtered)
        self._durable_write(path, data, points)
        return _Run(path, data)

    def _write_manifest(self, names: List[str]) -> None:
        """Atomically replace the manifest (temp + fsync + replace, the
        PR 3 pattern): a crash at any point leaves either the previous
        complete manifest or the new one."""
        body = json.dumps(
            {"seq": self._next_seq, "runs": names}, sort_keys=True
        )
        content = (
            body + "\n" + format(zlib.crc32(body.encode("utf-8")), "08x") + "\n"
        ).encode("utf-8")
        self._durable_write(
            self.directory / MANIFEST_TMP_FILE, content, ("memo.manifest",),
            replaces=self.directory / MANIFEST_FILE,
        )

    def _durable_write(
        self, path: Path, data: bytes, points: Tuple[str, ...],
        replaces: Optional[Path] = None,
    ) -> None:
        """Write + fsync ``data`` at ``path`` — then, for a temp file,
        rename it over ``replaces`` — honouring the fault points, each of
        which counts this write (a spill's fold is a flush and a merge):
        ``corrupt`` writes a silently damaged image (the injector's
        ``damage``), ``torn`` persists a prefix then dies, and ``crash``
        dies before any byte of a run lands, or with a temp file complete
        but not yet live (the previous manifest must still name the
        previous runs)."""
        faults = self.faults
        mode: Optional[str] = None
        if faults is not None:
            for point in points:
                mode = faults.trigger(point) or mode
        if mode == "corrupt":
            data = corrupt_page(data, fault_model.CORRUPT_BYTES)
            faults.damage = (replaces or path, data)
        elif mode == "torn":
            data = data[:torn_length(len(data), fault_model.TORN_BYTES)]
        elif mode == "crash" and replaces is None:
            raise SimulatedCrash(faults.fired)
        with open(path, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        if mode in ("torn", "crash"):
            raise SimulatedCrash(faults.fired)
        if replaces is not None:
            os.replace(path, replaces)
        if self.stats is not None:
            self.stats.memo_writes += max(
                1, (len(data) + PAGE_BYTES - 1) // PAGE_BYTES
            )

    # ------------------------------------------------------------------
    # Leveled compaction
    # ------------------------------------------------------------------

    def compact(self) -> None:  # holds: latch
        """Merge the newest run into its older neighbour while that one
        holds at most ``LEVEL_RATIO`` times its records, so each run holds
        more than ``LEVEL_RATIO`` times the next newer one.  The memo is
        probed dozens of times per update and spilled once per budget-full,
        so merge writes buy few runs to probe; and the live memo being
        bounded (paper Section 4.1), the merges keep reaching the oldest
        run, which drops every tombstone and rebuilds an exact screen.
        Only age-contiguous runs may merge — the manifest order is the
        record-age order the probe walk depends on.  :meth:`spill` makes
        the first merge of a spill's cascade itself and calls this for
        the rest."""
        runs = self.runs
        while len(runs) >= 2 and runs[-2].count <= LEVEL_RATIO * runs[-1].count:
            self._compact(len(runs) - 2, len(runs) - 1)

    # holds: latch
    def _compact(self, i: int, j: int, table: Sequence[Record] = ()) -> None:
        """Merge runs ``i..j`` (age order, inclusive) into one run, their
        images re-validated and their pages charged — with ``table``, the
        sorted records of a spill (:meth:`spill`), folded in as the newest.
        The output's write is then a flush's crash window as well as a
        merge's.

        Where no older run can hold an oid — its key range and Bloom
        filter, if it has one (no false negatives), say so in RAM; always, when
        the group includes the oldest run — there is nothing below to
        mask or add to: a folded tombstone drops out and a folded delta
        becomes an absolute.
        """
        group = self.runs[i:j + 1]
        older = self.runs[:i]
        agg = self.fold_runs(group, charged=True, validated=True)
        for rec in table:
            agg[rec[0]] = fold(agg.get(rec[0]), rec)
        merged: List[Record] = []
        for rec in agg.values():
            if rec[3] != ABSOLUTE and not _admitted(older, rec[0]):
                if rec[3] == TOMBSTONE:
                    continue
                rec = (rec[0], rec[1], rec[2], ABSOLUTE)
            merged.append(rec)
        names = [r.path.name for r in self.runs]
        new_runs = (
            [self._write_run(
                sorted(merged),
                ("memo.compact", "memo.run_flush") if table else ("memo.compact",),
                filtered=i > 0,
            )]
            if merged else []
        )
        # Crash window closes here: the manifest swap makes the merged
        # run live and the inputs orphans, atomically.
        self._write_manifest(
            names[:i] + [r.path.name for r in new_runs] + names[j + 1:]
        )
        for run in group:
            run.close()
            run.path.unlink(missing_ok=True)
        self.runs[i:j + 1] = new_runs
        self._runs_changed()
        if len(self.runs) == len(new_runs):  # all there is: exact again
            self._screen_note((rec[0] for rec in merged), fresh=True)
        self.compaction_count += 1

    # ------------------------------------------------------------------
    # Open / recover / close
    # ------------------------------------------------------------------

    def _recover(self) -> None:  # holds: latch
        """Bring the directory to a consistent state at open:

        1. drop a leftover manifest temp file (an interrupted atomic
           replace — the real manifest is intact by construction);
        2. load + validate every manifest-named run (CRC/magic/size;
           :class:`MemoCorruptionError` on damage);
        3. unlink orphan ``.run`` files (interrupted flush/compaction).
        """
        (self.directory / MANIFEST_TMP_FILE).unlink(missing_ok=True)
        manifest_path = self.directory / MANIFEST_FILE
        names: List[str] = []
        if manifest_path.exists():
            raw = manifest_path.read_bytes()
            lines = raw.decode("utf-8", errors="replace").splitlines()
            if len(lines) != 2:
                raise MemoCorruptionError(
                    "memo manifest is malformed "
                    f"({len(lines)} lines, expected 2)"
                )
            body, crc_line = lines
            if format(zlib.crc32(body.encode("utf-8")), "08x") != crc_line:
                raise MemoCorruptionError(
                    "memo manifest failed its CRC check"
                )
            meta = json.loads(body)
            names = list(meta["runs"])
            self._next_seq = int(meta["seq"])
            self._charge_read_pages(1)
        for name in names:
            data = _Run.validated_image(self.directory / name)
            run = _Run(self.directory / name, data)
            self._charge_read_pages(run.pages)
            self.runs.append(run)
            self._screen_note(run.oids_in(data))
        live = set(names)
        for path in self.directory.glob(f"*{RUN_SUFFIX}"):
            if path.name not in live:
                path.unlink(missing_ok=True)

    def close(self) -> None:  # holds: latch
        """Release run file handles (the manifest is already durable —
        every mutation of the run set commits it before returning)."""
        for run in self.runs:
            run.close()


class SpillingUpdateMemo(UpdateMemo):
    """An :class:`UpdateMemo` on a :class:`RunStore` rooted at
    ``directory`` — a constructor and nothing else; every operation is
    the memo's.  The table stays under ``spill_budget`` bytes: crossing
    it spills the table to the runs and empties it."""

    def __init__(
        self,
        directory: str,
        spill_budget: int = DEFAULT_SPILL_BUDGET,
        stats: Optional["IOStats"] = None,
        faults: Optional["FaultInjector"] = None,
    ):
        tier = RunStore(directory, spill_budget, stats, faults)
        super().__init__(tier)
        self.directory = tier.directory
