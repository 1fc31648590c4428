"""LSM-tiered disk-resident Update Memo.

The paper's Update Memo (Section 3.1) is a pure in-RAM hash, which caps
the index at memo-fits-in-memory scale.  :class:`SpillingUpdateMemo`
removes that cap the way the same authors' successor work ("An
Update-intensive LSM-based R-tree Index", PAPERS.md) does: when the
in-RAM table crosses a configurable byte budget it is spilled to an
immutable *run* — a file of records sorted by oid — and probes consult
the RAM table first, then the runs from newest to oldest.  Size-tiered
compaction keeps the run count logarithmic, and a per-run Bloom filter
plus page fence pointers keep the hot ``check_status``/``is_obsolete``
probes at ~O(1) page reads ("Dynamic Indexability", Yi — PAPERS.md,
formalises exactly this lookup/ingest dial).

Record semantics
----------------

A memo entry is logically ``(oid, S_latest, N_old)``.  Because spilled
tiers are immutable, the tiers hold *tagged* records that aggregate to
that entry:

* ``DELTA(stamp, d)`` — ``d >= 1`` updates happened; adds ``d`` to
  ``N_old``; written by ``record_update`` without reading older tiers,
  which keeps updates at the paper's O(1) no-I/O cost.
* ``ABSOLUTE(stamp, n)`` — ``N_old`` is exactly ``n`` (``n >= 1``) as of
  this record; older records for the oid are superseded.  Written by
  ``note_cleaned`` (which must read the total anyway) and by restore /
  phantom purge.
* ``TOMBSTONE(stamp)`` — the entry does not exist; masks older records.
  Written when a clean drains ``N_old`` to zero while older runs may
  still hold records for the oid.

A probe walks RAM then runs newest→oldest, summing ``DELTA`` values
until an ``ABSOLUTE``/``TOMBSTONE`` base (or tier exhaustion) settles
the total.  The *first* record found already carries ``S_latest``, so
the search-path probes stop there — one Bloom-screened page read.

On-disk format
--------------

Run file (all little-endian)::

    header   <8sQqqII  magic, record count, min oid, max oid,
                        bloom bits (m), bloom hashes (k)
    bloom    m/8 bytes
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
import os
import struct
import zlib
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
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

from repro.storage.faults import SimulatedCrash, corrupt_page
from repro.storage.wal import UM_ENTRY_BYTES

from .memo import LATEST, OBSOLETE, UMEntry, UpdateMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.storage.faults import FaultInjector
    from repro.storage.iostats import IOStats

#: Record tags (see module docstring).
DELTA = 0
ABSOLUTE = 1
TOMBSTONE = 2

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

MANIFEST_FILE = "memo.manifest"
MANIFEST_TMP_FILE = "memo.manifest.tmp"
RUN_SUFFIX = ".run"

#: Spill when the RAM table exceeds this many bytes (paper footprint
#: ``E`` per entry).  1 MiB ~= 43k entries.
DEFAULT_SPILL_BUDGET = 1 << 20

#: Merge an age-contiguous group once this many runs share a size tier.
DEFAULT_COMPACT_THRESHOLD = 4


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


def _bloom_maybe(bloom: bytes, m_bits: int, k: int, h1: int, h2: int) -> bool:
    for i in range(k):
        bit = (h1 + i * h2) % m_bits
        if not bloom[bit >> 3] & (1 << (bit & 7)):
            return False
    return True


def _bloom_m_bits(n_keys: int) -> int:
    """Bloom size in bits: ``BLOOM_BITS_PER_KEY`` per key, rounded up
    to a whole byte, never below 64 bits."""
    return max(64, ((n_keys * BLOOM_BITS_PER_KEY + 7) // 8) * 8)


#: One tagged record: (oid, stamp, n, tag).
_Rec = Tuple[int, int, int, int]


class _Run:
    """One immutable sorted run: RAM-resident Bloom + fence pointers,
    disk-resident records probed one page at a time."""

    __slots__ = (
        "path", "count", "min_oid", "max_oid", "m_bits", "k",
        "bloom", "fences", "_records_off", "_fh",
    )

    def __init__(
        self,
        path: Path,
        count: int,
        min_oid: int,
        max_oid: int,
        m_bits: int,
        k: int,
        bloom: bytes,
        fences: List[int],
    ) -> None:
        self.path = path
        self.count = count
        self.min_oid = min_oid
        self.max_oid = max_oid
        self.m_bits = m_bits
        self.k = k
        self.bloom = bloom
        self.fences = fences
        self._records_off = _HEADER.size + len(bloom)
        self._fh: Optional[object] = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def encode(records: List[_Rec]) -> bytes:
        """Serialise sorted records into a complete run image."""
        count = len(records)
        oids = [r[0] for r in records]
        m_bits = _bloom_m_bits(count)
        bloom = _bloom_build(oids, m_bits, BLOOM_K)
        parts = [
            _HEADER.pack(MAGIC, count, oids[0], oids[-1], m_bits, BLOOM_K),
            bytes(bloom),
        ]
        parts.extend(_RECORD.pack(*r) for r in records)
        payload = b"".join(parts)
        return payload + _FOOTER.pack(zlib.crc32(payload))

    @classmethod
    def from_records(cls, path: Path, records: List[_Rec]) -> "_Run":
        """Describe a freshly flushed run without re-reading the file."""
        oids = [r[0] for r in records]
        m_bits = _bloom_m_bits(len(records))
        return cls(
            path=path,
            count=len(records),
            min_oid=oids[0],
            max_oid=oids[-1],
            m_bits=m_bits,
            k=BLOOM_K,
            bloom=bytes(_bloom_build(oids, m_bits, BLOOM_K)),
            fences=oids[::_RECORDS_PER_PAGE],
        )

    @classmethod
    def load(cls, path: Path) -> "_Run":
        """Open and fully validate an existing run (magic, size, CRC),
        rebuilding the fence pointers from the record bytes.

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
        magic, count, min_oid, max_oid, m_bits, k = _HEADER.unpack_from(data)
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
        records_off = _HEADER.size + m_bits // 8
        fences = [
            _RECORD.unpack_from(data, records_off + i * _RECORD.size)[0]
            for i in range(0, count, _RECORDS_PER_PAGE)
        ]
        return cls(
            path=path,
            count=count,
            min_oid=min_oid,
            max_oid=max_oid,
            m_bits=m_bits,
            k=k,
            bloom=data[_HEADER.size:records_off],
            fences=fences,
        )

    # -- probing -----------------------------------------------------------

    def maybe_contains(self, oid: int, h1: int, h2: int) -> bool:
        """RAM-only screen: key range, then Bloom filter on
        ``_bloom_hashes(oid)`` — no I/O."""
        if oid < self.min_oid or oid > self.max_oid:
            return False
        return _bloom_maybe(self.bloom, self.m_bits, self.k, h1, h2)

    def _file(self):  # lazy, kept open across probes
        if self._fh is None:
            self._fh = open(self.path, "rb")
        return self._fh

    def probe_page(self, oid: int) -> Optional[_Rec]:
        """Read the one fence-selected page and binary-search it.

        Caller has already passed :meth:`maybe_contains`; this is the
        1-page-read step (the Bloom false-positive case returns ``None``
        after paying that read).
        """
        page = bisect_right(self.fences, oid) - 1
        if page < 0:
            return None
        start = page * _RECORDS_PER_PAGE
        n = min(self.count - start, _RECORDS_PER_PAGE)
        fh = self._file()
        fh.seek(self._records_off + start * _RECORD.size)
        buf = fh.read(n * _RECORD.size)
        lo, hi = 0, n - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            rec = _RECORD.unpack_from(buf, mid * _RECORD.size)
            if rec[0] == oid:
                return (rec[0], rec[1], rec[2], rec[3])
            if rec[0] < oid:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def iter_records(self) -> Iterator[_Rec]:
        """All records in oid order (merged scans; unvalidated)."""
        fh = self._file()
        fh.seek(self._records_off)
        remaining = self.count
        while remaining > 0:
            n = min(remaining, _RECORDS_PER_PAGE)
            buf = fh.read(n * _RECORD.size)
            for i in range(n):
                rec = _RECORD.unpack_from(buf, i * _RECORD.size)
                yield (rec[0], rec[1], rec[2], rec[3])
            remaining -= n

    def read_validated(self) -> List[_Rec]:
        """All records, with the full-file CRC re-checked first.

        Compaction uses this instead of :meth:`iter_records`: its output
        *replaces* the inputs, so silently merging a bit-rotted run
        would launder the damage into a freshly checksummed file.
        Raises :class:`MemoCorruptionError` so the rot is surfaced at
        the merge instead.
        """
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        data = self.path.read_bytes()
        body_len = len(data) - _FOOTER.size
        if body_len < _HEADER.size:
            raise MemoCorruptionError(
                f"memo run {self.path.name} truncated ({len(data)} bytes)"
            )
        (crc,) = _FOOTER.unpack_from(data, body_len)
        if zlib.crc32(data[:body_len]) != crc:
            raise MemoCorruptionError(
                f"memo run {self.path.name} failed its CRC check"
            )
        return [
            _RECORD.unpack_from(data, self._records_off + i * _RECORD.size)
            for i in range(self.count)
        ]

    @property
    def pages(self) -> int:
        """Record pages in this run (the unit reads are charged in)."""
        return (self.count + _RECORDS_PER_PAGE - 1) // _RECORDS_PER_PAGE

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class SpillingUpdateMemo(UpdateMemo):
    """Update Memo with an LSM-tiered disk-resident overflow.

    Drop-in for :class:`UpdateMemo`: same operations, same probe-tally
    and instrument contract, bit-identical ``check_status`` answers (the
    hypothesis equivalence suite in ``tests/test_memo_lsm.py`` holds it
    to that).  The RAM tier stays under ``spill_budget`` bytes — crossing
    it flushes the table as a sorted run and empties RAM.

    Not for the lock-striped concurrency experiment: a spill touches
    every bucket, which the per-bucket lock discipline cannot cover.
    """

    def __init__(
        self,
        directory: str,
        n_buckets: int = 64,
        spill_budget: int = DEFAULT_SPILL_BUDGET,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        stats: Optional["IOStats"] = None,
        faults: Optional["FaultInjector"] = None,
    ):
        super().__init__(n_buckets=n_buckets)
        if spill_budget <= 0:
            raise ValueError("spill_budget must be positive")
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be at least 2")
        self.spill_budget = spill_budget
        self.compact_threshold = compact_threshold
        self.stats = stats
        self.faults = faults
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: RAM tier: bucketised tagged records (tag, stamp, n).
        # Spill-tier state is *not* lock-striped (a spill touches every
        # bucket): callers serialise behind the owning tree's structure
        # latch, or use the memo single-threaded.
        self._ram: List[Dict[int, Tuple[int, int, int]]] = [  # guarded-by: latch
            {} for _ in range(n_buckets)
        ]
        self._ram_count = 0
        self._defer = 0
        self._runs: List[_Run] = []  # guarded-by: latch (age order: oldest first)
        self._next_seq = 1
        #: Lifetime probe tallies (plain ints, same discipline as
        #: ``lookup_count``): run pages read by probes, and how many of
        #: those were Bloom false positives.
        self.run_probe_count = 0
        self.bloom_fp_count = 0
        self._obs_spills = None
        self._obs_compactions = None
        self._obs_run_probes = None
        self._obs_bloom_fp = None
        self._recover()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Bind telemetry: everything the base memo binds, plus the
        spill tier — ``memo.spills``/``memo.compactions`` counters,
        ``memo.run_probes``/``memo.bloom_fp`` probe counters (mirroring
        the plain tallies, values since construction), and ``memo.runs``/
        ``memo.ram_bytes`` gauges for the tier shape."""
        super().attach_obs(obs)
        if obs is None or not obs.metrics_on:
            self._obs_spills = self._obs_compactions = None
            self._obs_run_probes = self._obs_bloom_fp = None
            return
        reg = obs.registry
        self._obs_spills = reg.counter("memo.spills")
        self._obs_compactions = reg.counter("memo.compactions")
        self._obs_run_probes = reg.counter("memo.run_probes")
        self._obs_bloom_fp = reg.counter("memo.bloom_fp")
        reg.gauge("memo.runs").set_function(lambda: float(len(self._runs)))
        reg.gauge("memo.ram_bytes").set_function(
            lambda: float(self.ram_size_bytes())
        )

    # ------------------------------------------------------------------
    # I/O charging (4 KiB page granularity)
    # ------------------------------------------------------------------

    def _charge_write_bytes(self, nbytes: int) -> None:
        if self.stats is not None:
            self.stats.memo_writes += max(
                1, (nbytes + PAGE_BYTES - 1) // PAGE_BYTES
            )

    def _charge_read_pages(self, pages: int) -> None:
        if self.stats is not None:
            self.stats.memo_reads += pages

    # ------------------------------------------------------------------
    # RAM tier helpers
    # ------------------------------------------------------------------

    def _ram_bucket(self, oid: int) -> Dict[int, Tuple[int, int, int]]:  # holds: latch
        return self._ram[oid % self.n_buckets]

    def _ram_set(self, oid: int, rec: Tuple[int, int, int]) -> None:
        bucket = self._ram_bucket(oid)
        if oid not in bucket:
            self._ram_count += 1
        bucket[oid] = rec

    def ram_size_bytes(self) -> int:
        """Bytes held by the RAM tier — bounded by ``spill_budget``
        outside a ``defer_spills`` scope."""
        return self._ram_count * UM_ENTRY_BYTES

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def _probe_runs_first(self, oid: int) -> Optional[Tuple[int, int, int]]:  # holds: latch
        """Newest record for ``oid`` across runs (newest→oldest), or
        ``None``.  Charges one page read per Bloom-passed run."""
        if not self._runs:
            return None
        h1, h2 = _bloom_hashes(oid)
        for run in reversed(self._runs):
            if not run.maybe_contains(oid, h1, h2):
                continue
            self._charge_read_pages(1)
            self.run_probe_count += 1
            if self._obs_run_probes is not None:
                self._obs_run_probes.inc()
            rec = run.probe_page(oid)
            if rec is not None:
                return (rec[3], rec[1], rec[2])
            self.bloom_fp_count += 1
            if self._obs_bloom_fp is not None:
                self._obs_bloom_fp.inc()
        return None

    def _merged_get(self, oid: int) -> Optional[Tuple[int, int]]:  # holds: latch
        """Aggregate ``(S_latest, N_old)`` for ``oid`` across all tiers
        (RAM first, then runs newest→oldest), or ``None`` if absent."""
        s_latest: Optional[int] = None
        total = 0
        rec = self._ram_bucket(oid).get(oid)
        if rec is not None:
            tag, stamp, n = rec
            if tag == TOMBSTONE:
                return None
            s_latest = stamp
            total += n
            if tag == ABSOLUTE:
                return (s_latest, total) if total > 0 else None
        h1, h2 = _bloom_hashes(oid)
        for run in reversed(self._runs):
            if not run.maybe_contains(oid, h1, h2):
                continue
            self._charge_read_pages(1)
            self.run_probe_count += 1
            if self._obs_run_probes is not None:
                self._obs_run_probes.inc()
            found = run.probe_page(oid)
            if found is None:
                self.bloom_fp_count += 1
                if self._obs_bloom_fp is not None:
                    self._obs_bloom_fp.inc()
                continue
            _, stamp, n, tag = found
            if s_latest is None:
                s_latest = stamp
            if tag == TOMBSTONE:
                break
            total += n
            if tag == ABSOLUTE:
                break
        if s_latest is None or total <= 0:
            return None
        return (s_latest, total)

    # ------------------------------------------------------------------
    # The paper's memo operations
    # ------------------------------------------------------------------

    def record_update(self, oid: int, stamp: int) -> None:  # holds: latch
        """Same contract as the base memo, still zero-I/O: a RAM miss
        writes a ``DELTA`` record that aggregates over whatever the runs
        hold, so no tier below RAM is consulted."""
        self._rc_bucket(oid, True)
        bucket = self._ram_bucket(oid)
        rec = bucket.get(oid)
        if rec is None:
            bucket[oid] = (DELTA, stamp, 1)
            self._ram_count += 1
            # Without probing the runs, "insert vs obsoleted" is
            # unknowable at O(1); a RAM miss is reported as an insert.
            if self._obs_inserts is not None:
                self._obs_inserts.inc()
        else:
            tag, _, n = rec
            if tag == TOMBSTONE:
                bucket[oid] = (ABSOLUTE, stamp, 1)
            else:
                bucket[oid] = (tag, stamp, n + 1)
            if self._obs_obsoleted is not None:
                self._obs_obsoleted.inc()
        self._maybe_spill()

    def latest_stamp(self, oid: int) -> Optional[int]:
        """First-hit probe: the newest record in any tier already
        carries ``S_latest``, so the walk stops at one Bloom-screened
        page read without aggregating ``N_old``."""
        self._rc_bucket(oid, False)
        self.lookup_count += 1
        rec = self._ram_bucket(oid).get(oid)
        if rec is None:
            rec = self._probe_runs_first(oid)
        if rec is None or rec[0] == TOMBSTONE:
            return None
        self.hit_count += 1
        return rec[1]

    def check_status(self, oid: int, stamp: int) -> str:
        s_latest = self.latest_stamp(oid)
        if s_latest is None:
            return LATEST
        return LATEST if stamp == s_latest else OBSOLETE

    def is_obsolete(self, oid: int, stamp: int) -> bool:
        s_latest = self.latest_stamp(oid)
        return s_latest is not None and stamp != s_latest

    def note_cleaned(self, oid: int) -> None:  # holds: latch
        """Decrement ``N_old``; unlike ``record_update`` this must know
        the aggregate total, so it pays a full-depth probe and writes the
        result back as an ``ABSOLUTE`` (or ``TOMBSTONE`` at zero) that
        supersedes every older record for the oid."""
        self._rc_bucket(oid, True)
        res = self._merged_get(oid)
        if res is None:
            raise KeyError(
                f"cleaned an obsolete entry for oid {oid} with no UM entry"
            )
        if self._obs_cleaned is not None:
            self._obs_cleaned.inc()
        s_latest, total = res
        bucket = self._ram_bucket(oid)
        if total - 1 <= 0:
            if self._runs:
                # Older runs may still hold records; mask them.
                self._ram_set(oid, (TOMBSTONE, s_latest, 0))
            elif bucket.pop(oid, None) is not None:
                self._ram_count -= 1
        else:
            self._ram_set(oid, (ABSOLUTE, s_latest, total - 1))
        self._maybe_spill()

    def sweep_obsolete(  # holds: latch
        self, oids: Sequence[int], stamps: Sequence[int], budget: int
    ) -> List[int]:
        """The base memo's sweep through the tiers: each probe is a
        :meth:`latest_stamp` (RAM, then the runs newest to oldest), each
        removal a :meth:`note_cleaned` — which may spill mid-sweep."""
        slots: List[int] = []
        if budget <= 0:
            return slots
        for slot, oid in enumerate(oids):
            s_latest = self.latest_stamp(oid)
            if s_latest is not None and stamps[slot] != s_latest:
                self.note_cleaned(oid)
                slots.append(slot)
                if len(slots) == budget:
                    break
        return slots

    def purge_phantoms(
        self, stamp_threshold: int, exclude: Optional[Set[int]] = None
    ) -> int:
        """Phantom inspection (Lemma 1) as a filtered major merge: fold
        every tier into absolute entries, drop the phantoms, and restart
        the LSM from the survivors (RAM if they fit, spilled otherwise).
        One full memo scan — the same O(memo) the in-RAM purge pays,
        plus the run reads, charged once per cleaning cycle."""
        self._rc_all(True)
        merged = self._merged_all()
        survivors = {
            oid: (s_latest, n_old)
            for oid, (s_latest, n_old) in merged.items()
            if n_old > 0
            and (
                s_latest >= stamp_threshold
                or (exclude is not None and oid in exclude)
            )
        }
        alive = sum(1 for _, n_old in merged.values() if n_old > 0)
        purged = alive - len(survivors)
        self._reset_tiers(
            (oid, s, n) for oid, (s, n) in survivors.items()
        )
        if self._obs_purge_runs is not None:
            self._obs_purge_runs.inc()
            self._obs_purged.inc(purged)
        return purged

    # ------------------------------------------------------------------
    # Lookup / snapshot / restore
    # ------------------------------------------------------------------

    def get(self, oid: int) -> Optional[UMEntry]:
        self._rc_bucket(oid, False)
        res = self._merged_get(oid)
        if res is None:
            return None
        return UMEntry(oid, res[0], res[1])

    def snapshot(self) -> List[Tuple[int, int, int]]:  # holds: latch
        """A stable copy of all live entries, aggregated across tiers
        (checkpointing, Section 3.4).  Charges a full run scan."""
        self._rc_all(False)
        for run in self._runs:
            self._charge_read_pages(run.pages)
        return [
            (oid, s_latest, n_old)
            for oid, (s_latest, n_old) in self._merged_all().items()
            if n_old > 0
        ]

    def restore(self, entries: Iterator[Tuple[int, int, int]]) -> None:
        """Replace the whole memo content (crash recovery), dropping
        non-positive ``N_old`` exactly like the base memo."""
        self._rc_all(True)
        self._reset_tiers(
            (oid, s_latest, n_old)
            for oid, s_latest, n_old in entries
            if n_old > 0
        )

    # holds: latch
    def _reset_tiers(
        self, entries: Iterator[Tuple[int, int, int]]
    ) -> None:
        """Restart the LSM from scratch with ``entries`` as absolute
        truth.  The empty manifest is committed *before* the old run
        files are unlinked, so a crash in between leaves orphans (swept
        at the next open), never a manifest naming missing files."""
        for bucket in self._ram:
            bucket.clear()
        self._ram_count = 0
        old_runs = self._runs
        self._runs = []
        self._write_manifest([])
        for run in old_runs:
            run.close()
            run.path.unlink(missing_ok=True)
        for oid, s_latest, n_old in entries:
            self._ram_set(oid, (ABSOLUTE, s_latest, n_old))
        self._maybe_spill()

    # ------------------------------------------------------------------
    # Size metrics (gauges — peek-style, uncharged)
    # ------------------------------------------------------------------

    def _merged_all(self) -> Dict[int, Tuple[int, int]]:  # holds: latch
        """Aggregate every tier into ``{oid: (S_latest, N_old)}``.

        Applies runs oldest→newest then RAM on top (the forward
        equivalent of the newest→oldest probe walk): ``ABSOLUTE``/
        ``TOMBSTONE`` replace, ``DELTA`` adds.  Tombstoned entries stay
        in the dict with ``N_old`` 0 so callers can distinguish "absent"
        from "never seen"; live entries have ``N_old > 0``.  Does not
        charge I/O itself — gauge callbacks sample it at snapshot time,
        and charging those reads would pollute per-op I/O deltas;
        operation-path callers charge explicitly.
        """
        agg: Dict[int, Tuple[int, int]] = {}
        for run in self._runs:
            for oid, stamp, n, tag in run.iter_records():
                if tag == DELTA:
                    prev = agg.get(oid)
                    agg[oid] = (stamp, (prev[1] if prev else 0) + n)
                elif tag == ABSOLUTE:
                    agg[oid] = (stamp, n)
                else:
                    agg[oid] = (stamp, 0)
        for bucket in self._ram:
            for oid, (tag, stamp, n) in bucket.items():
                if tag == DELTA:
                    prev = agg.get(oid)
                    agg[oid] = (stamp, (prev[1] if prev else 0) + n)
                elif tag == ABSOLUTE:
                    agg[oid] = (stamp, n)
                else:
                    agg[oid] = (stamp, 0)
        return agg

    def __len__(self) -> int:
        return sum(1 for _, n in self._merged_all().values() if n > 0)

    def size_bytes(self) -> int:
        """Logical memo size at the paper's per-entry footprint ``E``
        (live entries only, whatever tier they sit in)."""
        return len(self) * UM_ENTRY_BYTES

    def total_n_old(self) -> int:
        return sum(
            n for _, n in self._merged_all().values() if n > 0
        )

    def __iter__(self) -> Iterator[UMEntry]:
        for oid, (s_latest, n_old) in self._merged_all().items():
            if n_old > 0:
                yield UMEntry(oid, s_latest, n_old)

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------

    def defer_spills(self) -> ContextManager[None]:
        """Suspend budget-triggered spills for a batch apply (PR 5):
        every ``record_update`` in the scope stays in RAM, and scope
        exit flushes at most one run — the batch *becomes* a memo run
        flush instead of shearing into many mid-batch spills."""
        return self._defer_scope()

    @contextmanager
    def _defer_scope(self) -> Iterator[None]:
        self._defer += 1
        try:
            yield
        finally:
            self._defer -= 1
            if self._defer == 0:
                self._maybe_spill()

    def _maybe_spill(self) -> None:
        if self._defer > 0 or self._ram_count * UM_ENTRY_BYTES <= self.spill_budget:
            return
        self.flush_ram()

    def flush_ram(self) -> None:  # holds: latch
        """Spill the whole RAM tier as one new run (newest in the age
        order) and empty RAM.  Crash windows: ``memo.run_flush`` while
        the run image is written (an interrupted image is an orphan —
        the manifest does not name it yet), then ``memo.manifest``."""
        if self._ram_count == 0:
            return
        records = sorted(
            (oid, stamp, n, tag)
            for bucket in self._ram
            for oid, (tag, stamp, n) in bucket.items()
        )
        name = f"run-{self._next_seq:08d}{RUN_SUFFIX}"
        self._next_seq += 1
        path = self.directory / name
        data = _Run.encode(records)
        self._write_run_file(path, data, "memo.run_flush")
        self._write_manifest([r.path.name for r in self._runs] + [name])
        self._runs.append(_Run.from_records(path, records))
        for bucket in self._ram:
            bucket.clear()
        self._ram_count = 0
        if self._obs_spills is not None:
            self._obs_spills.inc()
        self._maybe_compact()

    def _write_run_file(self, path: Path, data: bytes, point: str) -> None:
        """Write + fsync one run image, honouring the fault point:
        ``crash`` dies before any byte lands, ``torn`` persists a prefix
        then dies, ``corrupt`` writes a silently damaged image."""
        faults = self.faults
        mode: Optional[str] = None
        if (
            faults is not None
            and faults.point == point
            and faults.should_trigger(point)
        ):
            mode = faults.mode
        if mode == "corrupt":
            faults._mark_fired(point)
            data = corrupt_page(data, faults.corrupt_bytes)
            mode = None
        if mode == "crash":
            faults._mark_fired(point)
            raise SimulatedCrash(point)
        with open(path, "wb") as f:
            if mode == "torn":
                k = faults.torn_bytes if faults.torn_bytes > 0 else len(data) // 2
                k = max(1, min(k, len(data) - 1))
                f.write(data[:k])
                f.flush()
                os.fsync(f.fileno())
                faults._mark_fired(point)
                raise SimulatedCrash(point)
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        self._charge_write_bytes(len(data))

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
        faults = self.faults
        mode: Optional[str] = None
        if (
            faults is not None
            and faults.point == "memo.manifest"
            and faults.should_trigger("memo.manifest")
        ):
            mode = faults.mode
        if mode == "corrupt":
            faults._mark_fired("memo.manifest")
            content = corrupt_page(content, faults.corrupt_bytes)
            mode = None
        tmp_path = self.directory / MANIFEST_TMP_FILE
        with open(tmp_path, "wb") as tmp:
            if mode == "torn":
                k = faults.torn_bytes if faults.torn_bytes > 0 else len(content) // 2
                k = max(1, min(k, len(content) - 1))
                tmp.write(content[:k])
                tmp.flush()
                os.fsync(tmp.fileno())
                faults._mark_fired("memo.manifest")
                raise SimulatedCrash("memo.manifest")
            tmp.write(content)
            tmp.flush()
            os.fsync(tmp.fileno())
        if mode == "crash":
            # Crash window: new manifest fully written but not yet live;
            # the previous manifest must still name the previous runs.
            faults._mark_fired("memo.manifest")
            raise SimulatedCrash("memo.manifest")
        os.replace(tmp_path, self.directory / MANIFEST_FILE)
        self._charge_write_bytes(len(content))

    # ------------------------------------------------------------------
    # Size-tiered compaction
    # ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Merge age-contiguous groups of same-tier runs until no group
        reaches ``compact_threshold``.  Only age-contiguous runs may
        merge — the manifest order is the authoritative record-age order
        the newest→oldest probe walk depends on."""
        while True:
            group = self._find_compactable()
            if group is None:
                return
            self._compact(*group)

    def _find_compactable(self) -> Optional[Tuple[int, int]]:  # holds: latch
        runs = self._runs
        i = 0
        while i < len(runs):
            tier = runs[i].count.bit_length()
            j = i
            while j + 1 < len(runs) and runs[j + 1].count.bit_length() == tier:
                j += 1
            if j - i + 1 >= self.compact_threshold:
                return (i, j)
            i = j + 1
        return None

    def _compact(self, i: int, j: int) -> None:  # holds: latch
        """Merge runs ``i..j`` (age order, inclusive) into one run.

        Record folding is the probe walk in the forward direction:
        within the group, newer ``ABSOLUTE``/``TOMBSTONE`` replace and
        ``DELTA`` adds.  When the group includes the oldest run of the
        memo there is nothing below to mask or add to, so tombstones
        drop out and surviving deltas normalise to absolutes.
        """
        group = self._runs[i:j + 1]
        agg: Dict[int, Tuple[int, int, int]] = {}
        for run in group:
            self._charge_read_pages(run.pages)
            for oid, stamp, n, tag in run.read_validated():
                if tag == DELTA:
                    prev = agg.get(oid)
                    if prev is None:
                        agg[oid] = (DELTA, stamp, n)
                    elif prev[0] == TOMBSTONE:
                        agg[oid] = (ABSOLUTE, stamp, n)
                    else:
                        agg[oid] = (prev[0], stamp, prev[2] + n)
                else:
                    agg[oid] = (tag, stamp, n)
        if i == 0:
            merged = {}
            for oid, (tag, stamp, n) in agg.items():
                if tag == TOMBSTONE or n <= 0:
                    continue
                merged[oid] = (ABSOLUTE, stamp, n)
            agg = merged
        records = sorted(
            (oid, stamp, n, tag) for oid, (tag, stamp, n) in agg.items()
        )
        names = [r.path.name for r in self._runs]
        if records:
            name = f"run-{self._next_seq:08d}{RUN_SUFFIX}"
            self._next_seq += 1
            out_path = self.directory / name
            self._write_run_file(out_path, _Run.encode(records), "memo.compact")
            new_runs = [_Run.from_records(out_path, records)]
            new_names = [name]
        else:
            new_runs = []
            new_names = []
        # Crash window closes here: the manifest swap makes the merged
        # run live and the inputs orphans, atomically.
        self._write_manifest(names[:i] + new_names + names[j + 1:])
        for run in group:
            run.close()
            run.path.unlink(missing_ok=True)
        self._runs[i:j + 1] = new_runs
        if self._obs_compactions is not None:
            self._obs_compactions.inc()

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
        self._runs = []
        for name in names:
            run = _Run.load(self.directory / name)
            self._charge_read_pages(run.pages)
            self._runs.append(run)
        live = set(names)
        for path in self.directory.glob(f"*{RUN_SUFFIX}"):
            if path.name not in live:
                path.unlink(missing_ok=True)

    def close(self) -> None:  # holds: latch
        """Release run file handles (the manifest is already durable —
        every mutation of the run set commits it before returning)."""
        for run in self._runs:
            run.close()
