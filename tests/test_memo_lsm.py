"""Tests for the Update Memo's run tier.

Covers the run file format (CRC, fences, Bloom filters), the spill /
probe / compact lifecycle, manifest crash safety under fault injection,
and — the core contract — that a memo on a tier behaves as the Section
3.1 table (a dict model) under arbitrary operation interleavings,
including across a close/reopen cycle — and that the tier's RAM-only
presence screen never misses an oid a live run holds, whatever fed, grew,
cleared or rebuilt it.  ``tests/test_memo.py`` runs the paper's
per-operation behaviours on both sides of a spill; this file holds what
only exists with runs on disk.
"""

import gc
import hashlib
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import memo_lsm
from repro.core.memo import ABSOLUTE, DELTA, LATEST, OBSOLETE, TOMBSTONE, UpdateMemo
from repro.core.recovery import recover_option_iii
from repro.core.memo_lsm import (
    MANIFEST_FILE,
    MANIFEST_TMP_FILE,
    RUN_SUFFIX,
    SCREEN_BITS_PER_RECORD,
    MemoCorruptionError,
    SpillingUpdateMemo,
    _Run,
)
from repro.factory import build_rum_tree
from repro.obs import Observability
from repro.rtree.geometry import Rect
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.iostats import IOStats
from repro.storage.wal import UM_ENTRY_BYTES
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

PARENT_RUNS = Path(__file__).parent / "fixtures" / "memo_runs_parent"


def load_run(path):
    """Open an existing run as the store does: image validated, then
    described."""
    return _Run(path, _Run.validated_image(path))


def tiny_memo(tmp_path, budget_entries=4, **kwargs):
    """A spilling memo whose RAM tier holds ``budget_entries`` entries."""
    return SpillingUpdateMemo(
        tmp_path, spill_budget=budget_entries * UM_ENTRY_BYTES, **kwargs
    )


def spill_unmerged(memo):
    """``flush_ram`` without the merge after it — :meth:`RunStore.flush`
    never compacts — to stage run sets the level rule would fold."""
    memo.tier.flush(sorted(entry.as_record() for entry in memo._table.values()))
    memo._table.clear()


class TestConstruction:
    def test_rejects_bad_budget_and_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            SpillingUpdateMemo(tmp_path, spill_budget=0)

    def test_empty_directory_starts_empty(self, tmp_path):
        memo = tiny_memo(tmp_path)
        assert len(memo) == 0
        assert memo.runs == ()
        memo.close()


class TestSpillAndProbe:
    def test_budget_forces_runs_and_bounds_ram(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=4)
        for oid in range(40):
            memo.record_update(oid, oid + 1)
            assert memo.ram_size_bytes() <= 4 * UM_ENTRY_BYTES
        assert len(memo.runs) >= 1
        assert (tmp_path / MANIFEST_FILE).exists()
        memo.close()

    def test_probes_agree_across_tiers(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=4)
        for oid in range(30):
            memo.record_update(oid, oid + 1)
        for oid in range(30):
            assert memo.latest_stamp(oid) == oid + 1
            assert memo.check_status(oid, oid + 1) == LATEST
            assert memo.check_status(oid, 0) == OBSOLETE
            entry = memo.get(oid)
            assert entry.s_latest == oid + 1 and entry.n_old == 1
        assert memo.latest_stamp(999) is None
        memo.close()

    def test_n_old_aggregates_deltas_across_runs(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=32)
        for stamp in range(1, 8):
            memo.record_update(5, stamp)
            memo.record_update(100 + stamp, stamp)
            spill_unmerged(memo)
        assert len(memo.runs) == 7
        assert memo.get(5).n_old == 7
        assert memo.get(5).s_latest == 7
        memo.close()

    def test_note_cleaned_drains_through_tombstone(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        memo.record_update(1, 10)
        memo.flush_ram()
        assert memo.runs  # the record now lives on disk
        memo.note_cleaned(1)
        assert memo.get(1) is None  # tombstone masks the spilled record
        assert memo.latest_stamp(1) is None
        with pytest.raises(KeyError):
            memo.note_cleaned(1)
        memo.close()

    def test_nothing_is_written_for_an_oid_no_run_holds(self, tmp_path):
        """Absence, not a record: above runs that have never heard of an
        oid, its first update is an ``ABSOLUTE`` and its last clean deletes
        the entry — where a run does hold the oid, a ``DELTA`` and a
        tombstone, as ever."""
        memo = tiny_memo(tmp_path, budget_entries=4)
        for oid in (1, 2, 3):
            memo.record_update(oid, oid)
        memo.flush_ram()
        assert not memo.tier.may_hold(500) and memo.tier.may_hold(1)
        memo.record_update(500, 10)
        memo.record_update(1, 11)
        tags = {oid: e.tag for oid, e in memo._table.items()}
        assert tags == {500: ABSOLUTE, 1: DELTA}
        memo.note_cleaned(500)
        memo.note_cleaned(1)
        memo.note_cleaned(1)
        tags = {oid: e.tag for oid, e in memo._table.items()}
        assert tags == {1: TOMBSTONE}
        assert memo.get(500) is None and memo.get(1) is None
        with pytest.raises(KeyError):
            memo.note_cleaned(500)
        memo.close()

    def test_a_clean_above_the_tier_is_one_walk(self, tmp_path):
        """The sweep's CheckStatus reads the newest record of the oid; the
        deep fold of its clean goes on from there — three runs, three page
        reads, where walking twice made four."""
        memo = tiny_memo(tmp_path, budget_entries=2)
        for stamp in (1, 2, 3):
            memo.record_update(5, stamp)
            spill_unmerged(memo)
        assert [next(run.iter_records())[3] for run in memo.runs] == [
            ABSOLUTE, DELTA, DELTA,
        ]
        before = memo.run_probe_count
        assert memo.sweep_obsolete([5], [1], 1) == [0]
        assert memo.run_probe_count - before == 3
        assert memo.get(5).as_tuple() == (5, 3, 2)
        # The per-entry pair it stands for resumes alike.
        memo.flush_ram()
        before = memo.run_probe_count
        assert memo.latest_stamp(5) == 3  # the ABSOLUTE just spilled
        memo.note_cleaned(5)
        assert memo.run_probe_count - before == 1
        assert memo.get(5).as_tuple() == (5, 3, 1)
        memo.close()

    @pytest.mark.parametrize("change", ["flush", "compact", "reset"])
    def test_resume_dies_with_every_change_of_the_run_set(self, tmp_path, change):
        memo = tiny_memo(tmp_path, budget_entries=2)
        memo.record_update(8, 1)
        spill_unmerged(memo)
        memo.record_update(9, 2)
        spill_unmerged(memo)
        assert memo.latest_stamp(8) == 1  # remembered: run 0, ABSOLUTE(1)
        assert memo.tier._resume is not None
        if change == "flush":
            memo.record_update(8, 3)      # a DELTA over it, spilled above
            spill_unmerged(memo)
            want = (8, 3, 1)
        elif change == "compact":
            memo.tier._compact(0, 1)
            want = None
        else:
            memo.restore([(8, 7, 3)])
            memo.flush_ram()
            want = (8, 7, 2)
        assert memo.tier._resume is None
        memo.note_cleaned(8)              # RAM miss: a deep probe of oid 8
        entry = memo.get(8)
        assert (entry and entry.as_tuple()) == want
        memo.close()

    def test_purge_phantoms_reaches_spilled_entries(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        for oid in range(10):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        purged = memo.purge_phantoms(6, exclude={2})
        assert purged == 4  # oids 0,1,3,4 (2 shielded, 5..9 recent)
        assert memo.get(0) is None
        assert memo.get(2).s_latest == 3
        assert memo.get(7).s_latest == 8
        memo.close()

    def test_a_drained_oid_costs_no_run_read(self, tmp_path):
        """The tombstone a clean leaves over a spilled record merges into
        that record's run at the next spill — the oldest, so both drop and
        the screen is rebuilt exact: the oid is answered from RAM."""
        stats = IOStats()
        memo = SpillingUpdateMemo(tmp_path, stats=stats)
        memo.record_update(7, 1)
        memo.flush_ram()
        memo.note_cleaned(7)
        assert memo._table[7].tag == TOMBSTONE  # a run holds oid 7
        memo.flush_ram()
        before = stats.memo_reads
        assert memo.latest_stamp(7) is None
        assert stats.memo_reads == before
        memo.close()

    def test_miss_probe_rejected_by_bloom_without_io(self, tmp_path):
        stats = IOStats()
        memo = tiny_memo(tmp_path, budget_entries=4, stats=stats)
        for oid in range(0, 64, 2):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        reads_before = stats.memo_reads
        # Far outside every run's oid range: fence check alone rejects.
        assert memo.latest_stamp(10_000) is None
        assert stats.memo_reads == reads_before
        memo.close()


class TestRunFormat:
    def test_load_roundtrip(self, tmp_path):
        records = [(oid, oid * 7 + 1, 1, 0) for oid in range(500)]
        for filtered in (True, False):
            path = tmp_path / f"run-{filtered}{RUN_SUFFIX}"
            path.write_bytes(_Run.encode(records, filtered))
            run = load_run(path)
            assert run.count == 500
            assert len(run.bloom) == (625 if filtered else 0)
            assert list(run.iter_records()) == records
            for oid in (0, 170, 171, 499):
                assert run.probe_page(oid) == (oid, oid * 7 + 1, 1, 0)
            assert run.probe_page(1_000) is None
            run.close()

    @pytest.mark.parametrize("offset_frac", [0.0, 0.3, 0.6, 0.999])
    def test_any_bitflip_fails_crc(self, tmp_path, offset_frac):
        records = [(oid, oid + 1, 1, 0) for oid in range(300)]
        for filtered in (True, False):
            data = bytearray(_Run.encode(records, filtered))
            pos = min(int(len(data) * offset_frac), len(data) - 1)
            data[pos] ^= 0x01
            path = tmp_path / f"run-{filtered}{RUN_SUFFIX}"
            path.write_bytes(bytes(data))
            with pytest.raises(MemoCorruptionError):
                load_run(path)


class TestCompaction:
    def test_compaction_bounds_run_count(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        for stamp in range(1, 200):
            memo.record_update(stamp % 17, stamp)
            counts = [run.count for run in memo.runs]
            # Leveling: each run more than LEVEL_RATIO times the next newer.
            assert all(
                older > memo_lsm.LEVEL_RATIO * newer
                for older, newer in zip(counts, counts[1:])
            )
        assert len(memo.runs) <= 2
        for oid in range(17):
            assert memo.get(oid) is not None
        memo.close()

    def test_oldest_merge_drops_tombstones(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        memo.record_update(1, 1)
        memo.record_update(2, 2)
        spill_unmerged(memo)
        memo.note_cleaned(1)  # tombstone over the spilled record
        spill_unmerged(memo)
        assert len(memo.runs) == 2
        memo.tier._compact(0, len(memo.runs) - 1)
        assert len(memo.runs) == 1
        # The tombstone and its victim are both gone from the merged run.
        assert all(
            rec[0] != 1 for rec in memo.runs[0].iter_records()
        )
        assert memo.get(1) is None
        assert memo.get(2).s_latest == 2
        memo.close()


    def partial_merge_case(self, tmp_path, **kwargs):
        """Four runs, oldest first: ``{1, 2}``, ``{7}``, tombstones of 1 and
        7, ``{9}`` — a merge of the middle two has run 0 below it, which
        holds oid 1 and cannot hold oid 7."""
        memo = tiny_memo(tmp_path, budget_entries=3, **kwargs)
        for oids in ((1, 2), (7,)):
            for oid in oids:
                memo.record_update(oid, 10 + oid)
            spill_unmerged(memo)
        memo.note_cleaned(1)
        memo.note_cleaned(7)
        spill_unmerged(memo)
        memo.record_update(9, 19)
        spill_unmerged(memo)
        assert [[r[0] for r in run.iter_records()] for run in memo.runs] == [
            [1, 2], [7], [1, 7], [9],
        ]
        return memo

    def test_partial_merge_drops_only_what_nothing_older_needs(self, tmp_path):
        memo = self.partial_merge_case(tmp_path)
        tier = memo.tier
        assert tier.idle_tombstones() == []  # both tombstones mask a record
        tier._compact(1, 2)
        # Oid 1's tombstone survives and still masks run 0's stale stamp 11;
        # oid 7's is gone with its victim, its screen bit staying behind.
        assert [list(run.iter_records()) for run in memo.runs[1:]] == [
            [(1, 11, 0, TOMBSTONE)], [(9, 19, 1, ABSOLUTE)],
        ]
        assert memo.latest_stamp(1) is None and memo.get(1) is None
        assert memo.latest_stamp(7) is None and tier.may_hold(7)
        assert memo.get(2).as_tuple() == (2, 12, 1)
        assert tier.idle_tombstones() == [] == tier.screen_misses()
        # The stale bit makes oid 7's next update a DELTA with nothing to
        # add to: idle in the run a flush writes, an absolute after a merge.
        memo.record_update(7, 30)
        spill_unmerged(memo)
        assert list(memo.runs[3].iter_records()) == [(7, 30, 1, DELTA)]
        assert tier.idle_tombstones() == [(3, 7)]
        tier._compact(2, 3)
        assert list(memo.runs[2].iter_records()) == [
            (7, 30, 1, ABSOLUTE), (9, 19, 1, ABSOLUTE),
        ]
        assert tier.idle_tombstones() == []
        assert sorted(memo.snapshot()) == [(2, 12, 1), (7, 30, 1), (9, 19, 1)]
        memo.close()

    def test_only_a_run_above_another_carries_a_filter(self, tmp_path):
        """A run written with nothing older below it — a flush into an
        empty tier, a merge that includes the oldest run — has ``m = k = 0``
        and no filter bytes; a run staged above it, and a partial merge
        above the oldest, carry a Bloom filter."""

        def filter_of(run):  # (m, k) as the header on disk says
            return memo_lsm._HEADER.unpack_from(run.path.read_bytes())[4:]

        def filtered(run):
            m_bits, k = filter_of(run)
            return m_bits >= 64 and k == memo_lsm.BLOOM_K

        memo = self.partial_merge_case(tmp_path)
        tier = memo.tier
        oldest = memo.runs[0]
        assert filter_of(oldest) == (0, 0) and oldest.bloom == b""
        assert oldest.path.stat().st_size == (
            memo_lsm._HEADER.size + oldest.count * memo_lsm._RECORD.size
            + memo_lsm._FOOTER.size
        )
        assert all(filtered(run) for run in memo.runs[1:])
        tier._compact(1, 2)
        assert filter_of(memo.runs[0]) == (0, 0)
        assert all(filtered(run) for run in memo.runs[1:])
        tier._compact(0, len(memo.runs) - 1)
        (run,) = memo.runs
        assert filter_of(run) == (0, 0) and run.bloom == b""
        assert sorted(memo.snapshot()) == [(2, 12, 1), (9, 19, 1)]
        memo.close()

    def test_crash_in_a_partial_merge_leaves_inputs_live(self, tmp_path):
        injector = FaultInjector()
        memo = self.partial_merge_case(tmp_path, faults=injector)
        names = [run.path.name for run in memo.runs]
        injector.arm("memo.compact")
        with pytest.raises(SimulatedCrash):
            memo.tier._compact(1, 2)
        reopened = tiny_memo(tmp_path, budget_entries=3)
        assert [run.path.name for run in reopened.runs] == names
        assert sorted(reopened.snapshot()) == [(2, 12, 1), (9, 19, 1)]
        for oid in (1, 7):
            assert reopened.latest_stamp(oid) is None
        reopened.close()


class TestReopen:
    def test_reopen_preserves_spilled_state(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=4)
        for oid in range(30):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()  # push the RAM remainder down before "crash"
        expected = sorted(memo.snapshot())
        memo.close()
        memo2 = tiny_memo(tmp_path, budget_entries=4)
        assert sorted(memo2.snapshot()) == expected
        memo2.close()

    def test_reopen_sweeps_unnamed_runs(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=4)
        for oid in range(20):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        memo.close()
        orphan = tmp_path / f"run-99999999{RUN_SUFFIX}"
        orphan.write_bytes(b"partial garbage never named by the manifest")
        (tmp_path / MANIFEST_TMP_FILE).write_bytes(b"torn manifest temp")
        memo2 = tiny_memo(tmp_path, budget_entries=4)
        assert not orphan.exists()
        assert not (tmp_path / MANIFEST_TMP_FILE).exists()
        memo2.close()

    def test_corrupt_manifest_detected(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        for oid in range(10):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        memo.close()
        manifest = tmp_path / MANIFEST_FILE
        manifest.write_bytes(manifest.read_bytes()[:-5] + b"XXXXX")
        with pytest.raises(MemoCorruptionError):
            tiny_memo(tmp_path, budget_entries=2)

    def test_corrupt_named_run_detected(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        for oid in range(10):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        run_path = memo.runs[0].path
        memo.close()
        data = bytearray(run_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        run_path.write_bytes(bytes(data))
        with pytest.raises(MemoCorruptionError):
            tiny_memo(tmp_path, budget_entries=2)


class TestFaultInjection:
    def _filled(self, tmp_path, injector):
        memo = tiny_memo(tmp_path, budget_entries=2, faults=injector)
        for oid in range(8):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        return memo

    def test_crash_at_run_flush_loses_only_ram(self, tmp_path):
        injector = FaultInjector()
        memo = self._filled(tmp_path, injector)
        durable = sorted(memo.snapshot())
        injector.arm("memo.run_flush")
        memo.record_update(100, 50)
        with pytest.raises(SimulatedCrash):
            memo.flush_ram()
        memo2 = tiny_memo(tmp_path, budget_entries=2)
        assert sorted(memo2.snapshot()) == durable  # oid 100 died in RAM
        memo2.close()

    def test_torn_run_flush_is_swept_orphan(self, tmp_path):
        injector = FaultInjector()
        memo = self._filled(tmp_path, injector)
        durable = sorted(memo.snapshot())
        n_runs = len(memo.runs)
        injector.arm("memo.run_flush", mode="torn")
        memo.record_update(100, 50)
        with pytest.raises(SimulatedCrash):
            memo.flush_ram()
        # The torn image exists but the manifest never named it.
        assert len(list(tmp_path.glob(f"*{RUN_SUFFIX}"))) == n_runs + 1
        memo2 = tiny_memo(tmp_path, budget_entries=2)
        assert len(memo2.runs) == n_runs
        assert len(list(tmp_path.glob(f"*{RUN_SUFFIX}"))) == n_runs
        assert sorted(memo2.snapshot()) == durable
        memo2.close()

    def test_crash_at_manifest_keeps_previous(self, tmp_path):
        injector = FaultInjector()
        memo = self._filled(tmp_path, injector)
        durable = sorted(memo.snapshot())
        injector.arm("memo.manifest")
        memo.record_update(100, 50)
        with pytest.raises(SimulatedCrash):
            memo.flush_ram()
        assert (tmp_path / MANIFEST_TMP_FILE).exists()
        memo2 = tiny_memo(tmp_path, budget_entries=2)
        assert sorted(memo2.snapshot()) == durable
        memo2.close()

    def test_crash_at_compact_keeps_inputs_live(self, tmp_path):
        injector = FaultInjector()
        memo = self._filled(tmp_path, injector)
        durable = sorted(memo.snapshot())
        injector.arm("memo.compact")
        with pytest.raises(SimulatedCrash):
            # The level rule would merge a run of this table at once: the
            # spill folds it over the newest run and dies in that write,
            # before the swap.
            memo.record_update(100, 50)
            memo.record_update(101, 51)
            memo.record_update(102, 52)
            memo.flush_ram()
        assert injector.fired == "memo.compact"
        memo2 = tiny_memo(tmp_path, budget_entries=2)
        merged = {oid: (s, n) for oid, s, n in memo2.snapshot()}
        for oid, s, n in durable:
            assert merged[oid] == (s, n)
        memo2.close()

    def test_corrupt_run_flush_detected_at_reopen(self, tmp_path):
        injector = FaultInjector()
        memo = tiny_memo(tmp_path, budget_entries=2, faults=injector)
        injector.arm("memo.run_flush", mode="corrupt")
        # Caught in flight, when the next merge re-validates the damaged
        # run, or else when the reopen validates every named run.
        with pytest.raises(MemoCorruptionError):
            for oid in range(8):
                memo.record_update(oid, oid + 1)
            memo.flush_ram()
            memo.close()
            tiny_memo(tmp_path, budget_entries=2)


class TestFusedSpill:
    """A spill the level rule would merge at once is one fold of the table
    over the newest run: one run write, one manifest swap."""

    @staticmethod
    def records(rng, oids):
        """Sorted records of ``oids`` with random stamps, counts and tags."""
        out = []
        for oid in sorted(oids):
            tag = rng.choice((ABSOLUTE, DELTA, TOMBSTONE))
            stamp = rng.randrange(1, 10_000)
            n = 0 if tag == TOMBSTONE else rng.randrange(1, 4)
            out.append((oid, stamp, n, tag))
        return out

    def test_a_merged_spill_is_one_run_write_and_one_manifest(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        stats = IOStats()
        obs = Observability()
        tier = memo_lsm.RunStore(tmp_path, stats=stats)
        tier.flush(self.records(rng, range(0, 1800, 3)))  # 600 records
        tier.attach_obs(obs)
        writes = []
        real_write = memo_lsm.RunStore._durable_write

        def spy(store, path, data, points, replaces=None):
            writes.append((path.name, points))
            real_write(store, path, data, points, replaces)

        monkeypatch.setattr(memo_lsm.RunStore, "_durable_write", spy)
        seq, before = tier._next_seq, stats.memo_writes
        tier.spill(self.records(rng, range(1, 1200, 6)))  # 200: 600 <= 4 * 200
        (run,) = tier.runs
        assert writes == [
            (run.path.name, ("memo.compact", "memo.run_flush")),
            (MANIFEST_TMP_FILE, ("memo.manifest",)),
        ]
        assert tier._next_seq == seq + 1
        pages = -(-run.path.stat().st_size // memo_lsm.PAGE_BYTES)
        assert pages >= 3
        assert stats.memo_writes - before == pages + 1
        # A fused spill counts as a spill and as a merge, as the flush and
        # the merge it replaces did.
        counters = obs.registry.snapshot().counters
        assert counters["memo.spills"] == counters["memo.compactions"] == 1
        # A table the newest run outweighs is flushed as a run of its own.
        writes.clear()
        tier.spill(self.records(rng, range(2, 200, 6)))  # 33: 600+ > 4 * 33
        assert [points for _name, points in writes] == [
            ("memo.run_flush",), ("memo.manifest",),
        ]
        assert len(tier.runs) == 2
        tier.close()

    @pytest.mark.parametrize("seed", range(12))
    def test_spill_writes_what_flush_then_compact_wrote(self, tmp_path, seed):
        """Over seeded tier shapes and tables, :meth:`RunStore.spill` leaves
        the run bytes, record counts and presence screen that a flush and the
        leveled merges after it left — only the run names differ."""
        rng = random.Random(seed)
        staged = sorted((rng.randrange(1, 300) for _ in range(rng.randrange(4))), reverse=True)
        runs = [self.records(rng, rng.sample(range(600), n)) for n in staged]
        tables = [self.records(rng, rng.sample(range(600), rng.randrange(1, 90))) for _ in range(3)]
        fused = memo_lsm.RunStore(tmp_path / "fused")
        flushed = memo_lsm.RunStore(tmp_path / "flushed")
        shapes = []
        for tier in (fused, flushed):
            for records in runs:
                tier.flush(records)
        for table in tables:
            fused.spill(table)
            flushed.flush(table)
            flushed.compact()
            for tier in (fused, flushed):
                assert tier.screen_misses() == []
            shapes.append([run.count for run in fused.runs])
            assert shapes[-1] == [run.count for run in flushed.runs]
            assert [run.path.read_bytes() for run in fused.runs] == [
                run.path.read_bytes() for run in flushed.runs
            ]
            assert (fused._screen_shift, fused._screen) == (
                flushed._screen_shift, flushed._screen
            )
            assert fused.idle_tombstones() == flushed.idle_tombstones()
        for tier in (fused, flushed):
            tier.close()

    def test_a_fold_above_the_oldest_sizes_the_screen_as_a_flush(self, tmp_path):
        """At a doubling's edge: the flush grew the screen for its run's
        records before the merge folded them into fewer, and a fold that
        leaves an older run grows it alike."""
        rng = random.Random(1)
        staged = [self.records(rng, range(1000, 1230)), self.records(rng, range(20))]
        table = self.records(rng, range(10))  # 230 + 20 + 10 > 4096 / 16
        fused = memo_lsm.RunStore(tmp_path / "fused")
        flushed = memo_lsm.RunStore(tmp_path / "flushed")
        for tier in (fused, flushed):
            for records in staged:
                tier.flush(records)
            assert len(tier._screen) * 8 == 4096
        fused.spill(table)
        flushed.flush(table)
        flushed.compact()
        assert len(fused.runs) == 2 and fused.runs[0].count == 230
        assert (fused._screen_shift, fused._screen) == (
            flushed._screen_shift, flushed._screen
        )
        assert len(fused._screen) * 8 == 8192 and fused.screen_misses() == []
        for tier in (fused, flushed):
            tier.close()

    @pytest.mark.parametrize("mode", ["crash", "torn", "corrupt"])
    @pytest.mark.parametrize("point", ["memo.run_flush", "memo.compact"])
    def test_fault_in_the_fold_keeps_the_previous_run_set(self, tmp_path, point, mode):
        """The fold's write is both windows.  A crash or torn write there
        reopens on the previous manifest — the newest run still live, no
        orphan left, only the RAM table lost; a corrupted image is caught
        by the next merge's validated read and by the reopen."""
        injector = FaultInjector()
        memo = tiny_memo(tmp_path, budget_entries=16, faults=injector)
        for oid in range(8):
            memo.record_update(oid, oid + 1)
        memo.flush_ram()
        names = [run.path.name for run in memo.runs]
        durable = sorted(memo.snapshot())
        for oid in (3, 100, 101):
            memo.record_update(oid, 50 + oid)
        injector.arm(point, mode=mode)
        if mode == "corrupt":
            memo.flush_ram()
        else:
            with pytest.raises(SimulatedCrash):
                memo.flush_ram()
        assert injector.fired == point
        hits = {"memo.compact": 1, "memo.run_flush": 1}  # one write, both windows
        if mode == "corrupt":  # silent: the manifest swap goes on
            hits["memo.manifest"] = 1
        assert injector.hits == hits
        if mode == "corrupt":
            (damaged,) = memo.runs
            assert damaged.path.name not in names
            for oid in (200, 201, 202):
                memo.record_update(oid, 300 + oid)
            with pytest.raises(MemoCorruptionError):
                memo.flush_ram()  # the next fold re-validates the run
            memo.close()
            with pytest.raises(MemoCorruptionError):
                tiny_memo(tmp_path, budget_entries=16)
            return
        reopened = tiny_memo(tmp_path, budget_entries=16)
        assert [run.path.name for run in reopened.runs] == names
        assert sorted(path.name for path in tmp_path.glob(f"*{RUN_SUFFIX}")) == names
        assert not (tmp_path / MANIFEST_TMP_FILE).exists()
        assert sorted(reopened.snapshot()) == durable
        reopened.close()


class TestAccounting:
    def test_run_io_charged_to_stats(self, tmp_path):
        stats = IOStats()
        memo = tiny_memo(tmp_path, budget_entries=2, stats=stats)
        for oid in range(20):
            memo.record_update(oid, oid + 1)
        assert stats.memo_writes > 0
        before = stats.memo_reads
        for oid in range(20):
            memo.latest_stamp(oid)
        assert stats.memo_reads > before
        assert stats.snapshot().memo_total > 0
        memo.close()

    def test_defer_spills_one_run_per_scope(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=2)
        with memo.defer_spills():
            for oid in range(50):
                memo.record_update(oid, oid + 1)
            runs_inside = len(memo.runs)
        assert runs_inside == 0  # nothing spilled mid-scope
        assert len(memo.runs) == 1  # exactly one run at scope exit
        memo.close()


# ---------------------------------------------------------------------------
# Behavioural equivalence with the Section 3.1 table
# ---------------------------------------------------------------------------


class ModelMemo:
    """The paper's table as a dict, ``oid -> [S_latest, N_old]``."""

    def __init__(self):
        self.table = {}

    def record_update(self, oid, stamp):
        entry = self.table.setdefault(oid, [stamp, 0])
        entry[0] = stamp
        entry[1] += 1

    def note_cleaned(self, oid):
        self.table[oid][1] -= 1
        if self.table[oid][1] <= 0:
            del self.table[oid]

    def purge_phantoms(self, threshold, exclude=()):
        victims = [
            oid for oid, (s_latest, _n) in self.table.items()
            if s_latest < threshold and oid not in exclude
        ]
        for oid in victims:
            del self.table[oid]
        return len(victims)

    def latest_stamp(self, oid):
        return self.table[oid][0] if oid in self.table else None

    def snapshot(self):
        return sorted((oid, s, n) for oid, (s, n) in self.table.items())


def agrees_with_model(memo, model, oids):
    """Every read of ``memo`` answers as the dict model does."""
    assert sorted(memo.snapshot()) == model.snapshot()
    assert len(memo) == len(model.table)
    assert memo.total_n_old() == sum(n for _s, n in model.table.values())
    assert memo.size_bytes() == len(model.table) * UM_ENTRY_BYTES
    for oid in oids:
        s_latest = model.latest_stamp(oid)
        assert memo.latest_stamp(oid) == s_latest
        entry = memo.get(oid)
        if s_latest is None:
            assert entry is None
            assert memo.check_status(oid, 1) == LATEST
        else:
            assert entry.as_tuple() == (oid, *model.table[oid])
            assert memo.check_status(oid, s_latest) == LATEST
            assert memo.is_obsolete(oid, s_latest - 1)


def apply_ops(ops, *memos):
    """Drive one operation sequence into every memo, each probed and
    purged alike; an oid is cleaned only while it has an entry."""
    stamp = 0
    for kind, oid in ops:
        if kind == "update":
            stamp += 1
            for memo in memos:
                memo.record_update(oid, stamp)
        elif kind == "purge":
            purged = {memo.purge_phantoms(max(0, stamp - 5)) for memo in memos}
            assert len(purged) == 1
        else:
            latest = {memo.latest_stamp(oid) for memo in memos}
            assert len(latest) == 1
            if kind == "clean" and latest != {None}:
                for memo in memos:
                    memo.note_cleaned(oid)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["update", "clean", "purge", "probe"]),
        st.integers(min_value=0, max_value=24),
    ),
    max_size=150,
)


class TestDifferentialEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS, budget_entries=st.integers(min_value=1, max_value=6))
    def test_spill_probe_compact_recover_equivalence(
        self, tmp_path_factory, ops, budget_entries
    ):
        """Any interleaving of the paper's memo operations leaves a memo
        on a tier answering exactly as the dict model — CheckStatus on
        every oid, the aggregate entries, the sizes — including after a
        close/reopen cycle; and alike with the presence screen blinded
        (every oid in one slot: nothing is ever ruled out, so every drained
        entry is tombstoned and every RAM miss a ``DELTA``), which decides
        what the tier writes and never what it answers."""
        for screen_mult in (memo_lsm._SCREEN_MULT, 0):
            with mock.patch.object(memo_lsm, "_SCREEN_MULT", screen_mult):
                tmp = tmp_path_factory.mktemp("memolsm")
                spill = tiny_memo(tmp, budget_entries)
                model = ModelMemo()
                apply_ops(ops, spill, model)
                agrees_with_model(spill, model, range(25))
                # Crash model: RAM dies, spilled runs survive.  Push RAM
                # down first so the reopened memo must equal the full state.
                spill.flush_ram()
                spill.close()
                reopened = tiny_memo(tmp, budget_entries)
                agrees_with_model(reopened, model, range(25))
                reopened.close()

    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_unreached_budget_is_the_bare_table(self, tmp_path_factory, ops):
        """A tier whose budget is never reached costs nothing: no run
        file, no memo I/O, and state and tallies equal the bare table's
        after any operation sequence."""
        tmp = tmp_path_factory.mktemp("memolsm-idle")
        stats = IOStats()
        tiered = SpillingUpdateMemo(tmp, stats=stats)
        bare = UpdateMemo()
        apply_ops(ops, tiered, bare)
        assert sorted(tiered.snapshot()) == sorted(bare.snapshot())
        tallies = ("lookup_count", "hit_count")
        assert [getattr(tiered, t) for t in tallies] == [
            getattr(bare, t) for t in tallies
        ]
        assert tiered.run_probe_count == tiered.bloom_fp_count == 0
        assert tiered.runs == () and not list(tmp.glob(f"*{RUN_SUFFIX}"))
        # Only the purge's manifest rewrite touches the disk at all.
        purges = sum(kind == "purge" for kind, _oid in ops)
        assert (stats.memo_reads, stats.memo_writes) == (0, purges)
        tiered.close()


# ---------------------------------------------------------------------------
# One implementation, one format
# ---------------------------------------------------------------------------


def test_spilling_memo_is_a_constructor_only():
    callables = [
        name for name, value in vars(SpillingUpdateMemo).items()
        if callable(value) or isinstance(value, (property, staticmethod, classmethod))
    ]
    assert callables == ["__init__"]


def test_flushed_run_described_as_its_file_loads(tmp_path):
    """A flush describes its run from the image it wrote — exactly what
    loading the file back yields."""
    memo = tiny_memo(tmp_path, budget_entries=2)
    for oid in range(400):
        memo.record_update(oid * 3, oid + 1)
    memo.flush_ram()
    for run in memo.runs:
        loaded = load_run(run.path)
        for field in ("count", "min_oid", "max_oid", "m_bits", "k", "bloom", "fences"):
            assert getattr(run, field) == getattr(loaded, field), field
        loaded.close()
    memo.close()


def test_purge_charges_its_run_scan(tmp_path):
    """Phantom inspection above a tier folds every run — a full scan,
    charged like the checkpoint snapshot's."""
    stats = IOStats()
    memo = tiny_memo(tmp_path, budget_entries=4, stats=stats)
    for oid in range(40):
        memo.record_update(oid, oid + 1)
    run_pages = sum(run.pages for run in memo.runs)
    assert run_pages >= 2
    before = stats.memo_reads
    assert memo.purge_phantoms(11) == 10
    assert stats.memo_reads - before == run_pages
    memo.close()


def scripted_ops(memo):
    """A fixed script over every mutating memo operation; returns the
    dict model it ends in."""
    rng = random.Random(20240607)
    model = ModelMemo()
    stamp = 0

    def update(oid):
        nonlocal stamp
        stamp += 1
        memo.record_update(oid, stamp)
        model.record_update(oid, stamp)

    for step in range(600):
        roll = rng.random()
        oid = rng.randrange(48)
        if roll < 0.55:
            update(oid)
        elif roll < 0.85:
            if oid in model.table:
                memo.note_cleaned(oid)
                model.note_cleaned(oid)
        elif roll < 0.90:
            with memo.defer_spills():
                for other in range(oid, oid + 9):
                    update(other)
        elif roll < 0.97:
            oids = [rng.randrange(48) for _ in range(10)]
            stamps = [
                model.table[o][0] - rng.randrange(2) if o in model.table else 0
                for o in oids
            ]
            for slot in memo.sweep_obsolete(oids, stamps, 4):
                model.note_cleaned(oids[slot])
        elif step > 300:
            memo.purge_phantoms(stamp - 120, exclude={3, 5})
            model.purge_phantoms(stamp - 120, exclude={3, 5})
    return model


#: sha256 of every file ``scripted_ops`` + ``flush_ram`` leaves behind, and
#: the tallies it ends with; they move with anything that changes what the
#: tier writes.  Re-recorded when compaction became leveled: the script
#: now ends on two runs (56 + 1 records) where size-tiering left nine (115),
#: ``memo_writes`` rose 620 -> 716 (the merges' rewrites) and ``found_pages``
#: (``run_probes - bloom_fp``, the page reads that found a record) fell
#: 688 -> 491, with ``lookups`` / ``hits`` untouched.  Last re-recorded when
#: the oldest run lost its Bloom filter: only that run's digest
#: (``run-00000352``, 56 records, now written with ``m = k = 0``) moved; its
#: image shrank by its 70 filter bytes, within the same 4 KiB page, so the
#: tallies and the false-positive ceiling stand.  Last re-recorded when a
#: spill the level rule merges at once became one fold of the table over
#: the newest run: the same two run images under new names (``run-00000352``
#: / ``353`` -> ``239`` / ``240``: no run in between takes a number), so only
#: the manifest's digest moved, and ``memo_writes`` fell 716 -> 490 (no
#: throw-away run and its manifest per spill); the other tallies stand.
#: ``fixtures/memo_runs_parent`` is what the script wrote on the commit
#: before the two memo classes became one.
SCRIPT_DIGESTS = {
    "memo.manifest": "5fc23ac489b2f9f3a7fef30b13bfa51a3dcae2a110b891abf666806bff7b3c9f",
    "run-00000239.run": "2ece99586f1b0b132d8becfe6645491b430f7ba6ae632d6ebb38e3d4f03d23e2",
    "run-00000240.run": "bf047fb479105b865ad8f9bf8e92cbaf18b940424d5875dc76103871b84d5412",
}
SCRIPT_TALLIES = {
    "memo_writes": 490, "lookups": 412, "hits": 346, "found_pages": 491,
}
SCRIPT_BLOOM_FP_CEILING = 6


def script_memo(directory, **kwargs):
    return tiny_memo(directory, budget_entries=3, n_buckets=4, **kwargs)


def run_script(directory):
    """``scripted_ops`` + ``flush_ram`` on a fresh memo: its tallies, the
    I/O it was charged, the digests of what it left on disk and how many
    probes the screen answered."""
    stats = IOStats()
    memo = script_memo(directory, stats=stats)
    agrees_with_model(memo, scripted_ops(memo), ())
    memo.flush_ram()
    memo.close()
    tallies = {
        name: getattr(memo, name)
        for name in ("lookup_count", "hit_count", "run_probe_count", "bloom_fp_count")
    }
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.iterdir()
    }
    return tallies, stats.snapshot(), digests, memo.tier.screen_reject_count


def test_fixed_script_writes_the_recorded_bytes(tmp_path):
    tallies, io, digests, _ = run_script(tmp_path)
    assert {
        "memo_writes": io.memo_writes, "lookups": tallies["lookup_count"],
        "hits": tallies["hit_count"],
        "found_pages": tallies["run_probe_count"] - tallies["bloom_fp_count"],
    } == SCRIPT_TALLIES
    assert tallies["bloom_fp_count"] <= SCRIPT_BLOOM_FP_CEILING
    assert digests == SCRIPT_DIGESTS


def test_directory_written_before_the_merge_opens(tmp_path):
    """``fixtures/memo_runs_parent`` is what the same script left behind
    on the commit before the merge."""
    shutil.copytree(PARENT_RUNS, tmp_path / "memo")
    memo = script_memo(tmp_path / "memo")
    assert len(memo.runs) == 9  # the parent's size-tiered shape, as written
    assert memo.tier.screen_misses() == []  # rebuilt from the parent's bytes
    scratch = script_memo(tmp_path / "scratch")
    agrees_with_model(memo, scripted_ops(scratch), range(60))
    memo.close()
    scratch.close()


# ---------------------------------------------------------------------------
# The presence screen (RAM only) and the in-page search
# ---------------------------------------------------------------------------


def test_screen_decides_bytes_and_reads_never_answers(tmp_path, monkeypatch):
    """The same script with and without a working screen.  The screen now
    decides what is written (a clear bit deletes where a tombstone was
    spilled, and writes ``ABSOLUTE`` where a ``DELTA`` was), so the files
    may differ; no answer, ``lookup_count`` or ``hit_count`` does, and the
    screened run writes no more pages and reads no more than the blind one."""
    seen, seen_io, seen_files, rejects = run_script(tmp_path / "screened")
    with monkeypatch.context() as patch:
        # Every oid in one slot: once a run exists the screen rejects
        # nothing and rules nothing out — every drained entry is
        # tombstoned, every RAM miss a ``DELTA``.
        patch.setattr(memo_lsm, "_SCREEN_MULT", 0)
        blind, blind_io, _files, no_rejects = run_script(tmp_path / "blind")
    assert no_rejects == 0 < rejects
    assert seen_files == SCRIPT_DIGESTS
    # ``run_script`` has held both to the dict model: the answers agree.
    for tally in ("lookup_count", "hit_count"):
        assert seen[tally] == blind[tally]
    assert seen_io.memo_writes <= blind_io.memo_writes
    assert seen_io.memo_reads <= blind_io.memo_reads
    assert seen["run_probe_count"] <= blind["run_probe_count"]
    # The oldest run has no filter to back a blinded screen up: the screen
    # spares page reads that no filter would.
    assert seen["bloom_fp_count"] < blind["bloom_fp_count"]


def test_the_oldest_run_is_never_hashed_for(tmp_path, monkeypatch):
    """On a one-run tier every probe past the screen ends at the oldest
    run, which has no filter: no probe hashes its oid.  The screen is
    blinded (every oid in one slot), so absent oids inside the run's key
    range pass it too — and pay the run a page read instead of a filter
    test."""
    monkeypatch.setattr(memo_lsm, "_SCREEN_MULT", 0)
    memo = SpillingUpdateMemo(tmp_path)
    for oid in range(0, 400, 2):
        memo.record_update(oid, oid + 1)
    memo.flush_ram()
    assert len(memo.runs) == 1
    hashed = []
    real_hashes = memo_lsm._bloom_hashes
    monkeypatch.setattr(
        memo_lsm, "_bloom_hashes", lambda oid: hashed.append(oid) or real_hashes(oid)
    )
    oids = list(range(1, 399))  # held (even) and absent (odd), in turn
    latest = [oid + 1 if oid % 2 == 0 else 0 for oid in oids]
    empty_reads = memo.bloom_fp_count
    for oid, stamp in zip(oids, latest):
        assert memo.latest_stamp(oid) == (stamp or None)
    assert memo.filter_latest(oids, latest) == list(range(len(oids)))
    stale = [stamp - (oid % 8 == 0) for oid, stamp in zip(oids, latest)]
    swept = memo.sweep_obsolete(oids, stale, len(oids))
    assert [oids[slot] for slot in swept] == list(range(8, 399, 8))
    assert hashed == []
    assert memo.bloom_fp_count - empty_reads == 3 * 199  # one per absent oid a pass
    memo.close()


@pytest.mark.parametrize("seed", range(6))
def test_screen_sound_under_seeded_interleavings(tmp_path, seed, monkeypatch):
    """Whatever feeds, grows, clears or rebuilds the screen — spills
    (budget, ``defer_spills`` exit, ``flush_ram``), compactions, phantom
    purges, ``restore``, close-and-reopen — after every step each oid of
    each live run passes it, and the memo answers as the dict model.  And
    every compaction leaves in the run it writes no tombstone or delta that
    nothing below needs, bar what an older Bloom filter admits falsely;
    one that includes the oldest run leaves none anywhere and an exact
    screen.  After every spill the runs are leveled: each more than
    ``LEVEL_RATIO`` times the next newer one."""
    merges = []
    real_compact = memo_lsm.RunStore._compact
    real_flush_ram = UpdateMemo.flush_ram

    def checked_compact(tier, i, j, table=()):
        n_runs = len(tier.runs)
        real_compact(tier, i, j, table)
        if len(tier.runs) == n_runs - (j - i):  # it wrote a run, now at i
            idle = [oid for at, oid in tier.idle_tombstones() if at == i]
            assert all(memo_lsm._admitted(tier.runs[:i], oid) for oid in idle)
            merges.append(i)
        if i == 0:
            assert tier.idle_tombstones() == [] == tier.screen_misses()
            slots = {
                memo_lsm._screen_slot(rec[0], tier._screen_shift)
                for run in tier.runs for rec in run.iter_records()
            }
            assert sum(bin(byte).count("1") for byte in tier._screen) == len(slots)

    def checked_flush_ram(memo):
        real_flush_ram(memo)
        counts = [run.count for run in memo.runs]
        assert all(
            older > memo_lsm.LEVEL_RATIO * newer
            for older, newer in zip(counts, counts[1:])
        ), counts

    monkeypatch.setattr(memo_lsm.RunStore, "_compact", checked_compact)
    monkeypatch.setattr(UpdateMemo, "flush_ram", checked_flush_ram)
    rng = random.Random(seed)
    memo = script_memo(tmp_path)
    model = ModelMemo()
    stamp = 0
    seen_runs = rejected = 0

    def update(oid):
        nonlocal stamp
        stamp += 1
        memo.record_update(oid, stamp)
        model.record_update(oid, stamp)

    for step in range(500):
        roll = rng.random()
        oid = rng.randrange(60)
        if roll < 0.50:
            update(oid)
        elif roll < 0.72:
            if oid in model.table:
                memo.note_cleaned(oid)
                model.note_cleaned(oid)
        elif roll < 0.80:
            oids = [rng.randrange(60) for _ in range(12)]
            stamps = [
                model.table[o][0] - rng.randrange(2) if o in model.table else 0
                for o in oids
            ]
            for slot in memo.sweep_obsolete(oids, stamps, 5):
                model.note_cleaned(oids[slot])
        elif roll < 0.86:
            with memo.defer_spills():
                for other in range(oid, oid + 9):
                    update(other)
        elif roll < 0.90:
            memo.flush_ram()
        elif roll < 0.93:
            memo.purge_phantoms(stamp - 80, exclude={3, 5})
            model.purge_phantoms(stamp - 80, exclude={3, 5})
        elif roll < 0.96:
            kept = [e for e in model.snapshot() if rng.random() < 0.7]
            memo.restore(kept)
            model.table = {o: [s, n] for o, s, n in kept}
        else:
            memo.flush_ram()  # the table dies with the process
            rejected += memo.tier.screen_reject_count
            memo.close()
            memo = script_memo(tmp_path)
        assert memo.tier.screen_misses() == [], step
        seen_runs = max(seen_runs, len(memo.runs))
        if step % 25 == 0:
            agrees_with_model(memo, model, range(70))
    agrees_with_model(memo, model, range(70))
    assert seen_runs >= 3 and rejected + memo.tier.screen_reject_count > 0
    assert any(merges)  # some of them above the oldest run
    memo.close()


def test_screen_doubling_keeps_every_earlier_oid(tmp_path):
    memo = tiny_memo(tmp_path, budget_entries=64)
    tier = memo.tier
    sizes = [len(tier._screen)]
    for oid in range(0, 6000, 3):
        memo.record_update(oid, oid + 1)
        if len(memo._table) > 32:
            spill_unmerged(memo)
        if len(tier._screen) != sizes[-1]:
            sizes.append(len(tier._screen))
            assert tier.screen_misses() == []
    assert len(memo.runs) == 60  # no compaction: every run was noted once
    assert len(sizes) >= 6
    assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
    # Sized by the records of the live runs, to the power of two above.
    want = SCREEN_BITS_PER_RECORD * sum(run.count for run in memo.runs)
    assert want <= len(tier._screen) * 8 < 2 * want
    for oid in range(0, 6000, 3):
        assert memo.latest_stamp(oid) == oid + 1
        assert memo.latest_stamp(oid + 1) is None  # in range, in no run
    # A doubling gives every set bit a twin, so six of them cost some
    # sharpness — still four absent oids in five never reach a Bloom filter.
    assert 1600 <= tier.screen_reject_count < 2000
    memo.close()


def test_compaction_of_every_run_rebuilds_an_exact_screen(tmp_path):
    memo = tiny_memo(tmp_path, budget_entries=2000)
    tier = memo.tier
    for oid in range(0, 3000, 3):
        memo.record_update(oid, oid + 1)
    spill_unmerged(memo)
    for oid in range(0, 3000, 6):
        memo.note_cleaned(oid)  # tombstones: dropped by the merge below
    spill_unmerged(memo)
    blurred = sum(bin(byte).count("1") for byte in tier._screen)
    tier._compact(1, len(memo.runs) - 1)  # not every run: screen untouched
    assert sum(bin(byte).count("1") for byte in tier._screen) == blurred
    tier._compact(0, len(memo.runs) - 1)
    (run,) = memo.runs
    assert run.count == 500 and tier.screen_misses() == []
    # Exactly the bits of the surviving oids, on a table sized for them.
    slots = {memo_lsm._screen_slot(oid, tier._screen_shift) for oid in range(3, 3000, 6)}
    assert sum(bin(byte).count("1") for byte in tier._screen) == len(slots) < blurred
    assert len(tier._screen) * 8 == 8192 >= SCREEN_BITS_PER_RECORD * run.count
    probes, rejects = memo.run_probe_count, tier.screen_reject_count
    for oid in range(0, 3000, 6):
        assert memo.latest_stamp(oid) is None  # a dropped oid: no stale bit
    assert memo.run_probe_count == probes
    assert tier.screen_reject_count == rejects + 500
    memo.close()


def test_screen_exact_at_extreme_oids(tmp_path):
    extremes = [0, -1, 2**63 - 1, -(2**63 - 1)]
    memo = tiny_memo(tmp_path, budget_entries=2)
    for stamp, oid in enumerate(extremes, start=1):
        memo.record_update(oid, stamp)
    memo.flush_ram()
    memo.close()
    memo = tiny_memo(tmp_path, budget_entries=2)
    assert memo.tier.screen_misses() == []
    for stamp, oid in enumerate(extremes, start=1):
        assert memo.latest_stamp(oid) == stamp
    for oid in (1, -2, 2**63 - 2, -(2**63 - 2), 2**62):
        assert memo.latest_stamp(oid) is None
    memo.close()


@pytest.mark.parametrize("clear", ["restore", "purge"])
def test_reset_empties_the_screen(tmp_path, clear):
    memo = tiny_memo(tmp_path, budget_entries=4)
    tier = memo.tier
    floor = tier.resident_bytes()
    assert floor == len(tier._screen) and not any(tier._screen)
    for oid in range(300):
        memo.record_update(oid, oid + 1)
    assert any(tier._screen)
    # Screen + fences + the Bloom filters above the oldest run: well past
    # the 1.25 B per record a filter on every run would take.
    assert tier.resident_bytes() > floor + 2 * sum(r.count for r in memo.runs)
    if clear == "restore":
        memo.restore([])
    else:
        assert memo.purge_phantoms(10**9) == 300
    assert memo.runs == () and not any(tier._screen)
    assert tier.resident_bytes() == floor
    assert memo.latest_stamp(7) is None
    memo.close()


def test_tier_gauges_report_screen_and_resident_ram(tmp_path):
    obs = Observability(level="metrics")
    memo = tiny_memo(tmp_path, budget_entries=4)
    memo.attach_obs(obs)
    for oid in range(0, 200, 2):
        memo.record_update(oid, oid + 1)
    memo.flush_ram()
    for oid in range(1, 200, 2):
        assert memo.latest_stamp(oid) is None
    snap = obs.registry.snapshot()
    gauges = snap.gauges
    # A tally, published as a counter from the attach (here: the tier's
    # birth).
    assert snap.counters["memo.screen_rejects"] == (
        memo.tier.screen_reject_count
    ) > 80
    assert gauges["memo.tier_ram_bytes"] == memo.tier.resident_bytes()
    # The tier's own space amplification: run records per live entry.
    assert gauges["memo.run_records"] == sum(run.count for run in memo.runs)
    assert gauges["memo.run_records"] / gauges["memo.entries"] == 1.0
    memo.close()


def test_probe_page_finds_every_oid_and_no_gap(tmp_path):
    """The C search over the page's oid column against the records
    themselves: every stored oid (so the first and last record of every
    page), every gap between two stored oids, below the first fence and
    past the last record — on a multi-page run and on a 1-record run."""
    for count in (1, 170, 171, 400):
        records = [(7 + oid * 3, oid + 1, 1 + oid % 5, oid % 3) for oid in range(count)]
        path = tmp_path / f"run-{count}{RUN_SUFFIX}"
        path.write_bytes(_Run.encode(records, filtered=count % 2 == 0))
        run = load_run(path)
        assert run.pages == -(-count // 170) == len(run.fences)
        by_oid = {rec[0]: rec for rec in records}
        for oid in range(records[0][0] - 3, records[-1][0] + 4):
            assert run.probe_page(oid) == by_oid.get(oid), (count, oid)
        run.close()


# ---------------------------------------------------------------------------
# Settled leaves: a leaf swept whole since the run set last changed is
# cleaned and filtered from the RAM table alone (docs/MEMO.md)
# ---------------------------------------------------------------------------


class _NeverSettled(dict):
    """A tree's mark table that never yields a mark: every sweep and query
    filter above the tier takes the probing path."""

    def get(self, key, default=None):
        return None


def settled_replay(directory, settled, seed=5, n=2000, batches=40):
    """A seeded batched workload, with queries after every batch and a few
    single updates (sweeps that may spill in mid-sweep), on a spilled
    Option-III tree; everything it leaves behind that can be compared."""
    tree = build_rum_tree(
        node_size=2048, recovery_option="III", memo_dir=str(directory),
        memo_spill_budget=480,  # 20 entries: the memo keeps spilling
    )
    if not settled:
        tree._settled = _NeverSettled()
    objects = default_network_workload(n, moving_distance=0.02, seed=seed)
    windows = RangeQueryGenerator(side=0.05, seed=seed + 1)
    ops = [("insert", oid, rect) for oid, rect in objects.initial()]
    for i in range(0, len(ops), 512):
        tree.apply_batch(ops[i:i + 512])
    answers = []
    for step in range(batches):
        moves = [objects.next_update() for _ in range(64)]
        tree.apply_batch([("update", oid, new) for oid, _old, new in moves])
        answers.extend(
            sorted(tree.search(windows.next_query()), key=lambda hit: hit[0])
            for _ in range(6)
        )
        if step % 10 == 3:
            for _ in range(20):
                tree.update_object(*objects.next_update())
    tree.buffer.flush()
    tree.check_invariants()
    digest = hashlib.sha256()
    disk = tree.buffer.disk
    for page_id in disk.page_ids():
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(disk.peek(page_id))
    outcome = {
        "pages": digest.hexdigest(),
        "answers": answers,
        "removed": (tree.memo.clean_count, tree.cleaner.entries_removed),
        "garbage_ratio": tree.garbage_ratio(n),
        "memo": tree.memo.snapshot(),
        "lookups": tree.memo.lookup_count,
    }
    tree.memo.close()
    return outcome, tree.stats.snapshot(), tree.memo.tier


def test_settled_leaves_change_nothing_but_run_reads(tmp_path):
    """The settled path answers every sweep and query filter exactly as
    the probing path does — same leaf pages, removals, garbage, answers,
    memo and I/O — and reads no more run pages."""
    settled, io_settled, tier = settled_replay(tmp_path / "settled", True)
    probing, io_probing, tier_probing = settled_replay(tmp_path / "probing", False)
    assert settled == probing
    assert replace(io_settled, memo_reads=0) == replace(io_probing, memo_reads=0)
    assert io_settled.memo_reads <= io_probing.memo_reads
    # Not vacuous: the settled path answered misses the screen would have.
    assert tier.screen_reject_count < tier_probing.screen_reject_count


def marked_tree(tmp_path):
    """A spilled tree whose sweeps run only when a test asks (no touch
    cleaning, no tokens) and whose table never spills by itself: 300
    point objects, their inserts spilled as one run."""
    tree = build_rum_tree(
        node_size=512, memo_dir=str(tmp_path / "memo"),
        clean_upon_touch=False, inspection_ratio=0.0,
    )
    rng = random.Random(41)
    tree.apply_batch([
        ("insert", oid, Rect.from_point(rng.random(), rng.random()))
        for oid in range(300)
    ])
    tree.memo.flush_ram()
    return tree


def leaf_oids(tree, page):
    return list(tree.buffer.peek_node(page).id_columns()[0])


def settle(tree, page):
    """One token step on ``page`` with spills held, as inside a batch."""
    with tree.memo.defer_spills():
        return tree.clean_at(page)[1]


def live_oids(tree):
    return {oid for oid, _rect in tree.search(Rect(0.0, 0.0, 1.0, 1.0))}


@pytest.mark.parametrize("spill", ["flush", "fold"])
def test_a_spill_unsettles_every_leaf(tmp_path, spill):
    """A spill between two batches moves the RAM record that made a
    settled leaf's entry obsolete into a run: the version the leaf was
    settled at is gone, so both the sweep and the query probe again."""
    tree = marked_tree(tmp_path)
    page = tree.leaf_ring()[0]
    assert settle(tree, page) == 0
    tier = tree.memo.tier
    assert tree._settled[page] == tier.version
    victim = leaf_oids(tree, page)[0]
    tree.delete_object(victim)
    if spill == "fold":  # a table the newest run does not outweigh 4:1
        for oid in range(1000, 1100):
            tree.delete_object(oid)
    compactions = tier.compaction_count
    tree.memo.flush_ram()
    assert (tier.compaction_count > compactions) == (spill == "fold")
    assert victim not in live_oids(tree)
    assert settle(tree, page) == 1
    assert victim not in leaf_oids(tree, page)


def test_a_dissolved_leafs_page_comes_back_unsettled(tmp_path):
    """A leaf settled, then dissolved: its page comes back as a split's
    new sibling holding obsolete entries whose records are in a run.  The
    sibling must not inherit the mark."""
    tree = marked_tree(tmp_path)
    ring = tree.leaf_ring()
    full, doomed = ring[0], ring[10]
    # The entries of `full` turn obsolete, their records spilled to a run.
    spots = [entry.rect for entry in tree.buffer.peek_node(full).entries]
    stale = set(leaf_oids(tree, full))
    for oid in stale:
        tree.delete_object(oid)
    tree.memo.flush_ram()
    version = tree.memo.tier.version
    assert settle(tree, doomed) == 0
    assert tree._settled[doomed] == version
    # Dissolve `doomed`: all but min_leaf - 1 of its objects deleted (RAM
    # records), then swept; the survivors are reinserted elsewhere.
    victims = leaf_oids(tree, doomed)[tree.min_leaf - 1:]
    for oid in victims:
        tree.delete_object(oid)
    assert settle(tree, doomed) == len(victims)
    assert doomed not in tree.leaf_ring()
    # Split `full` (its garbage kept: no touch cleaning) by inserting new
    # objects where its stale ones lie; the page it allocates is `doomed`'s.
    for oid in range(5000, 5040):
        tree.insert_object(oid, spots[oid % len(spots)])
        if doomed in tree.leaf_ring():
            break
    assert tree.memo.tier.version == version  # no spill in between
    reused = set(leaf_oids(tree, doomed)) & stale
    assert reused  # the sibling holds obsolete entries
    assert not reused & live_oids(tree)
    assert settle(tree, doomed) == len(reused)
    assert not set(leaf_oids(tree, doomed)) & stale


def test_a_sweep_stopped_by_its_budget_leaves_the_leaf_unsettled(tmp_path):
    """A sweep that stops at its budget has left obsolete entries behind:
    it must not settle the leaf, or their run records go unread."""
    tree = marked_tree(tmp_path)
    page = tree.leaf_ring()[0]
    doomed = leaf_oids(tree, page)[:3]
    for oid in doomed:
        tree.delete_object(oid)
    tree.memo.flush_ram()
    with tree.memo.defer_spills(), tree.buffer.operation():
        leaf = tree.buffer.get_node(page)
        assert tree.clean_leaf(leaf, keep_at_least=len(leaf) - 1) == 1
    assert page not in tree._settled
    assert not set(doomed) & live_oids(tree)
    assert settle(tree, page) == 2


def test_crash_forgets_every_mark_and_recovery_answers_right(tmp_path):
    """``crash()`` drops every mark (its memo reset has moved the version
    on as well); the recovered tree's sweeps and queries are exact."""
    tree = build_rum_tree(
        node_size=512, recovery_option="III", memo_dir=str(tmp_path / "memo"),
        memo_spill_budget=1024,
    )
    rng = random.Random(43)
    positions = {}
    for step in range(12):
        ops = []
        for _ in range(64):
            oid = rng.randrange(400)
            positions[oid] = Rect.from_point(rng.random(), rng.random())
            ops.append(("update", oid, positions[oid]))
        tree.apply_batch(ops)
    assert tree._settled
    tree.crash()
    assert tree._settled == {}
    recover_option_iii(tree)
    for step in range(6):
        ops = []
        for _ in range(64):
            oid = rng.randrange(400)
            positions[oid] = Rect.from_point(rng.random(), rng.random())
            ops.append(("update", oid, positions[oid]))
        tree.apply_batch(ops)
    assert {oid: rect for oid, rect in tree.search(Rect(0.0, 0.0, 1.0, 1.0))} == positions
    tree.cleaner.run_full_cycle()
    assert tree.garbage_count() == 0
    tree.memo.close()


# ---------------------------------------------------------------------------
# Mapped runs: a run's file is mapped read-only at first use and released
# before anything unlinks it
# ---------------------------------------------------------------------------


def runs_in(directory):
    """Every live :class:`_Run` object describing a file in ``directory``
    (in the tier or not)."""
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, _Run) and obj.path.parent == Path(directory)
    ]


def open_run_files(directory):
    """Run files of ``directory`` this process holds a descriptor on (a map
    holds one), or ``None`` where the platform does not list them."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        return None
    held = set()
    for fd in fds.iterdir():
        try:
            target = Path(os.readlink(fd))
        except OSError:
            continue
        if target.parent == Path(directory) and target.name.endswith(RUN_SUFFIX):
            held.add(target.name)
    return held


class TestMappedRuns:
    def probed_memo(self, tmp_path):
        memo = tiny_memo(tmp_path, budget_entries=8)
        for oid in range(200):
            memo.record_update(oid, oid + 1)
        for oid in range(0, 200, 7):
            memo.latest_stamp(oid)
        assert any(run._map is not None for run in memo.runs)
        return memo

    def test_close_releases_every_map(self, tmp_path):
        memo = self.probed_memo(tmp_path)
        memo.close()
        assert all(run._map is None for run in runs_in(memo.directory))
        assert open_run_files(memo.directory) in (None, set())
        # Reopened on demand: a probe after close maps the run again.
        assert memo.latest_stamp(3) == 4
        memo.close()

    @pytest.mark.parametrize("change", ["fold", "merge", "reset"])
    def test_a_run_is_released_before_its_file_goes(self, tmp_path, monkeypatch, change):
        memo = self.probed_memo(tmp_path)
        if change == "merge":  # stage a run the level rule would merge
            with memo.defer_spills():
                for oid in range(300, 340):
                    memo.record_update(oid, oid)
                spill_unmerged(memo)
            for oid in range(300, 340):
                memo.latest_stamp(oid)
        before = list(memo.runs)
        assert all(run._map is not None for run in before[-1:])
        unlinked = []
        real_unlink = Path.unlink

        def unlink(path, missing_ok=False):
            if path.suffix == RUN_SUFFIX:
                unlinked.append(path.name)
                assert not [r for r in runs_in(path.parent)
                            if r.path == path and r._map is not None]
            return real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", unlink)
        compactions = memo.tier.compaction_count
        if change == "fold":
            with memo.defer_spills():
                for oid in range(0, 200, 3):
                    memo.record_update(oid, 1000 + oid)
            assert memo.tier.compaction_count > compactions
        elif change == "merge":
            memo.tier.compact()
            assert memo.tier.compaction_count > compactions
        else:
            memo.tier.reset()
        # A cascade may write and merge away a run of its own as well.
        gone = [run for run in before if run not in memo.runs]
        assert gone and {run.path.name for run in gone} <= set(unlinked)
        assert not set(unlinked) & {run.path.name for run in memo.runs}
        assert all(run._map is None for run in gone)
        assert open_run_files(memo.directory) in (
            None, {run.path.name for run in memo.runs if run._map is not None}
        )
        memo.close()

    def test_a_record_iterator_does_not_hold_the_map(self, tmp_path):
        memo = self.probed_memo(tmp_path)
        run = memo.runs[-1]
        records = run.iter_records()
        first = next(records)
        memo.close()  # no BufferError: the iterator holds a copy
        assert run._map is None
        assert [first, *records] == sorted(memo.tier.fold_runs([run], False).values())
