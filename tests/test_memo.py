"""Tests for the Update Memo, the stamp counter, and CheckStatus.

Every Section 3.1 behaviour is checked twice: on the bare table (the
``Test*`` classes) and, through the ``Test*Tiered`` subclasses, on the
same table above a run tier whose budget is three entries — so the very
same assertions hold on both sides of a spill and of the merges after it.  (Subclasses rather than ``parametrize`` so the test ids of the
bare table stay what they were.)
"""

import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import racecheck
from repro.core.memo import (
    DELTA, LATEST, N_BUCKETS, OBSOLETE, TOMBSTONE, UMEntry, UpdateMemo,
)
from repro.core.memo_lsm import RunStore
from repro.core.stamp import StampCounter
from repro.obs import Observability
from repro.storage.iostats import IOStats
from repro.storage.wal import UM_ENTRY_BYTES


class MemoCases:
    """``self.new_memo()`` builds the memo under test."""

    TIERED = False

    def setup_method(self):
        self._memos, self._dirs = [], []

    def teardown_method(self):
        for memo in self._memos:
            memo.close()
        for tmp in self._dirs:
            tmp.cleanup()

    def new_memo(self):
        tier = None
        if self.TIERED:
            self._dirs.append(tempfile.TemporaryDirectory(prefix="memo-tier-"))
            tier = RunStore(self._dirs[-1].name, spill_budget=3 * UM_ENTRY_BYTES)
        self._memos.append(UpdateMemo(tier))
        return self._memos[-1]


# Hypothesis wants one test function per executing class, so the two
# property tests are declared per class around a shared ``check_*`` body.
_ANY_ENTRIES = given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=-3, max_value=5),
        ),
        max_size=60,
        unique_by=lambda e: e[0],
    ),
)
_ANY_OPS = given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.sampled_from(["update", "clean"]),
        ),
        max_size=200,
    )
)


class TestStampCounter:
    def test_monotonic_unique(self):
        counter = StampCounter()
        stamps = [counter.next() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 100

    def test_current_is_next_unconsumed(self):
        counter = StampCounter(start=5)
        assert counter.current == 5
        assert counter.next() == 5
        assert counter.current == 6

    def test_restore(self):
        counter = StampCounter()
        counter.next()
        counter.restore(1000)
        assert counter.next() == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StampCounter(start=-1)
        with pytest.raises(ValueError):
            StampCounter().restore(-5)

    def test_thread_safety(self):
        counter = StampCounter()
        results = []
        lock = threading.Lock()

        def worker():
            local = [counter.next() for _ in range(500)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 8 * 500  # all unique


class TestUpdateMemoBasics(MemoCases):
    def test_new_object_gets_entry_with_n_old_one(self):
        """Figure 4: a fresh UM entry always starts at N_old = 1 — even a
        first insert, which is what creates phantom entries (footnote 1)."""
        memo = self.new_memo()
        memo.record_update(7, 100)
        entry = memo.get(7)
        assert entry.s_latest == 100
        assert entry.n_old == 1

    def test_update_bumps_latest_and_n_old(self):
        memo = self.new_memo()
        memo.record_update(7, 100)
        memo.record_update(7, 200)
        entry = memo.get(7)
        assert entry.s_latest == 200
        assert entry.n_old == 2

    def test_check_status(self):
        memo = self.new_memo()
        assert memo.check_status(7, 50) == LATEST  # no entry -> latest
        memo.record_update(7, 100)
        assert memo.check_status(7, 100) == LATEST
        assert memo.check_status(7, 99) == OBSOLETE
        assert memo.is_obsolete(7, 99)
        assert not memo.is_obsolete(7, 100)
        assert not memo.is_obsolete(8, 1)

    def test_note_cleaned_decrements_and_drops(self):
        memo = self.new_memo()
        memo.record_update(7, 100)
        memo.record_update(7, 200)
        memo.note_cleaned(7)
        assert memo.get(7).n_old == 1
        memo.note_cleaned(7)
        assert memo.get(7) is None  # N_old reached zero: entry removed

    def test_note_cleaned_without_entry_raises(self):
        memo = self.new_memo()
        with pytest.raises(KeyError):
            memo.note_cleaned(7)

    def test_note_cleaned_counter_not_bumped_on_missing_entry(self):
        """Regression: ``memo.cleaned`` used to increment *before* the
        entry-existence check, so a rejected clean (KeyError) still moved
        the counter and it no longer reconciled against the cleaner's
        actual removal count."""
        obs = Observability(level="metrics")
        memo = self.new_memo()
        memo.attach_obs(obs)
        memo.record_update(1, 10)
        memo.note_cleaned(1)
        with pytest.raises(KeyError):
            memo.note_cleaned(99)  # no entry: must not count
        snap = obs.registry.snapshot()
        assert snap.counters["memo.cleaned"] == 1

    def test_sweep_counter_not_bumped_on_rejected_clean(self):
        """Regression: ``sweep_obsolete`` counted ``memo.cleaned`` before
        accounting the removal, so a clean rejected with ``KeyError`` (an
        obsolete slot whose entry has no count left anywhere) still moved
        the counter — what ``note_cleaned`` was fixed for."""
        obs = Observability(level="metrics")
        memo = self.new_memo()
        memo.attach_obs(obs)
        memo.record_update(1, 10)
        memo._table[99] = UMEntry(99, 50, 0, DELTA)  # adds nothing
        with pytest.raises(KeyError):
            memo.sweep_obsolete([1, 99], [9, 49], 5)
        snap = obs.registry.snapshot()
        assert snap.counters["memo.cleaned"] == 1

    def test_no_entry_with_zero_n_old_exists(self):
        """Invariant from Section 3.1: "no UM entry has N_old equivalent
        to zero"."""
        memo = self.new_memo()
        for oid in range(20):
            memo.record_update(oid, oid + 1)
        for oid in range(0, 20, 2):
            memo.note_cleaned(oid)
        for entry in memo:
            assert entry.n_old >= 1


class TestPhantomPurge(MemoCases):
    def test_purges_only_older_than_threshold(self):
        memo = self.new_memo()
        memo.record_update(1, 10)
        memo.record_update(2, 20)
        memo.record_update(3, 30)
        purged = memo.purge_phantoms(21)
        assert purged == 2
        assert memo.get(1) is None
        assert memo.get(2) is None
        assert memo.get(3) is not None

    def test_purge_empty(self):
        memo = self.new_memo()
        assert memo.purge_phantoms(100) == 0


class TestSnapshotRestore(MemoCases):
    def test_roundtrip(self):
        memo = self.new_memo()
        for oid in range(50):
            memo.record_update(oid, oid * 10 + 1)
        snapshot = memo.snapshot()
        other = self.new_memo()
        other.restore(iter(snapshot))
        assert len(other) == 50
        for oid in range(50):
            assert other.get(oid).s_latest == oid * 10 + 1

    def test_restore_clears_previous(self):
        memo = self.new_memo()
        memo.record_update(1, 1)
        memo.restore(iter([(2, 5, 1)]))
        assert memo.get(1) is None
        assert memo.get(2).s_latest == 5

    def test_restore_drops_nonpositive_counts(self):
        """Regression: restore used to accept ``n_old <= 0`` entries.
        ``note_cleaned`` deletes at zero and never goes below, and
        ``purge_phantoms`` spares any entry with a recent stamp — so a
        restored zero-count entry could never drain and leaked forever.
        "No obsolete entries" must round-trip as *absence* (Section 3.1).
        """
        memo = self.new_memo()
        memo.restore(iter([(1, 5, 0), (2, 6, -3), (3, 7, 2)]))
        assert memo.get(1) is None
        assert memo.get(2) is None
        assert memo.get(3).n_old == 2
        assert len(memo) == 1
        # The invariant the leak violated: every entry counts >= 1.
        assert all(entry.n_old >= 1 for entry in memo)

    @_ANY_ENTRIES
    def test_snapshot_restore_roundtrip_across_bucket_counts(self, entries):
        self.check_roundtrip(entries)

    def check_roundtrip(self, entries):
        """snapshot() -> restore() preserves exactly the valid entries; a
        second round-trip, into another memo, is the identity.  (Memos
        took a bucket count once; the name keeps the old wording.)"""
        memo = self.new_memo()
        memo.restore(iter(entries))
        expected = sorted(e for e in entries if e[2] > 0)
        assert sorted(memo.snapshot()) == expected

        other = self.new_memo()
        other.restore(iter(memo.snapshot()))
        assert sorted(other.snapshot()) == expected
        for oid, s_latest, n_old in expected:
            entry = other.get(oid)
            assert entry.s_latest == s_latest and entry.n_old == n_old


class TestSizeMetrics(MemoCases):
    def test_len_and_bytes(self):
        memo = self.new_memo()
        for oid in range(10):
            memo.record_update(oid, oid + 1)
        assert len(memo) == 10
        assert memo.size_bytes() == 10 * UM_ENTRY_BYTES

    def test_total_n_old(self):
        memo = self.new_memo()
        memo.record_update(1, 1)
        memo.record_update(1, 2)
        memo.record_update(2, 3)
        assert memo.total_n_old() == 3

    def test_size_tracks_record_clean_purge_cycle(self):
        """size_bytes/total_n_old stay consistent through the full entry
        lifecycle: records grow them, cleans shrink them, purges drop
        whole entries."""
        memo = self.new_memo()
        for oid in range(8):
            memo.record_update(oid, oid + 1)       # N_old = 1 each
        for oid in range(4):
            memo.record_update(oid, 100 + oid)     # N_old = 2 for 0..3
        assert memo.size_bytes() == 8 * UM_ENTRY_BYTES
        assert memo.total_n_old() == 12

        memo.note_cleaned(0)                       # 0 back to N_old = 1
        memo.note_cleaned(7)                       # 7 drops out entirely
        assert len(memo) == 7
        assert memo.size_bytes() == 7 * UM_ENTRY_BYTES
        assert memo.total_n_old() == 10

        # Stamps 1..8 are below 100: purge everything not re-updated.
        purged = memo.purge_phantoms(100)
        assert purged == 3                         # oids 4, 5, 6
        assert len(memo) == 4
        assert memo.size_bytes() == 4 * UM_ENTRY_BYTES
        assert memo.total_n_old() == 7  # oid 0 at 1, oids 1-3 at 2

    def test_empty_memo_reports_zero(self):
        memo = self.new_memo()
        assert memo.size_bytes() == 0
        assert memo.total_n_old() == 0


class TestMemoProperties(MemoCases):
    @_ANY_OPS
    def test_n_old_tracks_operations(self, ops):
        self.check_n_old_tracks_operations(ops)

    def check_n_old_tracks_operations(self, ops):
        """N_old equals (updates so far) - (cleans so far) for each oid,
        and the entry exists iff that number is positive."""
        memo = self.new_memo()
        counter = StampCounter()
        balance = {}
        for oid, kind in ops:
            if kind == "update":
                memo.record_update(oid, counter.next())
                balance[oid] = balance.get(oid, 0) + 1
            else:
                if balance.get(oid, 0) > 0:
                    memo.note_cleaned(oid)
                    balance[oid] -= 1
        for oid, count in balance.items():
            entry = memo.get(oid)
            if count > 0:
                assert entry is not None and entry.n_old == count
            else:
                assert entry is None


class TestFilterLatest(MemoCases):
    """``filter_latest`` against the loop it replaced — one
    ``latest_stamp`` per entry: the same positions kept, and every tally
    where that loop would have left it."""

    def new_memo(self):
        memo = super().new_memo()
        if memo.tier is not None:
            memo.tier.stats = IOStats()
        return memo

    @staticmethod
    def tallies(memo):
        counts = [memo.lookup_count, memo.hit_count]
        tier = memo.tier
        if tier is not None:
            counts += [
                tier.run_probe_count, tier.screen_reject_count,
                tier.bloom_fp_count, tier.stats.memo_reads,
            ]
        return counts

    @staticmethod
    def per_entry(memo, oids, stamps, at=None):
        kept = []
        for pos in range(len(oids)) if at is None else at:
            s_latest = memo.latest_stamp(oids[pos])
            if s_latest is None or s_latest == stamps[pos]:
                kept.append(pos)
        return kept

    def agree(self, memo, oids, stamps, at=None):
        """Both filters read only, so one memo serves both passes."""
        state = sorted(e.as_tuple() for e in memo)
        start = self.tallies(memo)
        want = self.per_entry(memo, oids, stamps, at)
        middle = self.tallies(memo)
        got = memo.filter_latest(oids, stamps, at)
        end = self.tallies(memo)
        assert got == want
        assert [b - a for a, b in zip(middle, end)] == [
            b - a for a, b in zip(start, middle)
        ]
        assert sorted(e.as_tuple() for e in memo) == state
        return got

    def churned(self):
        """A memo holding every kind of record the filter can meet; above
        a tier: records in runs, a ``DELTA`` over one, a tombstone in RAM
        and one already spilled."""
        memo = self.new_memo()
        stamp = iter(range(1, 10_000))
        latest = {}
        for _ in range(2):
            for oid in range(0, 40, 2):
                latest[oid] = next(stamp)
                memo.record_update(oid, latest[oid])
        for oid in (4, 8):          # drained: absent, or a tombstone
            memo.note_cleaned(oid)
            memo.note_cleaned(oid)
            del latest[oid]
        for oid in (12, 16, 20):    # pushes the first tombstones down
            latest[oid] = next(stamp)
            memo.record_update(oid, latest[oid])
        memo.note_cleaned(24)
        memo.note_cleaned(24)       # a tombstone still in RAM
        del latest[24]
        latest[6] = next(stamp)
        memo.record_update(6, latest[6])  # a DELTA over a run record
        return memo, latest

    def test_kept_positions_and_tallies_equal_the_per_entry_loop(self):
        memo, latest = self.churned()
        if self.TIERED:
            tags = {oid: e.tag for oid, e in memo._table.items()}
            assert memo.runs and tags[24] == TOMBSTONE and tags[6] == DELTA
            assert all(oid not in tags for oid in (4, 8))
        oids, stamps = [], []
        for oid in range(-3, 45):   # odd and out-of-range oids are absent
            if oid in latest:
                # The obsolete and the latest entry of one oid, together.
                oids += [oid, oid]
                stamps += [latest[oid] - 1, latest[oid]]
            else:
                oids.append(oid)
                stamps.append(7)
        kept = self.agree(memo, oids, stamps)
        assert [
            pos for pos, oid in enumerate(oids)
            if oid not in latest or stamps[pos] == latest[oid]
        ] == kept
        assert 0 < len(kept) < len(oids)

    def test_only_the_listed_positions_are_probed(self):
        memo, latest = self.churned()
        oids = sorted(latest) + [4, 8, 24, 1, 99]
        stamps = [latest.get(oid, 5) for oid in oids]
        stamps[0] -= 1
        at = list(range(0, len(oids), 3))
        before = memo.lookup_count
        kept = self.agree(memo, oids, stamps, at)
        assert set(kept) <= set(at) and 0 not in kept
        assert memo.lookup_count - before == 2 * len(at)
        assert self.agree(memo, oids, stamps, range(len(oids))) == (
            memo.filter_latest(oids, stamps)
        )

    def test_empty_column(self):
        memo, _latest = self.churned()
        assert self.agree(memo, [], []) == []
        assert self.agree(memo, [2, 6], [0, 0], at=[]) == []

    def test_racecheck_sees_the_same_bucket_reads(self):
        memo, latest = self.churned()
        seen = []

        class Checker:
            def access(self, obj, field, write):
                seen.append((obj is memo, field, write))

        oids = [6, 7, 24, 6, 38]
        stamps = [latest[6], 1, 1, 1, latest[38]]
        racecheck.activate(Checker())
        try:
            want = self.per_entry(memo, oids, stamps)
            per_entry, seen[:] = list(seen), []
            assert memo.filter_latest(oids, stamps) == want
        finally:
            racecheck.deactivate()
        buckets = [event for event in seen if event[0]]
        assert buckets == [event for event in per_entry if event[0]] == [
            (True, f"bucket[{oid % N_BUCKETS}]", False) for oid in oids
        ]
        # Above a tier, the same run probes: one write of ``runs`` each.
        assert sorted(seen) == sorted(per_entry)


def _per_slot_sweep(memo, oids, stamps, budget):
    """The reference: the tier-less sweep as it was before the screen —
    every slot probed in order, one removal accounted per obsolete entry,
    probing stopped with the ``budget``-th removal."""
    slots = []
    if budget <= 0:
        return slots
    for slot, oid in enumerate(oids):
        s_latest = memo.latest_stamp(oid)
        if s_latest is not None and s_latest != stamps[slot]:
            memo.note_cleaned(oid)
            slots.append(slot)
            if len(slots) == budget:
                break
    return slots


def _sweep_state(memo):
    return (
        memo.lookup_count,
        memo.hit_count,
        sorted((oid, e.s_latest, e.n_old, e.tag) for oid, e in memo._table.items()),
    )


class TestScreenedSweep:
    """Without a tier ``sweep_obsolete`` screens the oid column against
    the table and probes only the slots it holds; the answer, the tallies
    and the memo must be the per-slot loop's."""

    @staticmethod
    def agree(history, oids, stamps, budget):
        memos = [UpdateMemo(), UpdateMemo()]
        for memo in memos:
            for stamp, oid in enumerate(history, start=1):
                memo.record_update(oid, stamp)
        screened, reference = memos
        got = screened.sweep_obsolete(oids, stamps, budget)
        assert got == _per_slot_sweep(reference, oids, stamps, budget)
        assert _sweep_state(screened) == _sweep_state(reference)
        return got, screened

    @given(
        history=st.lists(st.integers(0, 40), max_size=30),
        leaf=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 30)),
            max_size=30,
        ),
        budget=st.integers(-1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_slot_loop(self, history, leaf, budget):
        # Stamps up to 40 hit the latest stamp of a few oids, miss others.
        self.agree(history, [o for o, _ in leaf], [s for _, s in leaf], budget)

    def test_two_entries_of_one_oid_the_first_removal_drains(self):
        # 28 slots, two of them the old and the new entry of oid 5, whose
        # memo entry counts one obsolete entry: the removal drains it, so
        # the later slot is a miss, not a hit.
        oids = list(range(100, 128))
        oids[9], oids[20] = 5, 5
        stamps = [0] * 28
        stamps[20] = 1
        got, memo = self.agree([5], oids, stamps, 28)
        assert got == [9]
        assert (memo.lookup_count, memo.hit_count) == (28, 1)
        assert memo.get(5) is None

    def test_budget_stop_in_the_middle_of_the_column(self):
        history = [3, 7, 3, 7, 11, 11]
        oids = [50, 3, 51, 7, 52, 11, 53]
        got, memo = self.agree(history, oids, [0] * 7, 2)
        assert got == [1, 3]
        # Probing stopped with slot 3: oid 11 was never looked at.
        assert (memo.lookup_count, memo.hit_count) == (4, 2)
        assert memo.get(11).n_old == 2


# ---------------------------------------------------------------------------
# The same behaviours above a run tier
# ---------------------------------------------------------------------------


class TestUpdateMemoBasicsTiered(TestUpdateMemoBasics):
    TIERED = True


class TestPhantomPurgeTiered(TestPhantomPurge):
    TIERED = True


class TestSnapshotRestoreTiered(TestSnapshotRestore):
    TIERED = True

    @_ANY_ENTRIES
    def test_snapshot_restore_roundtrip_across_bucket_counts(self, entries):
        self.check_roundtrip(entries)


class TestSizeMetricsTiered(TestSizeMetrics):
    TIERED = True


class TestFilterLatestTiered(TestFilterLatest):
    TIERED = True


class TestMemoPropertiesTiered(TestMemoProperties):
    TIERED = True

    @_ANY_OPS
    def test_n_old_tracks_operations(self, ops):
        self.check_n_old_tracks_operations(ops)
