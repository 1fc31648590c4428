"""Crash-consistency suite: fault injection, the crash matrix, and the
regression tests for the durable-store bugfixes.

The heavyweight pieces live in :mod:`repro.crashsim`; this file (a)
unit-tests the injection machinery and the page checksums, (b) pins the
derived crash matrix — the fault-point occurrences the script reaches —
and runs a fixed sample of it: the first and last occurrence of every
(option, tier, point, mode) cell (``python -m repro.experiments
crashmatrix`` runs all of them), and (c) pins each fixed bug with a test
that fails on the pre-fix code.
"""

import os
import pathlib
from typing import Dict, List, Set

import pytest

from repro.core.recovery import recover_option_ii
from repro.crashsim import (
    CrashScenario,
    WorkloadConfig,
    derive_scenarios,
    run_scenario,
    verify_pages,
)
from repro.factory import build_rum_tree
from repro.obs import ListEventSink, Observability
from repro.rtree.geometry import Rect
from repro.storage.codec import (
    CHECKSUM_OFFSET,
    NodeCodec,
    PageChecksumError,
    checksum_ok,
    stamp_checksum,
)
from repro.storage import faults
from repro.storage.disk import DiskManager
from repro.storage.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultyDisk,
    SimulatedCrash,
    corrupt_page,
    torn_page,
)
from repro.storage.filedisk import (
    META_FILE,
    META_TMP_FILE,
    FileDiskManager,
)
from repro.storage.iostats import IOStats
from repro.storage.wal import WriteAheadLog


# ---------------------------------------------------------------------------
# Fault-injection machinery
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_unarmed_fire_is_noop(self):
        FaultInjector().fire("disk.page_write")  # must not raise

    def test_skip_countdown_then_crash(self):
        inj = FaultInjector()
        inj.arm("wal.force", skip=2)
        inj.fire("wal.force")
        inj.fire("wal.force")
        with pytest.raises(SimulatedCrash) as exc:
            inj.fire("wal.force")
        assert exc.value.point == "wal.force"
        assert inj.fired == "wal.force"
        inj.fire("wal.force")  # fired faults never re-fire

    def test_other_points_do_not_trigger(self):
        inj = FaultInjector()
        inj.arm("wal.force")
        inj.fire("wal.append")
        inj.fire("disk.sync.data")
        assert inj.fired is None

    def test_disarm(self):
        inj = FaultInjector()
        inj.arm("wal.append")
        inj.disarm()
        inj.fire("wal.append")
        assert inj.fired is None

    def test_unknown_point_and_mode_rejected(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.arm("no.such.point")
        with pytest.raises(ValueError):
            inj.arm("wal.force", mode="melt")
        # A mode the point does not support: a log force cannot tear.
        with pytest.raises(ValueError):
            inj.arm("wal.force", mode="torn")
        with pytest.raises(ValueError):
            inj.arm("memo.manifest", mode="torn")

    def test_simulated_crash_evades_except_exception(self):
        # The crash models the process dying: ordinary error handling
        # (``except Exception``) must not swallow it.
        assert not issubclass(SimulatedCrash, Exception)
        inj = FaultInjector()
        inj.arm("wal.force")
        with pytest.raises(SimulatedCrash):
            try:
                inj.fire("wal.force")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash was caught as an Exception")

    def test_torn_page_keeps_prefix_of_new(self):
        old, new = b"\xaa" * 64, b"\xbb" * 64
        assert torn_page(old, new, 10) == new[:10] + old[10:]
        half = torn_page(old, new, 0)  # default: half the page survives
        assert half == new[:32] + old[32:]

    def test_corrupt_page_flips_bytes(self):
        data = bytes(range(64))
        bad = corrupt_page(data, 8)
        assert bad != data
        assert len(bad) == 64
        assert sum(a != b for a, b in zip(data, bad)) == 8


class TestFaultyDisk:
    def _stack(self):
        inj = FaultInjector()
        disk = FaultyDisk(DiskManager(128), inj)
        return inj, disk

    def test_delegates_when_unarmed(self):
        _inj, disk = self._stack()
        pid = disk.allocate()
        disk.write_page(pid, b"\x01" * 128)
        assert disk.read_page(pid) == b"\x01" * 128
        assert disk.writes == 1 and disk.reads == 1

    def test_unarmed_page_writes_are_counted(self):
        """``hits`` counts every occurrence, armed or not — the crash
        matrix discovers its page-write scenarios from an unarmed run.
        The pre-fix wrapper counted page writes only while one of its
        points was armed."""
        inj, disk = self._stack()
        pid = disk.allocate()
        for byte in (1, 2, 3):
            disk.write_page(pid, bytes([byte]) * 128)
        assert inj.hits == {"disk.page_write": 3}
        inj.arm("wal.force")  # another point armed: still counted
        disk.write_page(pid, b"\x04" * 128)
        assert inj.hits == {"disk.page_write": 1}

    def test_crash_mode_loses_the_write(self):
        inj, disk = self._stack()
        pid = disk.allocate()
        disk.write_page(pid, b"\x01" * 128)
        inj.arm("disk.page_write")
        with pytest.raises(SimulatedCrash):
            disk.write_page(pid, b"\x02" * 128)
        assert disk.peek(pid) == b"\x01" * 128  # old content intact

    def test_torn_mode_persists_a_prefix(self, monkeypatch):
        monkeypatch.setattr(faults, "TORN_BYTES", 16)
        inj, disk = self._stack()
        pid = disk.allocate()
        disk.write_page(pid, b"\x01" * 128)
        inj.arm("disk.page_write", mode="torn")
        with pytest.raises(SimulatedCrash):
            disk.write_page(pid, b"\x02" * 128)
        assert disk.peek(pid) == b"\x02" * 16 + b"\x01" * 112
        assert inj.damage == (pid, disk.peek(pid)) and inj.tear is None

    @pytest.mark.parametrize("tear, new", [
        # The bytes past the tear did not change: the new image is whole.
        ("landed", b"\x02" * 64 + b"\x01" * 64),
        # The bytes before it did not: the old image is whole.
        ("lost", b"\x01" * 64 + b"\x02" * 64),
    ])
    def test_a_whole_image_tear_is_no_damage(self, tear, new):
        inj, disk = self._stack()
        pid = disk.allocate()
        disk.write_page(pid, b"\x01" * 128)
        inj.arm("disk.page_write", mode="torn")  # half the page lands
        with pytest.raises(SimulatedCrash):
            disk.write_page(pid, new)
        assert inj.tear == tear and inj.damage is None

    def test_corrupt_mode_is_silent(self, monkeypatch):
        monkeypatch.setattr(faults, "CORRUPT_BYTES", 4)
        inj, disk = self._stack()
        pid = disk.allocate()
        inj.arm("disk.page_write", mode="corrupt")
        disk.write_page(pid, b"\x03" * 128)  # no crash
        assert inj.fired == "disk.page_write"
        assert disk.peek(pid) != b"\x03" * 128
        assert inj.damage == (pid, disk.peek(pid))


# ---------------------------------------------------------------------------
# Page checksums
# ---------------------------------------------------------------------------


class TestPageChecksums:
    def test_stamp_and_verify_roundtrip(self):
        page = stamp_checksum(bytes(512))
        assert checksum_ok(page)
        assert stamp_checksum(page) == page  # idempotent

    def test_flip_detected_anywhere(self):
        page = bytearray(stamp_checksum(bytes(range(256)) * 2))
        page[300] ^= 0xFF
        assert not checksum_ok(bytes(page))

    def test_legacy_zero_crc_passes(self):
        # Pages written before checksums existed verify trivially.
        assert checksum_ok(bytes(512))

    def test_codec_decode_verifies(self):
        codec = NodeCodec(512, rum_leaves=True, checksums=True)
        from repro.rtree.node import LeafEntry, Node

        node = Node(7, is_leaf=True)
        node.entries.append(LeafEntry(Rect.from_point(0.5, 0.5), 1, 1))
        page = codec.encode(node)
        crc = page[CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4]
        assert crc != b"\x00\x00\x00\x00"
        assert codec.decode(7, page).entries  # clean page decodes

        torn = torn_page(bytes(512), page, 40)
        with pytest.raises(PageChecksumError):
            codec.decode(7, torn)
        with pytest.raises(PageChecksumError):
            codec.verify_page(7, torn)

    def test_checksum_free_codec_unaffected(self):
        codec = NodeCodec(512, rum_leaves=True)
        from repro.rtree.node import LeafEntry, Node

        node = Node(3, is_leaf=True)
        node.entries.append(LeafEntry(Rect.from_point(0.1, 0.2), 4, 9))
        page = codec.encode(node)
        assert page[CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] == b"\x00" * 4
        decoded = codec.decode(3, page)
        assert decoded.entries[0].oid == 4


# ---------------------------------------------------------------------------
# The crash matrix: every fault-point occurrence x mode x option x tier
# ---------------------------------------------------------------------------

#: Fault-point occurrences of one unarmed run of the default script after
#: its load phase, per (recovery option, memo run tier).  The matrix is
#: derived from these; a change that moves a crash point re-records them
#: and says why in CHANGES.md.
DISCOVERED = {
    ("I", False): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
    },
    ("I", True): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
        "memo.run_flush": 4, "memo.compact": 2, "memo.manifest": 7,
    },
    ("II", False): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
        "wal.force": 2, "wal.checkpoint": 2,
    },
    ("II", True): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
        "wal.force": 2, "wal.checkpoint": 2,
        "memo.run_flush": 4, "memo.compact": 2, "memo.manifest": 7,
    },
    ("III", False): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
        "wal.append": 90, "wal.force": 92, "wal.checkpoint": 2,
    },
    ("III", True): {
        "disk.page_write": 113, "disk.sync.data": 4, "disk.meta.tmp": 4,
        "wal.append": 90, "wal.force": 92, "wal.checkpoint": 2,
        "memo.run_flush": 4, "memo.compact": 2, "memo.manifest": 7,
    },
}

#: The matrix those counts imply, by cell, each cell's occurrences in
#: order.
CELLS: Dict[str, List[CrashScenario]] = {}
for (_option, _tier), _hits in DISCOVERED.items():
    _clean = CrashScenario(_option, tier=_tier)
    CELLS[_clean.cell] = [_clean]
    for _point, _count in _hits.items():
        for _mode in FAULT_POINTS[_point]:
            _runs = [
                CrashScenario(_option, _point, _mode, skip, _tier)
                for skip in range(_count)
            ]
            CELLS[_runs[0].cell] = _runs


def test_the_matrix_is_every_discovered_occurrence():
    """derive_scenarios() is the clean shutdown and every occurrence
    discover() counts, in every mode its point supports — and the counts
    are the pinned ones."""
    derived = derive_scenarios()
    assert len(derived) == len(set(derived)) == 2560
    assert set(derived) == {s for runs in CELLS.values() for s in runs}


def _verdicts(scenario: CrashScenario) -> Set[str]:
    """The outcomes a scenario's mode allows."""
    if scenario.mode == "crash":
        return {"recovered"}
    if scenario.mode == "corrupt":
        return {"healed", "detected"}
    if scenario.point.startswith("memo."):
        return {"recovered"}  # a torn run is never named: swept at reopen
    return {"landed", "lost", "detected"}


@pytest.mark.parametrize("cell", list(CELLS))
def test_crash_matrix(cell, tmp_path):
    """The first and the last occurrence of one cell; run_scenario raises
    CrashSimError on any violated guarantee."""
    runs = CELLS[cell]
    for scenario in runs[:1] + runs[1:][-1:]:
        outcome = run_scenario(scenario, tmp_path / str(scenario.skip))
        assert outcome.kind in _verdicts(scenario)
        assert outcome.crashed == (
            scenario.point is not None and scenario.mode != "corrupt"
        )
        if scenario.tier and outcome.kind != "detected":
            # The screen is RAM only: the reopen rebuilt it from the runs.
            assert "presence screen rebuilt over every live run" in (
                outcome.checks
            )
            # ... and what recovery spilled keeps nothing that nothing
            # needs.
            assert "oldest recovered memo run holds absolutes only" in (
                outcome.checks
            )


@pytest.mark.parametrize("skip", [3, 4])
def test_a_tear_that_leaves_the_new_page_is_a_landed_write(skip, tmp_path):
    """Half of a half-empty leaf is zero padding in both images, so a
    tear there leaves the whole new page: the write landed, and the full
    recovery oracle holds.  The pre-fix harness demanded a page that
    fails its checksum ("damaged page passed checksum verification")."""
    scenario = CrashScenario("I", "disk.page_write", "torn", skip)
    outcome = run_scenario(scenario, tmp_path)
    assert outcome.crashed and outcome.kind == "landed"
    assert "search equals memo-filtered leaf content" in outcome.checks


def test_damage_read_in_flight_counts_as_detected(tmp_path):
    """The corrupted page is read back by the script's range query after
    the write that damaged it; the PageChecksumError it raises is the
    detection.  The pre-fix harness let it escape the workload as an
    error."""
    scenario = CrashScenario("I", "disk.page_write", "corrupt", 3)
    outcome = run_scenario(scenario, tmp_path)
    assert outcome.kind == "detected" and not outcome.crashed
    assert outcome.checks == ["damage refused in flight (PageChecksumError)"]


def test_damage_a_later_write_replaced_counts_as_healed(tmp_path):
    """The first spill's manifest is written corrupt, and a second spill
    of the same operation replaces it before anything reads it: nothing
    damaged is left, and the full recovery oracle holds.  The pre-fix
    harness demanded a tier that fails to reopen ("damaged memo tier
    silently reopened")."""
    scenario = CrashScenario("I", "memo.manifest", "corrupt", 0, tier=True)
    outcome = run_scenario(scenario, tmp_path)
    assert outcome.kind == "healed" and not outcome.crashed
    assert outcome.hits["memo.manifest"] >= 2
    assert "search equals memo-filtered leaf content" in outcome.checks


def test_lost_delete_semantics_across_options(tmp_path):
    """Section 3.4's documented semantics, exactly: Option III recovers
    every delete, Option II only those before the durable checkpoint,
    Option I none (modulo entries already physically garbage-dropped).

    The cleaner removes a deleted object's entries as it goes, and then
    no option can resurrect it: by the end of the default 90-update
    script it has removed all but one deleted object's, so Options I and
    II recover the same set (23 objects, Option III 22).  Forty updates
    end before it gets there."""
    live = {}
    for option in ("I", "II", "III"):
        directory = tmp_path / option
        outcome = run_scenario(
            CrashScenario(option=option), directory,
            config=WorkloadConfig(n_updates=40),
        )
        live[option] = outcome.live_objects
    assert live["III"] < live["II"] < live["I"]


def test_crash_emits_obs_events(tmp_path):
    sink = ListEventSink()
    obs = Observability(level="trace", sink=sink)
    scenario = CrashScenario(option="III", point="wal.force", skip=5)
    run_scenario(scenario, tmp_path, obs=obs)
    kinds = [e["type"] for e in sink.events]
    assert "crashsim.crash" in kinds
    assert "crashsim.recovered" in kinds
    assert obs.registry.counter("faults.fired").value == 1


def test_workload_config_scales(tmp_path):
    config = WorkloadConfig(n_objects=16, n_updates=40, seed=3)
    outcome = run_scenario(
        CrashScenario(option="III"), tmp_path, config=config
    )
    assert outcome.kind == "recovered"
    assert outcome.live_objects <= 16


# ---------------------------------------------------------------------------
# Satellite 1 regression: FileDiskManager.sync metadata atomicity
# ---------------------------------------------------------------------------


class TestSyncAtomicity:
    def test_sync_replaces_metadata_atomically(self, tmp_path, monkeypatch):
        """The metadata must go live via fsync + os.replace of a temp
        file — the pre-fix code rewrote disk.json in place, un-fsynced,
        so a crash mid-write could tear it."""
        replaced = []
        real_replace = os.replace

        def spying_replace(src, dst):
            replaced.append((pathlib.Path(src).name, pathlib.Path(dst).name))
            return real_replace(src, dst)

        monkeypatch.setattr(
            "repro.storage.filedisk.os.replace", spying_replace
        )
        disk = FileDiskManager(128, tmp_path)
        disk.allocate()
        disk.sync()
        assert (META_TMP_FILE, META_FILE) in replaced
        assert not (tmp_path / META_TMP_FILE).exists()

    def test_crash_before_replace_keeps_previous_metadata(self, tmp_path):
        inj = FaultInjector()
        disk = FileDiskManager(128, tmp_path, faults=inj)
        first = disk.allocate()
        disk.sync()
        disk.allocate()
        inj.arm("disk.meta.tmp")
        with pytest.raises(SimulatedCrash):
            disk.sync()
        # The new metadata was fully written but never went live.
        assert (tmp_path / META_TMP_FILE).exists()
        reopened = FileDiskManager.open(tmp_path)
        assert list(reopened.page_ids()) == [first]
        # The stale temp file is cleaned up by open().
        assert not (tmp_path / META_TMP_FILE).exists()
        reopened._file.close()

    def test_crash_after_data_fsync_keeps_previous_metadata(self, tmp_path):
        inj = FaultInjector()
        disk = FileDiskManager(128, tmp_path, faults=inj)
        first = disk.allocate()
        disk.sync()
        disk.allocate()
        inj.arm("disk.sync.data")
        with pytest.raises(SimulatedCrash):
            disk.sync()
        reopened = FileDiskManager.open(tmp_path)
        assert list(reopened.page_ids()) == [first]
        reopened._file.close()


# ---------------------------------------------------------------------------
# Satellite 3 regression: Option II charged the whole log tail
# ---------------------------------------------------------------------------


def test_option_ii_charges_only_the_checkpoint_record():
    """Option II recovery reads the checkpoint record, nothing else —
    the pre-fix code billed every log page from the checkpoint's LSN to
    the end of the log, including memo-change records it never replays."""
    tree = build_rum_tree(
        node_size=512,
        recovery_option="II",
        inspection_ratio=0.0,
        clean_upon_touch=False,
        checkpoint_interval=10**9,
    )
    for oid in range(40):
        tree.insert_object(oid, Rect.from_point(oid / 50, oid / 50))
    tree.write_checkpoint()
    checkpoint = tree.wal.last_checkpoint()
    # A long post-checkpoint tail (as an Option III logger would leave).
    for oid in range(200):
        tree.wal.append_memo_change(oid, 10_000 + oid, force=False)

    tree.crash()
    report = recover_option_ii(tree)
    checkpoint_pages = -(-checkpoint.nbytes // 512)
    tail_pages = -(-200 * 24 // 512)
    assert report.io.log_reads == checkpoint_pages
    assert report.io.log_reads < checkpoint_pages + tail_pages


# ---------------------------------------------------------------------------
# End-to-end: torn page detected through a persisted store
# ---------------------------------------------------------------------------


def test_verify_pages_flags_exactly_the_damaged_page(tmp_path):
    codec = NodeCodec(256, rum_leaves=True, checksums=True)
    disk = FileDiskManager(256, tmp_path)
    from repro.rtree.node import LeafEntry, Node

    pids = []
    for i in range(4):
        pid = disk.allocate()
        node = Node(pid, is_leaf=True)
        node.entries.append(LeafEntry(Rect.from_point(0.1 * i, 0.1), i, i + 1))
        disk.write_page(pid, codec.encode(node))
        pids.append(pid)
    assert verify_pages(disk, codec) == []

    victim = pids[2]
    page = bytearray(disk.peek(victim))
    page[100] ^= 0x40
    disk._write_raw(victim, bytes(page))
    assert verify_pages(disk, codec) == [victim]
    disk._file.close()
