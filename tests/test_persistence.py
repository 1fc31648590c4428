"""Tests for the file-backed disk and index save/load."""

import random

import pytest

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    populate,
    random_walk,
)
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.persistence import load_tree, save_tree
from repro.rtree.geometry import Rect
from repro.storage.disk import PageNotAllocatedError
from repro.storage.filedisk import FileDiskManager


class TestFileDiskManager:
    def test_roundtrip(self, tmp_path):
        disk = FileDiskManager(128, tmp_path)
        pid = disk.allocate()
        disk.write_page(pid, b"\xab" * 128)
        assert disk.read_page(pid) == b"\xab" * 128
        assert disk.peek(pid) == b"\xab" * 128
        disk.close()

    def test_reopen_preserves_pages_and_allocation(self, tmp_path):
        disk = FileDiskManager(128, tmp_path)
        a = disk.allocate()
        b = disk.allocate()
        disk.write_page(a, b"\x01" * 128)
        disk.write_page(b, b"\x02" * 128)
        disk.free(b)
        disk.close()

        reopened = FileDiskManager.open(tmp_path)
        assert reopened.page_size == 128
        assert reopened.is_allocated(a)
        assert not reopened.is_allocated(b)
        assert reopened.read_page(a) == b"\x01" * 128
        assert reopened.allocate() == b  # free list survived
        reopened.close()

    def test_unallocated_access_raises(self, tmp_path):
        disk = FileDiskManager(128, tmp_path)
        with pytest.raises(PageNotAllocatedError):
            disk.read_page(5)
        with pytest.raises(PageNotAllocatedError):
            disk.write_page(5, b"\x00" * 128)
        with pytest.raises(PageNotAllocatedError):
            disk.free(5)
        disk.close()

    def test_counters(self, tmp_path):
        disk = FileDiskManager(128, tmp_path)
        pid = disk.allocate()
        disk.read_page(pid)
        disk.write_page(pid, b"\x00" * 128)
        disk.peek(pid)  # uncounted
        assert disk.reads == 1
        assert disk.writes == 1
        disk.close()

    def test_invalid_page_size(self, tmp_path):
        with pytest.raises(ValueError):
            FileDiskManager(0, tmp_path)


@pytest.mark.parametrize(
    "builder", [build_rstar_tree, build_fur_tree, build_rum_tree]
)
class TestSaveLoadAllTrees:
    def test_roundtrip_preserves_answers(self, builder, tmp_path):
        tree = build_and_walk(builder)
        positions = tree._test_positions
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        assert_search_matches_oracle(loaded, positions)
        loaded.check_invariants()

    def test_loaded_tree_accepts_further_updates(self, builder, tmp_path):
        tree = build_and_walk(builder)
        positions = tree._test_positions
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        random_walk(loaded, positions, steps=150, seed=222, distance=0.1)
        assert_search_matches_oracle(loaded, positions)
        loaded.check_invariants()


def build_and_walk(builder):
    tree = builder(node_size=SMALL_NODE)
    positions = populate(tree, 120, seed=220)
    random_walk(tree, positions, steps=300, seed=221, distance=0.1)
    tree._test_positions = positions
    return tree


class TestRUMSpecifics:
    def test_memo_and_stamps_survive(self, tmp_path):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.2
        )
        positions = populate(tree, 80, seed=223)
        random_walk(tree, positions, steps=200, seed=224)
        memo_before = {e.oid: e.as_tuple() for e in tree.memo}
        stamp_before = tree.stamps.current
        save_tree(tree, tmp_path)

        loaded = load_tree(tmp_path)
        assert {e.oid: e.as_tuple() for e in loaded.memo} == memo_before
        assert loaded.stamps.current == stamp_before
        assert loaded.clean_upon_touch is False
        assert loaded.cleaner.inspection_ratio == pytest.approx(0.2)
        # No stale duplicates after reload + cleaning.
        loaded.cleaner.run_full_cycle()
        assert_search_matches_oracle(loaded, positions)

    def test_token_count_survives_at_zero_ratio(self, tmp_path):
        """A ratio of 0 gates the per-update credit only: it used to be
        saved as a cleaner of 0 tokens, whose forced cycles clean nothing."""
        tree = build_rum_tree(
            node_size=SMALL_NODE, inspection_ratio=0.0, n_tokens=3
        )
        populate(tree, 40, seed=225)
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        assert loaded.cleaner.n_tokens == 3
        assert loaded.cleaner.inspection_ratio == 0.0

    def test_deleted_objects_stay_deleted(self, tmp_path):
        tree = build_rum_tree(node_size=SMALL_NODE)
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        tree.insert_object(2, Rect.from_point(0.6, 0.6))
        tree.delete_object(1)
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        # Unlike crash recovery Option I, a clean save persists the memo,
        # so memo-based deletes survive.
        assert sorted(oid for oid, _r in loaded.search(Rect(0, 0, 1, 1))) == [2]


class TestFURSpecifics:
    def test_secondary_index_rebuilt(self, tmp_path):
        tree = build_fur_tree(node_size=SMALL_NODE)
        positions = populate(tree, 100, seed=225)
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        for leaf in loaded.iter_leaf_nodes():
            for entry in leaf.entries:
                assert loaded.index.peek(entry.oid) == leaf.page_id
        random_walk(loaded, positions, steps=100, seed=226)
        assert_search_matches_oracle(loaded, positions)


class TestAllocationState:
    def test_free_list_survives_save_load(self, tmp_path):
        """save_tree used to drop the source disk's free list, leaking
        every freed page id forever across save/load cycles."""
        tree = build_rstar_tree(node_size=SMALL_NODE)
        positions = populate(tree, 150, seed=230)
        # Physically delete most objects: leaf condensation frees pages.
        for oid in sorted(positions)[:120]:
            tree.delete_object(oid, positions.pop(oid))
        source = tree.buffer.disk
        assert source._free, "workload must free pages for this test"
        free_before = sorted(source._free)
        next_before = source._next_id

        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        disk = loaded.buffer.disk
        assert sorted(disk._free) == free_before
        assert disk._next_id == next_before
        # A fresh allocation recycles a freed id instead of growing the
        # page file past ids that were already handed out once.
        assert disk.allocate() in free_before

    def test_saved_pages_carry_checksums(self, tmp_path):
        from repro.crashsim import verify_pages
        from repro.storage.codec import CHECKSUM_OFFSET, NodeCodec

        tree = build_rum_tree(node_size=SMALL_NODE)
        populate(tree, 60, seed=231)
        save_tree(tree, tmp_path)
        disk = FileDiskManager.open(tmp_path)
        codec = NodeCodec(SMALL_NODE, rum_leaves=True, checksums=True)
        assert verify_pages(disk, codec) == []
        for page_id in disk.page_ids():
            crc = disk.peek(page_id)[CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4]
            assert crc != b"\x00" * 4
        disk._file.close()

    def test_flipped_byte_detected_on_reload(self, tmp_path):
        from repro.storage.codec import PageChecksumError

        tree = build_rum_tree(node_size=SMALL_NODE)
        positions = populate(tree, 60, seed=232)
        save_tree(tree, tmp_path)

        disk = FileDiskManager.open(tmp_path)
        victim = next(iter(disk.page_ids()))
        page = bytearray(disk.peek(victim))
        page[SMALL_NODE // 2] ^= 0x01
        disk._write_raw(victim, bytes(page))
        disk._file.flush()
        disk._file.close()

        loaded = load_tree(tmp_path)
        with pytest.raises(PageChecksumError):
            loaded.search(Rect(0.0, 0.0, 1.0, 1.0))
            for _ in loaded.iter_leaf_entries():
                pass


class TestErrors:
    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_tree(object(), tmp_path)
