"""Behavioural tests for the RUM-tree: memo-based updates, filtering
searches, deletes, clean-upon-touch, and the garbage metrics."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_NODE,
    assert_search_matches_oracle,
    held_rect,
    leaf_entry_count,
    populate,
    random_walk,
    random_window,
    two_cluster_tree,
)
from repro.factory import build_rum_tree, build_storage
from repro.core.rum import RUMTree
from repro.rtree.base import MIRROR_QUERY_STREAK
from repro.rtree.geometry import Rect


class TestConstruction:
    def test_requires_rum_codec(self):
        with pytest.raises(ValueError):
            RUMTree(build_storage(SMALL_NODE, rum_leaves=False))

    def test_leaf_ring_maintained_by_default(self, rum_tree):
        assert rum_tree.maintain_leaf_ring is True

    def test_recovery_option_validation(self):
        with pytest.raises(ValueError):
            build_rum_tree(node_size=SMALL_NODE, recovery_option="IV")
        with pytest.raises(ValueError):
            RUMTree(
                build_storage(SMALL_NODE, rum_leaves=True),
                recovery_option="II",
                wal=None,
            )

    def test_negative_inspection_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_rum_tree(node_size=SMALL_NODE, inspection_ratio=-0.1)


class TestMemoBasedUpdate:
    def test_update_does_not_need_old_value(self, rum_tree):
        rum_tree.insert_object(1, Rect.from_point(0.1, 0.1))
        # old_rect=None: the memo approach never looks at it.
        rum_tree.update_object(1, None, Rect.from_point(0.9, 0.9))
        assert rum_tree.search(Rect(0.8, 0.8, 1.0, 1.0)) == [
            (1, Rect.from_point(0.9, 0.9))
        ]
        assert rum_tree.search(Rect(0.0, 0.0, 0.2, 0.2)) == []

    def test_update_leaves_obsolete_entry_behind(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
        )
        tree.insert_object(1, Rect.from_point(0.1, 0.1))
        tree.update_object(1, None, Rect.from_point(0.9, 0.9))
        # Physically two entries, logically one object.
        assert leaf_entry_count(tree) == 2
        assert tree.garbage_count() == 1
        assert len(tree.search(Rect(0, 0, 1, 1))) == 1

    def test_stamps_strictly_increase_per_object(self, rum_tree):
        rum_tree.insert_object(1, Rect.from_point(0.5, 0.5))
        for i in range(5):
            rum_tree.update_object(1, None, Rect.from_point(0.5, 0.1 * i))
        stamps = [
            e.stamp for e in rum_tree.iter_leaf_entries() if e.oid == 1
        ]
        assert len(stamps) == len(set(stamps))

    def test_update_io_is_insert_io(self):
        """The defining property: an update costs what an insert costs —
        no deletion search, no secondary-index access."""
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=True, inspection_ratio=0.0
        )
        populate(tree, 150, seed=60)
        stats = tree.stats
        rng = random.Random(61)
        costs = []
        for oid in range(50):
            before = stats.snapshot()
            tree.update_object(
                oid, None, Rect.from_point(rng.random(), rng.random())
            )
            delta = stats.snapshot() - before
            assert delta.index_total == 0
            costs.append(delta.leaf_total)
        assert sorted(costs)[len(costs) // 2] == 2  # 1 read + 1 write


class TestDelete:
    def test_delete_never_touches_the_tree(self, rum_tree):
        populate(rum_tree, 50, seed=62)
        before = rum_tree.stats.snapshot()
        rum_tree.delete_object(7)
        delta = rum_tree.stats.snapshot() - before
        assert delta.leaf_total == 0  # Figure 5: memo-only operation

    def test_deleted_object_filtered_from_queries(self, rum_tree):
        positions = populate(rum_tree, 80, seed=63)
        alive = set(positions)
        for oid in (3, 10, 42):
            rum_tree.delete_object(oid)
            alive.discard(oid)
        assert_search_matches_oracle(rum_tree, positions, alive=alive)

    def test_delete_nonexistent_is_harmless_phantom(self, rum_tree):
        """Deleting an object that never existed only creates a phantom
        memo entry; queries stay correct (Section 3.2 discussion)."""
        positions = populate(rum_tree, 40, seed=64)
        rum_tree.delete_object(999)
        assert rum_tree.memo.get(999) is not None
        assert_search_matches_oracle(rum_tree, positions)

    def test_reinsert_after_delete(self, rum_tree):
        rum_tree.insert_object(1, Rect.from_point(0.2, 0.2))
        rum_tree.delete_object(1)
        rum_tree.insert_object(1, Rect.from_point(0.7, 0.7))
        assert rum_tree.search(Rect(0, 0, 1, 1)) == [
            (1, Rect.from_point(0.7, 0.7))
        ]


class TestSearchFiltering:
    def test_filter_removes_all_obsolete_versions(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
        )
        # Many versions of one object inside the same query window.
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        for i in range(10):
            tree.update_object(1, None, Rect.from_point(0.5, 0.5))
        hits = tree.search(Rect(0.4, 0.4, 0.6, 0.6))
        assert len(hits) == 1

    def test_correct_under_heavy_churn(self):
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.3)
        positions = populate(tree, 120, seed=65)
        random_walk(tree, positions, steps=900, seed=66, distance=0.2)
        assert_search_matches_oracle(tree, positions)
        tree.check_invariants()


class TestSearchEqualsThePerEntryFilter:
    """``search`` — and, ``stamped``, the stamped rows of ``search_rows``
    that the shard router merges — is the walk plus one ``filter_latest``
    per leaf; the reference is what it replaced — every raw hit decoded
    into a ``LeafEntry`` and asked about one ``latest_stamp`` at a time."""

    @staticmethod
    def per_entry_body(tree):
        def body(window, stamped=False):
            rows = []
            for e in tree.range_search(window):
                s_latest = tree.memo.latest_stamp(e.oid)
                if s_latest is None or e.stamp == s_latest:
                    rows.append(
                        (e.oid, *e.rect, e.stamp) if stamped
                        else (e.oid, e.rect)
                    )
            return rows

        return body

    @staticmethod
    def answer(tree, window, stamped):
        if stamped:
            return tree.search_rows(window, True)
        return tree.search(window)

    @staticmethod
    def counted(tree, call):
        """``(answer, sorted; leaf reads; memo lookups; memo hits)``."""
        stats, memo = tree.stats, tree.memo
        before = (stats.leaf_reads, memo.lookup_count, memo.hit_count)
        # One latest entry per object: the oid alone orders an answer.
        answer = sorted(call(), key=lambda row: row[0])
        after = (stats.leaf_reads, memo.lookup_count, memo.hit_count)
        return (answer, *(b - a for a, b in zip(before, after)))

    @pytest.fixture
    def tree(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.05
        )
        positions = populate(tree, 250, seed=31)
        random_walk(tree, positions, steps=500, seed=32, distance=0.15)
        assert tree.garbage_count() > 100
        return tree

    @pytest.fixture
    def windows(self):
        rng = random.Random(33)
        return [random_window(rng, side=0.3) for _ in range(12)]

    @pytest.mark.parametrize("stamped", [False, True])
    def test_on_freshly_read_and_on_thawed_leaves(self, tree, windows, stamped):
        reference = self.per_entry_body(tree)
        seen = []

        def spy(leaf, hits):
            seen.append(leaf.materialized)
            return []

        tree._mirror_wait = 10**9  # no streak is long enough for a mirror
        for window in windows:
            want = self.counted(tree, lambda: reference(window, stamped))
            assert self.counted(
                tree, lambda: self.answer(tree, window, stamped)
            ) == want
            assert want[0] and want[2] > len(want[0])  # garbage was met
            with tree.buffer.operation():
                # The search's own operation nests in this one and finds
                # the leaves as it left them: thawed.
                for leaf in list(tree.iter_leaf_nodes()):
                    assert tree.buffer.get_node(leaf.page_id).entries
                thawed = self.counted(
                    tree, lambda: self.answer(tree, window, stamped)
                )
                tree.range_search(window, spy)
            assert thawed[0] == want[0] and thawed[2:] == want[2:]
        assert seen and all(seen)
        tree.range_search(windows[0], spy)
        assert not seen[-1]

    @pytest.mark.parametrize("stamped", [False, True])
    def test_mirror_served(self, tree, windows, stamped):
        reference = self.per_entry_body(tree)
        for _ in range(MIRROR_QUERY_STREAK):
            tree.search(windows[0])
        for window in windows:
            want = self.counted(tree, lambda: reference(window, stamped))
            assert tree._served_by_mirror
            assert self.counted(
                tree, lambda: self.answer(tree, window, stamped)
            ) == want
            assert tree._served_by_mirror

    def test_under_explain_query(self, tree, windows):
        def facts(report):
            return (
                [
                    (v.page_id, v.entries_tested, v.entries_matched, v.io)
                    for v in report.visits
                ],
                report.io_delta, report.results, report.memo,
            )

        for window in windows:
            tree._search_body = self.per_entry_body(tree)
            want = facts(tree.explain_query(window))
            del tree._search_body
            report = tree.explain_query(window)
            assert facts(report) == want and report.reconciles()
            assert report.memo["inspections"] == sum(
                v.entries_matched for v in report.visits if v.is_leaf
            )
            assert report.memo["obsolete"] > 0


class TestSearchRowsEqualSearch:
    """``search_rows`` is ``search`` in the answer frame's shape: over
    twin churned trees, one asked through each, every answer holds the
    same objects in the same order with bit-identical coordinates, and
    the two trees count the same I/O, memo probes and queries — walked
    and mirror-served, with the memo's run tier off and on.  A stamped
    row ends in the stamp of the entry it came from: the memo's latest
    stamp for the object, where the memo holds one."""

    @staticmethod
    def churned(directory, tier):
        kwargs = {}
        if tier:
            kwargs = {"memo_dir": str(directory), "memo_spill_budget": 256}
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False,
            inspection_ratio=0.05, **kwargs,
        )
        positions = populate(tree, 250, seed=41)
        random_walk(tree, positions, steps=500, seed=42, distance=0.15)
        assert tree.garbage_count() > 100
        assert not tier or tree.memo.tier.runs
        return tree

    @staticmethod
    def tallies(tree):
        return (
            tree.stats.snapshot(), tree.memo.lookup_count,
            tree.memo.hit_count, tree.query_count,
        )

    @pytest.mark.parametrize("stamped", [False, True])
    @pytest.mark.parametrize("tier", [False, True], ids=["ram", "tier"])
    def test_rows_are_the_pairs(self, tmp_path, tier, stamped):
        by_pairs = self.churned(tmp_path / "pairs", tier)
        by_rows = self.churned(tmp_path / "rows", tier)
        rng = random.Random(43)
        windows = [random_window(rng, side=0.3) for _ in range(8)]
        # 2 x MIRROR_QUERY_STREAK mutation-free queries (the second half
        # mirror-served), one write on each tree, then walked again.
        script = windows * (2 * MIRROR_QUERY_STREAK // len(windows))
        script += [None] + windows
        served = []
        for window in script:
            if window is None:
                for tree in (by_pairs, by_rows):
                    tree.update_object(7, None, Rect(0.5, 0.5, 0.51, 0.51))
                continue
            pairs = by_pairs.search(window)
            rows = by_rows.search_rows(window, stamped)
            assert by_pairs._served_by_mirror == by_rows._served_by_mirror
            served.append(by_rows._served_by_mirror)
            flat = [(oid, r.xmin, r.ymin, r.xmax, r.ymax) for oid, r in pairs]
            assert [row[:5] for row in rows] == flat and rows
            assert [struct.pack("<q4d", *row[:5]) for row in rows] == [
                struct.pack("<q4d", *row) for row in flat
            ]
            assert all(len(row) == 5 + stamped for row in rows)
            assert self.tallies(by_rows) == self.tallies(by_pairs)
            if stamped:
                # Asked of both twins, so their tallies stay equal.
                for tree in (by_pairs, by_rows):
                    latest = [tree.memo.latest_stamp(row[0]) for row in rows]
                assert all(
                    s is None or row[5] == s for row, s in zip(rows, latest)
                ) and any(s is not None for s in latest)
        assert True in served and served[0] is False and served[-1] is False
        for tree in (by_pairs, by_rows):
            tree.memo.close()


class TestCleanUponTouch:
    def test_touch_cleans_same_leaf_versions(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=True, inspection_ratio=0.0
        )
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        for _ in range(20):
            # Tiny moves: the new entry lands in the leaf holding the old
            # one, which clean-upon-touch then sweeps for free.
            tree.update_object(1, None, Rect.from_point(0.5, 0.5))
        assert leaf_entry_count(tree) <= 3

    def test_touch_reduces_garbage_vs_token_only(self):
        results = {}
        for touch in (False, True):
            tree = build_rum_tree(
                node_size=SMALL_NODE,
                clean_upon_touch=touch,
                inspection_ratio=0.1,
            )
            positions = populate(tree, 150, seed=67)
            random_walk(tree, positions, steps=600, seed=68, distance=0.05)
            results[touch] = tree.garbage_count()
        assert results[True] < results[False]

    def test_touch_costs_no_extra_io(self):
        """Clean-upon-touch must not change the I/O of an update that hits
        a garbage-free leaf, and must cost the same 2 I/Os when cleaning."""
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=True, inspection_ratio=0.0
        )
        tree.insert_object(1, Rect.from_point(0.5, 0.5))
        before = tree.stats.snapshot()
        tree.update_object(1, None, Rect.from_point(0.5, 0.5))
        delta = tree.stats.snapshot() - before
        assert delta.leaf_total == 2  # read + write, cleaning included


class TestGarbageMetrics:
    def test_garbage_count_exact(self):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
        )
        populate(tree, 50, seed=69)
        assert tree.garbage_count() == 0
        for oid in range(10):
            tree.update_object(oid, None, Rect.from_point(0.9, 0.9))
        # Each update created one obsolete entry; splits may already have
        # swept a few for free (clean-on-split), which the cleaner counts.
        assert tree.garbage_count() + tree.cleaner.entries_removed == 10
        assert tree.garbage_ratio(50) == pytest.approx(
            (10 - tree.cleaner.entries_removed) / 50
        )

    def test_garbage_ratio_zero_objects(self, rum_tree):
        assert rum_tree.garbage_ratio(0) == 0.0

    def test_memo_size_bytes(self, rum_tree):
        populate(rum_tree, 30, seed=70)
        assert rum_tree.memo_size_bytes() == rum_tree.memo.size_bytes()


class TestEntryCountConservation:
    def test_entries_equal_objects_plus_garbage(self):
        """Physical leaf entries = live latest entries + obsolete ones;
        the memo's total N_old upper-bounds the garbage."""
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.2)
        positions = populate(tree, 100, seed=71)
        random_walk(tree, positions, steps=400, seed=72, distance=0.1)
        garbage = tree.garbage_count()
        assert leaf_entry_count(tree) == 100 + garbage
        assert tree.memo.total_n_old() >= garbage


# Steps of one eighth on a grid of eighths: a moved object mostly stays in
# its leaf (so the touch sweeps its old entry) and keeps landing on other
# objects' coordinates, so swept entries on a leaf's edge — alone or side
# by side — are the common case rather than the rare one.
_STEP = st.sampled_from([-0.125, 0.0, 0.125])
_EXTENT = st.sampled_from([0.0, 0.0, 0.125])
_MOVES = st.lists(
    st.tuples(st.integers(0, 29), _STEP, _STEP, _EXTENT, _EXTENT),
    min_size=10,
    max_size=80,
)


class TestMBRShortcut:
    """An insertion adjusts MBRs from what it holds — the rectangle the
    parent entry carries, the entry placed, the entries swept — and scans
    the node again only when a swept entry touched the boundary."""

    @given(moves=_MOVES, touch=st.booleans())
    @settings(max_examples=120)
    def test_directory_mbrs_stay_exact_after_every_operation(
        self, moves, touch
    ):
        tree = build_rum_tree(
            node_size=SMALL_NODE, inspection_ratio=0.3, clean_upon_touch=touch
        )
        positions = {
            oid: Rect.from_point((oid % 6) / 8, (oid // 6) / 8)
            for oid in range(30)
        }
        for oid, rect in positions.items():
            tree.insert_object(oid, rect)
            tree.check_invariants()
        for oid, dx, dy, w, h in moves:
            old = positions[oid]
            x = min(max(old.xmin + dx, 0.0), 1.0)
            y = min(max(old.ymin + dy, 0.0), 1.0)
            positions[oid] = Rect(x, y, min(x + w, 1.0), min(y + h, 1.0))
            tree.update_object(oid, None, positions[oid])
            tree.check_invariants()
        for oid, rect in positions.items():
            assert (oid, rect) in tree.search(rect)

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("oid", [2, 3])
    def test_swept_entry_that_defined_an_edge_shrinks_the_mbr(
        self, mbr_calls, reflect, oid
    ):
        # oids 2 and 3 each define one edge alone (xmax and ymin; xmin
        # and ymax when reflected).  The new place is inside the same
        # leaf, so the touch sweeps the old entry and the edge goes.
        tree, low, cluster = two_cluster_tree(reflect)
        held = held_rect(tree, low)
        del mbr_calls[:]
        cluster[oid] = Rect.from_point(0.2, 0.25)
        tree.update_object(oid, None, cluster[oid])
        assert set(mbr_calls) == {low}
        assert held_rect(tree, low) == Rect.union_all(cluster.values())
        assert held_rect(tree, low) != held
        tree.check_invariants()

    @pytest.mark.parametrize("reflect", [False, True])
    def test_swept_entry_beside_another_on_the_edge_keeps_the_mbr(
        self, mbr_calls, reflect
    ):
        # oid 0 lies on xmin (xmax when reflected), and so does oid 1:
        # the scan cannot be skipped, and it finds the same rectangle.
        tree, low, _cluster = two_cluster_tree(reflect)
        held = held_rect(tree, low)
        del mbr_calls[:]
        tree.update_object(0, None, Rect.from_point(0.2, 0.25))
        assert set(mbr_calls) == {low}
        assert held_rect(tree, low) is held
        tree.check_invariants()

    def test_swept_interior_entry_is_not_scanned_for(self, mbr_calls):
        tree, low, _cluster = two_cluster_tree()
        held = held_rect(tree, low)
        removed = tree.cleaner.entries_removed
        del mbr_calls[:]
        tree.update_object(4, None, Rect.from_point(0.22, 0.22))
        assert tree.cleaner.entries_removed == removed + 1
        assert mbr_calls == []
        assert held_rect(tree, low) is held
        # ... nor when the new entry grows the leaf: growth is a union.
        tree.update_object(5, None, Rect.from_point(0.35, 0.15))
        assert tree.cleaner.entries_removed == removed + 2
        assert mbr_calls == []
        assert held_rect(tree, low) == Rect(0.1, 0.1, 0.35, 0.3)
        tree.check_invariants()

    def test_token_step_scans_only_for_a_boundary_entry(self, mbr_calls):
        tree, low, cluster = two_cluster_tree(clean_upon_touch=False)
        held = held_rect(tree, low)
        # Both old entries become garbage in the low leaf; the new ones
        # go to the far cluster.
        tree.update_object(4, None, Rect.from_point(0.8, 0.75))
        del mbr_calls[:]
        assert tree.clean_at(low)[1] == 1
        assert mbr_calls == [] and held_rect(tree, low) is held
        tree.update_object(2, None, Rect.from_point(0.75, 0.8))
        del mbr_calls[:]
        assert tree.clean_at(low)[1] == 1
        assert set(mbr_calls) == {low}
        del cluster[4], cluster[2]
        assert held_rect(tree, low) == Rect.union_all(cluster.values())
        tree.check_invariants()

    def test_every_insertion_adjusts_through_the_one_function(self):
        """A root that is a leaf (empty path), a tree without
        clean-upon-touch and index entries reinserted above the leaves
        all take ``_adjust_upward`` with the descent's path."""
        for touch in (True, False):
            tree = build_rum_tree(
                node_size=SMALL_NODE, inspection_ratio=0.3,
                clean_upon_touch=touch,
            )
            calls = []
            adjust = tree._adjust_upward

            def logged(node, path=(), grown=None, left=None):
                calls.append((node.is_leaf, len(path), grown, left))
                adjust(node, path, grown, left)

            tree._adjust_upward = logged
            tree.insert_object(0, Rect.from_point(0.5, 0.5))
            assert calls == [(True, 0, Rect.from_point(0.5, 0.5), ())]
            positions = populate(tree, 300, seed=3)
            random_walk(tree, positions, steps=300, seed=4, distance=0.2)
            tree.check_invariants()
            assert tree.height == 3
            # Descents: leaf insertions carry the whole path, index
            # entries reinserted at level 1 the part above them.
            assert {(True, 2), (False, 1)} <= {
                (is_leaf, depth)
                for is_leaf, depth, grown, left in calls
                if grown is not None
            }
            # Only clean-upon-touch sweeps entries during an insertion.
            assert touch == any(
                left for _leaf, _depth, grown, left in calls
                if grown is not None
            )
