"""Tests for the sharded serving layer (``repro.serving``).

Covers the router (routing, migration, fan-out merge, kNN), the wire
protocol's framing edge cases, and a live server/client round trip over
a real socket.
"""

import random
import socket
import sys
import threading

import pytest

from repro.obs import Observability
from repro.rtree.geometry import Rect
from repro.rtree.zorder import morton_key, shard_for_key, shards_for_window
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.serving import router as router_module
from repro.serving.protocol import (
    MAX_FRAME,
    recv_frame,
    rect_from_wire,
    rect_to_wire,
    results_from_wire,
    results_to_wire,
    send_frame,
)


def _square(x, y, half=0.01):
    return Rect(x - half, y - half, x + half, y + half)


class TestShardRouterBasics:
    def test_upsert_query_delete(self):
        with ShardRouter(4) as router:
            router.upsert(1, _square(0.2, 0.2))
            router.upsert(2, _square(0.8, 0.8))
            assert router.count_objects() == 2
            hits = router.query(Rect(0.1, 0.1, 0.3, 0.3))
            assert [row[0] for row in hits] == [1]
            assert router.delete(1)
            assert not router.delete(1)  # second delete: gone
            assert router.count_objects() == 1
            assert router.query(Rect(0.1, 0.1, 0.3, 0.3)) == []

    def test_single_shard_router(self):
        with ShardRouter(1) as router:
            for oid in range(20):
                router.upsert(oid, _square(oid / 20.0, oid / 20.0))
            assert router.count_objects() == 20
            assert router.shard_object_counts() == [20]

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_served_operations_reach_the_tree_counters(self, n_shards):
        """Regression: the router re-typed the memo filter on top of
        ``range_search`` / ``iter_nearest``, so served queries bypassed
        the trees' one counted entry point (``tree.queries`` and
        ``tree.knn_queries`` read 0 behind a router)."""
        obs = Observability(level="metrics")
        with ShardRouter(n_shards, obs=obs) as router:
            # Objects stay in their quadrant (no migrations), and every
            # window sits inside one: a range query has one shard leg.
            spots = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)]
            for step in range(300):
                x, y = spots[step % 4]
                router.upsert(step % 60, _square(x + step % 7 / 100, y))
            for step in range(50):
                x, y = spots[step % 4]
                assert router.query(_square(x, y, half=0.1))
            for _ in range(7):
                assert len(router.nearest_neighbors(0.5, 0.5, 3)) == 3
            router.attach_obs(None)  # settles the sampled query counter
        counters = obs.registry.snapshot().counters
        assert counters["tree.updates"] == 300
        assert counters["tree.queries"] == 50
        # A kNN asks every shard for its k nearest.
        assert counters["tree.knn_queries"] == 7 * n_shards

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(3)

    def test_update_moves_object(self):
        with ShardRouter(4) as router:
            router.upsert(7, _square(0.1, 0.1))
            router.upsert(7, _square(0.15, 0.15))  # same shard
            assert router.count_objects() == 1
            hits = results_from_wire(router.query(Rect(0.0, 0.0, 0.3, 0.3)))
            assert len(hits) == 1
            assert hits[0][1].xmin == pytest.approx(0.14)

    def test_objects_distribute_across_shards(self):
        with ShardRouter(4) as router:
            for oid in range(200):
                router.upsert(
                    oid, _square((oid % 20) / 20.0 + 0.02,
                                 (oid // 20) / 10.0 + 0.03)
                )
            counts = router.shard_object_counts()
            assert sum(counts) == 200
            assert all(c > 0 for c in counts)


class TestMigration:
    def test_boundary_crossing_migrates(self):
        with ShardRouter(4) as router:
            # Shard layout at 2 bits: y then x split — (0.2, 0.2) and
            # (0.8, 0.8) are in different shards.
            first = router.upsert(42, _square(0.2, 0.2))
            second = router.upsert(42, _square(0.8, 0.8))
            assert not first["migrated"]
            assert second["migrated"]
            assert second["shard"] != first["shard"]
            assert router.count_objects() == 1
            # Only the new position answers queries.
            assert router.query(Rect(0.1, 0.1, 0.3, 0.3)) == []
            hits = router.query(Rect(0.7, 0.7, 0.9, 0.9))
            assert [row[0] for row in hits] == [42]
            assert router.stats()["tallies"]["migrations"] == 1

    def test_migration_leaves_old_shard_consistent(self):
        with ShardRouter(4) as router:
            for oid in range(50):
                router.upsert(oid, _square(0.1 + (oid % 10) * 0.02, 0.2))
            # March every object to the far corner: all migrate.
            for oid in range(50):
                router.upsert(oid, _square(0.8 + (oid % 10) * 0.01, 0.9))
            assert router.count_objects() == 50
            assert router.stats()["tallies"]["migrations"] == 50
            everywhere = router.query(Rect(0, 0, 1, 1))
            assert len(everywhere) == 50
            for shard in router.shards:
                shard.tree.check_invariants()

    def test_delete_after_migration(self):
        with ShardRouter(4) as router:
            router.upsert(5, _square(0.2, 0.2))
            router.upsert(5, _square(0.8, 0.8))
            assert router.delete(5)
            assert router.count_objects() == 0
            assert router.query(Rect(0, 0, 1, 1)) == []


class TestFanOut:
    def test_query_pad_finds_spilling_rect(self):
        with ShardRouter(4) as router:
            # Centre routes to the upper-right shard, but the rect
            # spills well into the lower-left one.
            router.upsert(1, Rect(0.45, 0.45, 0.56, 0.56))
            hits = router.query(Rect(0.40, 0.40, 0.47, 0.47))
            assert [row[0] for row in hits] == [1]

    def test_query_spanning_all_shards(self):
        with ShardRouter(4) as router:
            for oid in range(40):
                router.upsert(
                    oid, _square((oid % 8) / 8.0 + 0.05,
                                 (oid // 8) / 5.0 + 0.05)
                )
            hits = router.query(Rect(0, 0, 1, 1))
            assert [row[0] for row in hits] == list(range(40))

    def test_mid_migration_row_is_the_newer_one_once_in_oid_order(self):
        with ShardRouter(4) as router:
            for oid in range(40):
                router.upsert(
                    oid, _square((oid % 8) / 8.0 + 0.05,
                                 (oid // 8) / 5.0 + 0.05)
                )
            # Object 9, caught mid-migration: inserted on its new shard
            # (a newer stamp), its old entry not yet memo-deleted.
            old_home = router.shard_for_rect(_square(0.175, 0.25))
            moved = _square(0.8, 0.8)
            new_home = router.shards[router.shard_for_rect(moved)]
            assert new_home.index != old_home
            new_home.tree.insert_object(9, moved)
            for shard in router.shards:
                found = shard.tree.search(Rect(0, 0, 1, 1))
                assert (9 in dict(found)) == (
                    shard.index in (old_home, new_home.index)
                )
            for window in (Rect(0, 0, 1, 1), Rect(0.1, 0.1, 0.9, 0.9)):
                assert len(router._targets(window)) > 1
                rows = router.query(window)
                oids = [row[0] for row in rows]
                assert oids == sorted(oids)
                assert oids.count(9) == 1
                assert rows[oids.index(9)] == (
                    9, moved.xmin, moved.ymin, moved.xmax, moved.ymax
                )
                assert all(len(row) == 5 for row in rows)

    def test_knn_across_shards(self):
        with ShardRouter(4) as router:
            # A ring of points around the centre, one per quadrant.
            positions = {
                1: (0.45, 0.45), 2: (0.55, 0.45),
                3: (0.45, 0.55), 4: (0.55, 0.55),
                5: (0.1, 0.1), 6: (0.9, 0.9),
            }
            for oid, (x, y) in positions.items():
                router.upsert(oid, _square(x, y))
            got = router.nearest_neighbors(0.5, 0.5, 4)
            assert sorted(row[0] for row in got) == [1, 2, 3, 4]
            assert router.nearest_neighbors(0.5, 0.5, 0) == []
            everyone = router.nearest_neighbors(0.5, 0.5, 100)
            assert len(everyone) == 6

    def test_knn_sees_only_latest_position(self):
        with ShardRouter(4) as router:
            router.upsert(9, _square(0.5, 0.5))
            router.upsert(9, _square(0.9, 0.9))  # migrates away
            got = results_from_wire(router.nearest_neighbors(0.5, 0.5, 1))
            assert len(got) == 1
            oid, rect = got[0]
            assert oid == 9
            assert rect.xmin == pytest.approx(0.89)

    def test_fan_out_starts_no_thread(self):
        """A multi-shard query visits its shards on the caller's thread:
        a spanning window and a kNN leave the thread set as it was, and
        both answer what a brute force over the inserted objects does."""
        rng = random.Random(30)
        objects = {}
        with ShardRouter(4) as router:
            for oid in range(200):
                rect = _square(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
                objects[oid] = rect
                router.upsert(oid, rect)
            threads = set(threading.enumerate())
            window = Rect(0.3, 0.3, 0.7, 0.7)
            assert len(router._targets(window)) == 4
            hits = router.query(window)
            knn = router.nearest_neighbors(0.5, 0.5, 12)
            assert set(threading.enumerate()) == threads
        assert results_from_wire(hits) == sorted(
            (oid, rect) for oid, rect in objects.items()
            if rect.intersects(window)
        )
        nearest = sorted(objects, key=lambda oid: objects[oid].min_dist(0.5, 0.5))
        assert [row[0] for row in knn] == nearest[:12]

    def test_stats_shape(self):
        with ShardRouter(2) as router:
            router.upsert(1, _square(0.3, 0.3))
            stats = router.stats()
            assert stats["n_shards"] == 2
            assert stats["objects"] == 1
            assert len(stats["shards"]) == 2
            assert stats["tallies"]["updates"] == 1
            import json

            json.dumps(stats)  # must be JSON-serialisable as promised


class ReferenceRouter(ShardRouter):
    """The router with the reference formulae where it keeps fast forms:
    the full Morton key's prefix, and ``shards_for_window`` over a grown
    ``Rect`` with every cell re-derived."""

    def shard_for_rect(self, rect):
        return shard_for_key(
            morton_key(
                (rect.xmin + rect.xmax) * 0.5, (rect.ymin + rect.ymax) * 0.5
            ),
            self._bits,
        )

    def _targets(self, window):
        pad = self._query_pad()
        grown = Rect(
            window.xmin - pad, window.ymin - pad,
            window.xmax + pad, window.ymax + pad,
        )
        return shards_for_window(grown, self._bits)


class TestRoutingFastForms:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8, 16, 32, 64])
    def test_fan_out_equals_shards_for_window(self, n_shards):
        rng = random.Random(n_shards)
        with ShardRouter(n_shards) as router:
            reference = ReferenceRouter._targets
            for pad in (0.0, 0.004, 0.13, 2.0):
                router._max_half_extent = pad
                for _ in range(400):
                    # Random windows, a third of them hanging over (or
                    # wholly past) a border, plus the cell edges.
                    x = rng.uniform(-0.4, 1.2)
                    y = rng.uniform(-0.4, 1.2)
                    if rng.random() < 0.2:
                        x = rng.randrange(9) / 8.0
                    side = rng.choice((0.0, 1e-9, rng.uniform(0.0, 0.5)))
                    window = Rect(x, y, x + side, y + side)
                    assert router._targets(window) == reference(
                        router, window
                    ), (window, pad)
            router._max_half_extent = 0.0
            assert router._targets(Rect(0, 0, 1, 1)) == list(range(n_shards))
            assert router._targets(Rect(7.0, 7.0, 8.0, 8.0)) == [n_shards - 1]

    def test_differential_replay_against_the_reference_formulae(self):
        """The same seeded operations through the fast forms and through
        the reference ones: every answer, tally and placement equal."""
        rng = random.Random(23)
        ops = []
        for _ in range(1500):
            roll = rng.random()
            oid = rng.randrange(120)
            if roll < 0.55:
                # Half of the moves cross a cell; some hang off the square.
                x, y = rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)
                ops.append(("upsert", oid, _square(x, y, rng.uniform(0, 0.03))))
            elif roll < 0.6:
                ops.append(("delete", oid))
            else:
                x, y = rng.uniform(-0.1, 1.0), rng.uniform(-0.1, 1.0)
                side = rng.uniform(0.0, 0.4)
                ops.append(("query", Rect(x, y, x + side, y + side)))
        with ShardRouter(4) as fast, ReferenceRouter(4) as reference:
            for op, *args in ops:
                assert getattr(fast, op)(*args) == getattr(reference, op)(
                    *args
                ), (op, args)
            got, want = fast.stats(), reference.stats()
            assert got["tallies"] == want["tallies"]
            assert got["tallies"]["migrations"] > 100
            assert got["objects_per_shard"] == want["objects_per_shard"]
            assert got["shards"] == want["shards"]  # leaf I/O per shard
            assert fast._query_pad() == reference._query_pad()


class _CountingStats:
    """A shard's ``IOStats`` behind a tally of leaf-I/O readings: the
    router reads ``leaf_reads + leaf_writes``, one ``leaf_reads`` load
    a reading."""

    def __init__(self, stats):
        self._stats = stats
        self.reads = 0

    def __getattr__(self, name):
        if name == "leaf_reads":
            self.reads += 1
        return getattr(self._stats, name)


class TestSimulatedIO:
    def _router(self, monkeypatch, io_latency):
        """One shard, every leaf-I/O reading and ``sleep`` tallied."""
        router = ShardRouter(1, io_latency=io_latency)
        tree = router.shards[0].tree
        counting = _CountingStats(tree.stats)
        monkeypatch.setattr(tree, "stats", counting)
        slept = []
        monkeypatch.setattr(router_module.time, "sleep", slept.append)
        return router, counting, slept

    def test_positive_latency_sleeps_each_operations_own_leaf_io(
        self, monkeypatch
    ):
        router, counting, slept = self._router(monkeypatch, 0.25)
        stats = counting._stats  # this test's own readings go untallied

        def bracketed(call, *args):
            """``call(*args)``'s leaf I/O, checked to be slept exactly."""
            before = stats.leaf_reads + stats.leaf_writes
            reads, naps = counting.reads, len(slept)
            assert call(*args)
            leaf_io = stats.leaf_reads + stats.leaf_writes - before
            # The exact bracket: two readings, one sleep of its size.
            assert counting.reads - reads == 2
            assert slept[naps:] == ([leaf_io * 0.25] if leaf_io else [])
            return leaf_io

        with router:
            for i in range(60):
                if i % 3 == 2:
                    bracketed(router.query, _square(0.5, 0.5, 0.2))
                elif i % 3 == 1:
                    bracketed(router.nearest_neighbors, 0.5, 0.5, 3)
                else:
                    bracketed(router.upsert, i, _square(0.3 + i / 200.0, 0.5))
            assert len(slept) > 40
            # A delete writes only the memo; the cleaning it drives is its
            # leaf I/O, and it sleeps that like any other operation.
            deletes = [bracketed(router.delete, oid) for oid in range(0, 60, 3)]
            assert any(deletes) and router.count_objects() == 0

    def test_spanning_query_sleeps_once_per_shard_it_visits(
        self, monkeypatch
    ):
        """Over 4 shards a spanning window visits each shard in turn and
        sleeps on each one's channel, each sleep sized to that shard's
        own leaf I/O; a migration sleeps its insert on the new shard's
        channel and its memo-only delete on the old one's."""
        router = ShardRouter(4, io_latency=0.25)
        counters = []
        channels = []  # the shard whose channel each sleep was taken on

        class Channel:
            def __init__(self, index):
                self.index = index

            def __enter__(self):
                channels.append(self.index)

            def __exit__(self, *exc):
                return None

        for shard in router.shards:
            counting = _CountingStats(shard.tree.stats)
            monkeypatch.setattr(shard.tree, "stats", counting)
            monkeypatch.setattr(shard, "io_lock", Channel(shard.index))
            counters.append(counting)
        slept = []
        monkeypatch.setattr(router_module.time, "sleep", slept.append)

        def bracket():
            return (
                [c._stats.leaf_reads + c._stats.leaf_writes for c in counters],
                [c.reads for c in counters],
            )

        def since(io_before, reads_before):
            return (
                [c._stats.leaf_reads + c._stats.leaf_writes - b
                 for c, b in zip(counters, io_before)],
                [c.reads - r for c, r in zip(counters, reads_before)],
            )

        def rect_of(oid, row):
            return _square(0.05 + oid % 12 / 12.5, 0.05 + row / 11.0)

        with router:
            for oid in range(120):
                router.upsert(oid, rect_of(oid, oid // 12))
            window = Rect(0.2, 0.2, 0.8, 0.8)
            assert router._targets(window) == [0, 1, 2, 3]
            before = bracket()
            del slept[:], channels[:]
            assert router.query(window)
            leaf_io, reads = since(*before)
            assert reads == [2] * 4
            assert all(io > 0 for io in leaf_io)
            assert slept == [io * 0.25 for io in leaf_io]
            assert channels == [0, 1, 2, 3]
            # The bottom row moves to the top: every move migrates.
            old_slept = 0
            for oid in range(12):
                old = router.shard_for_rect(rect_of(oid, 0))
                new = router.shard_for_rect(rect_of(oid, 10))
                before = bracket()
                del slept[:], channels[:]
                assert router.upsert(oid, rect_of(oid, 10))["migrated"]
                leaf_io, reads = since(*before)
                assert reads == [2 * (i in (old, new)) for i in range(4)]
                assert list(zip(channels, slept)) == [
                    (i, leaf_io[i] * 0.25) for i in (new, old) if leaf_io[i]
                ]
                old_slept += leaf_io[old] > 0
            assert old_slept > 0

    def test_zero_latency_reads_no_tally_and_never_sleeps(self, monkeypatch):
        router, counting, slept = self._router(monkeypatch, 0.0)
        with router:
            for i in range(30):
                router.upsert(i, _square(0.3 + i / 100.0, 0.5))
                router.query(_square(0.5, 0.5, 0.2))
                router.nearest_neighbors(0.5, 0.5, 3)
            router.delete(3)
        assert counting.reads == 0 and slept == []

    def test_four_callers_sleep_exactly_their_leaf_io(self, monkeypatch):
        """Each bracket is read inside the exclusive latch, so over 4
        callers on one shard the total slept is ``io_latency`` × the
        run's leaf I/O; a bracket taken outside the latch would also
        count a neighbour's I/O."""
        router, counting, slept = self._router(monkeypatch, 0.25)
        stats = counting._stats
        errors = []

        def caller(seed):
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    roll = rng.random()
                    if roll < 0.5:
                        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                        router.upsert(rng.randrange(100), _square(x, y))
                    elif roll < 0.8:
                        router.query(_square(rng.random(), rng.random(), 0.1))
                    else:
                        router.nearest_neighbors(rng.random(), rng.random(), 3)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        with router:
            for oid in range(100):
                router.upsert(oid, _square(0.05 + oid / 120.0, 0.5))
            before = stats.leaf_reads + stats.leaf_writes
            del slept[:]
            threads = [
                threading.Thread(target=caller, args=(k,)) for k in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            leaf_io = stats.leaf_reads + stats.leaf_writes - before
        assert errors == []
        assert leaf_io > 0 and sum(slept) == leaf_io * 0.25


class TestClose:
    def test_close_releases_every_spilled_run_file(self, tmp_path):
        """``close`` closes every shard's memo: no run keeps its file
        handle, and a second ``close`` is harmless."""
        rng = random.Random(31)
        router = ShardRouter(4, memo_dir=str(tmp_path), memo_spill_budget=256)
        for step in range(1200):
            oid = step % 150
            router.upsert(oid, _square(rng.uniform(0.02, 0.98),
                                       rng.uniform(0.02, 0.98)))
        for _ in range(40):
            router.query(_square(rng.random(), rng.random(), 0.2))
        runs = [run for shard in router.shards for run in shard.tree.memo.runs]
        assert any(run._map is not None for run in runs)
        router.close()
        assert all(run._map is None for run in runs)
        router.close()

    def test_server_stop_closes_the_router(self, tmp_path):
        rng = random.Random(32)
        router = ShardRouter(2, memo_dir=str(tmp_path), memo_spill_budget=256)
        with ShardServer(router) as server:
            with ServingClient(*server.address) as client:
                for step in range(800):
                    client.upsert(step % 150, _square(rng.uniform(0.02, 0.98),
                                                      rng.uniform(0.02, 0.98)))
                client.query(Rect(0.0, 0.0, 1.0, 1.0))
        runs = [run for shard in router.shards for run in shard.tree.memo.runs]
        assert runs and all(run._map is None for run in runs)


class TestRouterRefusesWhatItCannotPlace:
    def test_non_finite_rectangles_touch_nothing(self):
        """HEAD accepted the NaN rect (``count_objects()`` 201, a
        full-square query 200 rows); the inf one made the pad infinite."""
        nan, inf = float("nan"), float("inf")
        full = Rect(0.0, 0.0, 1.0, 1.0)
        with ShardRouter(4) as router:
            for oid in range(200):
                router.upsert(oid, _square((oid % 20) / 20 + 0.02,
                                           (oid // 20) / 10 + 0.02))
            pad, stamp = router._query_pad(), router.stamps.current
            tallies = router.stats()["tallies"]
            for rect in (
                Rect(nan, nan, nan, nan),
                Rect(0.1, 0.1, inf, inf),
                Rect(-inf, 0.1, 0.2, 0.2),
                Rect(0.1, 0.1, 0.2, nan),
            ):
                for oid in (999, 3):  # a new object and a known one
                    with pytest.raises(ValueError, match="non-finite"):
                        router.upsert(oid, rect)
                with pytest.raises(ValueError, match="non-finite"):
                    router.query(rect)
            assert router._query_pad() == pad
            assert router.stamps.current == stamp
            assert router.stats()["tallies"] == tallies
            assert router.count_objects() == len(router.query(full)) == 200
            assert router._targets(_square(0.1, 0.1)) == [0]

    def test_directory_is_written_once_the_shard_took_the_update(self):
        """HEAD wrote the entry first: a raising ``update_object`` left
        ``count_objects()`` at 1 and ``delete`` answering True."""
        with ShardRouter(4) as router:
            boom = RuntimeError("disk full")

            def refuse(*_args, **_kwargs):
                raise boom

            for shard in router.shards:
                shard.tree.update_object = refuse
                shard.tree.insert_object = refuse
            with pytest.raises(RuntimeError, match="disk full"):
                router.upsert(1, _square(0.2, 0.2))
            assert router.count_objects() == 0
            assert router.delete(1) is False
            for shard in router.shards:
                del shard.tree.update_object
            router.upsert(1, _square(0.2, 0.2))
            # A migration whose insert is refused leaves the object where
            # it was, and the latch free for the next caller.
            with pytest.raises(RuntimeError, match="disk full"):
                router.upsert(1, _square(0.8, 0.8))
            assert router.shard_object_counts() == [1, 0, 0, 0]
            assert results_from_wire(router.query(Rect(0, 0, 1, 1))) == [
                (1, _square(0.2, 0.2))
            ]
            assert router.delete(1) is True


class TestProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_frame_round_trip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping", "n": 3})
            assert recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_is_none(self):
        a, b = self._pair()
        send_frame(a, {"op": "ping"})
        a.close()
        try:
            assert recv_frame(b) == {"op": "ping"}
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        import struct

        a, b = self._pair()
        a.sendall(struct.pack(">I", MAX_FRAME + 1))
        try:
            with pytest.raises(ValueError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_outbound_frame_rejected(self):
        a, b = self._pair()
        try:
            with pytest.raises(ValueError):
                send_frame(a, {"blob": "x" * (MAX_FRAME + 1)})
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        import struct

        a, b = self._pair()
        payload = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(ValueError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_rect_wire_round_trip(self):
        rect = Rect(0.1, 0.2, 0.3, 0.4)
        assert rect_from_wire(rect_to_wire(rect)) == rect
        with pytest.raises(ValueError):
            rect_from_wire([1.0, 2.0])
        wire = results_to_wire([(7, rect), (9, rect)])
        assert wire == [(7, 0.1, 0.2, 0.3, 0.4), (9, 0.1, 0.2, 0.3, 0.4)]
        assert results_from_wire(wire) == [(7, rect), (9, rect)]


class TestServer:
    def test_round_trip_over_socket(self):
        router = ShardRouter(4)
        with ShardServer(router) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                assert client.ping()
                result = client.upsert(1, _square(0.2, 0.2))
                assert result["migrated"] is False
                client.upsert(2, _square(0.8, 0.8))
                assert client.count() == 2
                hits = client.query(Rect(0.1, 0.1, 0.3, 0.3))
                assert [oid for oid, _ in hits] == [1]
                near = client.nearest_neighbors(0.8, 0.8, 1)
                assert [oid for oid, _ in near] == [2]
                assert client.delete(1)
                assert client.count() == 1
                stats = client.stats()
                assert stats["n_shards"] == 4

    def test_server_error_response(self):
        router = ShardRouter(1)
        with ShardServer(router) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                with pytest.raises(RuntimeError, match="unknown op"):
                    client.request({"op": "no-such-op"})
                # The connection survives an error response.
                assert client.ping()

    def test_concurrent_clients(self):
        router = ShardRouter(4)
        errors = []
        with ShardServer(router) as server:
            host, port = server.address

            def worker(base):
                try:
                    with ServingClient(host, port) as client:
                        for i in range(25):
                            oid = base * 1000 + i
                            client.upsert(
                                oid, _square((base + 1) / 10.0, i / 30.0)
                            )
                        client.query(Rect(0, 0, 1, 1))
                except Exception as exc:  # surfaced after the join
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with ServingClient(host, port) as client:
                assert client.count() == 150

    def test_stop_is_idempotent_and_double_start_rejected(self):
        router = ShardRouter(1)
        server = ShardServer(router)
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        server.stop()
        server.stop()  # second stop: no-op

    def test_stop_with_connected_client(self):
        # A client parked in recv() must not wedge shutdown.
        router = ShardRouter(1)
        server = ShardServer(router)
        host, port = server.start()
        client = ServingClient(host, port)
        assert client.ping()
        server.stop()
        client.close()
