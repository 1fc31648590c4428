"""End-to-end tests for the instrumented storage/RUM stack.

The central invariant: with tracing enabled, the sum of per-update leaf
I/O attached to the spans equals the ``IOStats`` delta over the same
interval — the trace never under- or over-counts — and every ``span``
event is exactly one flight-recorder record.
"""

import json
import sys
import threading

import pytest

from repro.core.memo import UpdateMemo
from repro.core.rum import RUMTree
from repro.crashsim import CrashScenario, run_scenario
from repro.experiments.__main__ import main as cli_main
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.obs import ListEventSink, Observability
from repro.rtree.geometry import Rect
from repro.serving.router import ShardRouter
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.filedisk import FileDiskManager
from repro.storage.iostats import IOStats
from repro.workload.objects import default_network_workload


def _traced_obs():
    sink = ListEventSink()
    return Observability(level="trace", sink=sink), sink


def _run_workload(tree, n_objects=120, n_updates=200):
    workload = default_network_workload(
        n_objects, moving_distance=0.02, seed=5
    )
    for oid, rect in workload.initial():
        tree.insert_object(oid, rect)
    for oid, old_rect, new_rect in workload.updates(n_updates):
        tree.update_object(oid, old_rect, new_rect)


class TestSpanIOExactness:
    @pytest.mark.parametrize(
        "build",
        [build_rstar_tree, build_fur_tree, build_rum_tree],
        ids=["rstar", "fur", "rum"],
    )
    def test_update_span_io_sums_to_stats_delta(self, build):
        obs, sink = _traced_obs()
        tree = build(node_size=2048, obs=obs)
        workload = default_network_workload(
            100, moving_distance=0.02, seed=5
        )
        for oid, rect in workload.initial():
            tree.insert_object(oid, rect)
        before = tree.stats.snapshot()
        sink.events.clear()
        for oid, old_rect, new_rect in workload.updates(150):
            tree.update_object(oid, old_rect, new_rect)
        delta = tree.stats.snapshot() - before
        spans = [e for e in sink.of_type("span") if e["name"] == "update"]
        assert len(spans) == 150
        assert sum(s["io"]["leaf_reads"] for s in spans) == delta.leaf_reads
        assert sum(s["io"]["leaf_writes"] for s in spans) == delta.leaf_writes
        span_total = sum(
            sum(s["io"].values()) for s in spans
        )
        assert span_total == delta.grand_total

    def test_query_spans_account_their_io(self):
        obs, sink = _traced_obs()
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree)
        before = tree.stats.snapshot()
        sink.events.clear()
        for _ in range(20):
            tree.search(Rect(0.2, 0.2, 0.8, 0.8))
        delta = tree.stats.snapshot() - before
        spans = [e for e in sink.of_type("span") if e["name"] == "query"]
        assert len(spans) == 20
        assert (
            sum(s["io"]["leaf_reads"] for s in spans) == delta.leaf_reads
        )


def _assert_events_are_records(obs, sink):
    """Every retained recorder record has exactly one ``span`` event with
    the same seq, op, tree and I/O — and no event lacks its record."""
    spans = sink.of_type("span")
    by_seq = {e["seq"]: e for e in spans}
    assert len(by_seq) == len(spans)
    records = obs.recorder.records()
    assert obs.recorder.dropped == 0
    assert sorted(by_seq) == [r.seq for r in records]
    for record in records:
        event = by_seq[record.seq]
        assert event["name"] == record.op
        assert event["tree"] == record.tree
        assert event["io"] == record.io.as_dict()
        assert event["dur_ms"] == record.duration_ms
        assert "parent" not in event and "depth" not in event


class TestOpRecordIsTheTrace:
    def test_event_equals_record(self):
        sink = ListEventSink()
        obs = Observability(level="trace", sink=sink, recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, inspection_ratio=0.5, obs=obs)
        _run_workload(tree, n_updates=300)
        tree.apply_batch([("update", 3, Rect.from_point(0.5, 0.5))])
        tree.delete_object(4)
        for _ in range(5):
            tree.search(Rect(0.2, 0.2, 0.8, 0.8))
        tree.nearest_neighbors(0.5, 0.5, 4)
        ops = {r.op for r in obs.recorder.records()}
        assert ops == {
            "insert", "update", "update_batch", "delete", "query", "knn",
            "cleaner_cycle",
        }
        _assert_events_are_records(obs, sink)

    def test_concurrent_traced_upserts(self):
        """Four threads tracing on four shards at once: one shared span
        stack used to give their events spurious parents and, under
        frequent thread switches, crash a thread in the tracer after its
        update had been applied."""
        sink = ListEventSink()
        obs = Observability(level="trace", sink=sink, recorder_capacity=4096)
        errors = []
        with ShardRouter(4, obs=obs) as router:

            def upserts(k):
                try:
                    for i in range(400):
                        oid = k * 1000 + i
                        x = (oid * 0.618) % 1.0
                        router.upsert(oid, Rect.from_point(x, 1.0 - x))
                except Exception as exc:  # reported to the main thread
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=upserts, args=(k,))
                    for k in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert router.count_objects() == 1600
        spans = sink.of_type("span")
        assert sum(e["name"] == "update" for e in spans) == 1600
        assert not any("parent" in e for e in spans)
        _assert_events_are_records(obs, sink)

    def test_raising_operation_emits_error_event(self, tmp_path):
        sink = ListEventSink()
        obs = Observability(level="trace", sink=sink)
        outcome = run_scenario(
            CrashScenario(option="III", point="wal.force", skip=40),
            tmp_path,
            obs=obs,
        )
        # The crash propagated out of the tree operation ...
        assert outcome.pending is not None
        assert outcome.pending[0] in ("update", "delete")
        # ... which still emitted its span event, flagged, paired with a
        # recorder record.
        (failed,) = [e for e in sink.of_type("span") if e.get("error")]
        assert failed["name"] == outcome.pending[0]
        assert failed["oid"] == outcome.pending[1]
        (record,) = [
            r for r in obs.recorder.records() if r.seq == failed["seq"]
        ]
        assert record.op == failed["name"]
        assert record.io.as_dict() == failed["io"]


class TestMetricsWiring:
    def test_tree_counters_count_operations(self):
        obs, _sink = _traced_obs()
        tree = build_rum_tree(node_size=2048, obs=obs)
        before = obs.registry.snapshot()
        _run_workload(tree, n_updates=50)
        tree.search(Rect(0.0, 0.0, 1.0, 1.0))
        tree.nearest_neighbors(0.5, 0.5, 3)
        delta = obs.registry.snapshot() - before
        # Memo-based inserts and updates are the same operation, so the
        # 120 loading inserts count alongside the 50 updates.
        assert delta.counters["tree.updates"] == 170
        assert delta.counters["tree.queries"] == 1
        assert delta.counters["tree.knn_queries"] == 1
        hist = delta.histograms["tree.update_leaf_io"]
        assert hist.count == 170

    def test_wal_page_writes_never_go_down(self):
        """``wal.page_writes`` is the WAL's own tally: rewinding the
        stack's ``IOStats`` (which also charges ``log_writes``) does not
        move it back (at the parent it read 202, then 0)."""
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, recovery_option="III", obs=obs)
        objects = default_network_workload(200, moving_distance=0.02, seed=5)
        for oid, rect in objects.initial():
            tree.insert_object(oid, rect)
        written = obs.registry.snapshot().counters["wal.page_writes"]
        assert written == tree.stats.log_writes > 0
        tree.stats.reset()
        assert obs.registry.snapshot().counters["wal.page_writes"] == written
        tree.insert_object(200, Rect.from_point(0.5, 0.5))
        assert obs.registry.snapshot().counters["wal.page_writes"] == (
            written + tree.stats.log_writes
        )

    @pytest.mark.parametrize(
        "build",
        [build_rstar_tree, build_fur_tree, build_rum_tree],
        ids=["rstar", "fur", "rum"],
    )
    def test_one_counting_rule_for_three_trees(self, build):
        """Every operation through a public entry point is accounted the
        same way on every tree type (at the parent commit 300 inserts +
        1 delete read 301 / 1 / 0 on RUM / R* / FUR)."""
        obs = Observability(level="metrics", recorder_capacity=4096)
        tree = build(node_size=2048, obs=obs)
        workload = default_network_workload(
            300, moving_distance=0.02, seed=5
        )
        where = {}
        for oid, rect in workload.initial():
            tree.insert_object(oid, rect)
            where[oid] = rect
        for oid, old_rect, new_rect in workload.updates(50):
            tree.update_object(oid, old_rect, new_rect)
            where[oid] = new_rect
        tree.delete_object(7, where[7])
        for _ in range(12):
            tree.search(Rect(0.3, 0.3, 0.7, 0.7))
        for _ in range(3):
            tree.nearest_neighbors(0.5, 0.5, 4)
        assert tree.nearest_neighbors(0.5, 0.5, 0) == []  # not an operation
        tree.attach_obs(None)
        snap = obs.registry.snapshot()
        assert snap.counters["tree.updates"] == 351
        assert snap.counters["tree.queries"] == 12
        assert snap.counters["tree.knn_queries"] == 3
        assert snap.histograms["tree.update_leaf_io"].count == 351
        recorded = {}
        for r in obs.recorder.records():
            recorded[r.op] = recorded.get(r.op, 0) + 1
        # Inserts, deletes and kNN are captured every time; updates and
        # queries are sampled, so the recorder holds some of each.
        assert recorded["insert"] == 300
        assert recorded["delete"] == 1
        assert recorded["knn"] == 3
        assert 1 <= recorded["update"] <= 50
        assert 1 <= recorded["query"] <= 12
        assert snap.histograms["tree.query_leaf_io"].count == (
            recorded["query"] + 3
        )
        # Drift feeds stay as they were: only the RUM-tree's inserts are
        # updates as far as the Section-4 model is concerned.
        samples = snap.gauges["drift.update.samples"]
        if build is build_rum_tree:
            assert samples == 300 + recorded["update"]
        else:
            assert samples == recorded["update"]

    def test_buffer_misses_match_disk_reads(self):
        obs, _sink = _traced_obs()
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree)
        snap = obs.registry.snapshot()
        # Per-page tallies are plain ints published as counters (from
        # the attach); sizes are gauges.
        assert snap.counters["buffer.misses"] == snap.counters[
            "disk.page_reads"
        ]
        assert snap.counters["buffer.hits"] > 0
        assert snap.counters["disk.page_writes"] > 0
        assert snap.gauges["disk.pages"] > 0

    def test_file_disk_publishes_its_tallies(self, tmp_path):
        disk = FileDiskManager(2048, tmp_path)
        tree = RUMTree(
            BufferPool(disk, NodeCodec(2048, rum_leaves=True), IOStats())
        )
        obs = Observability(level="metrics")
        tree.attach_obs(obs)  # counters count from here, after the root write
        before = (disk.reads, disk.writes, disk.syncs)
        _run_workload(tree)
        disk.sync()
        counters = obs.registry.snapshot().counters
        reads, writes, syncs = (
            now - then
            for now, then in zip((disk.reads, disk.writes, disk.syncs), before)
        )
        assert reads > 0 and writes > 0 and syncs == 1
        assert counters["disk.page_reads"] == reads
        assert counters["disk.page_writes"] == writes
        assert counters["disk.syncs"] == syncs
        disk.close()

    def test_wal_append_counter(self):
        obs, _sink = _traced_obs()
        tree = build_rum_tree(
            node_size=2048, recovery_option="III", obs=obs
        )
        _run_workload(tree, n_updates=40)
        snap = obs.registry.snapshot()
        assert snap.counters["wal.appends"] > 0
        assert snap.gauges["wal.records"] > 0

    def test_entries_removed_counts_clean_upon_touch(self):
        """Clean-upon-touch (Section 3.3.3) removes most obsolete entries;
        the registry counter used to count only the token steps'."""
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_objects=500, n_updates=2000)
        removed = obs.registry.snapshot().counters["cleaner.entries_removed"]
        assert tree.cleaner.entries_removed > 0
        assert removed == tree.cleaner.entries_removed

    def test_cleaner_metrics_and_events(self):
        obs, sink = _traced_obs()
        tree = build_rum_tree(
            node_size=2048, inspection_ratio=0.5, obs=obs
        )
        _run_workload(tree, n_updates=300)
        snap = obs.registry.snapshot()
        assert snap.counters["cleaner.token_steps"] > 0
        assert snap.counters["cleaner.cycles"] > 0
        assert snap.histograms["cleaner.cycle_ms"].count == (
            snap.counters["cleaner.cycles"]
        )
        cycles = sink.of_type("cleaner.cycle")
        assert len(cycles) == snap.counters["cleaner.cycles"]
        assert all("dur_ms" in c and "steps" in c for c in cycles)

    def test_fur_case_mix_gauges(self):
        obs, _sink = _traced_obs()
        tree = build_fur_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=100)
        snap = obs.registry.snapshot()
        mix = (
            snap.counters["fur.updates_in_place"]
            + snap.counters["fur.updates_to_sibling"]
            + snap.counters["fur.updates_top_down"]
        )
        assert mix == 100
        assert snap.gauges["fur.index_bytes"] > 0

    def test_memo_purge_counters(self):
        obs, _sink = _traced_obs()
        memo = UpdateMemo()
        memo.attach_obs(obs)
        for oid in range(10):
            memo.record_update(oid, oid + 1)
        purged = memo.purge_phantoms(6)
        snap = obs.registry.snapshot()
        assert purged == 5
        assert snap.counters["memo.purge_runs"] == 1
        assert snap.counters["memo.purged_entries"] == 5
        assert snap.gauges["memo.entries"] == 5
        assert snap.gauges["memo.total_n_old"] == 5


class TestMemoOpTallies:
    def test_memo_gauges_track_per_update_probe_mix(self):
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=200)
        tree.search(Rect(0.0, 0.0, 1.0, 1.0))
        snap = obs.registry.snapshot()
        memo = tree.memo
        # The probe tallies are plain ints published as counters from
        # the attach (here: the memo's birth); they must agree with the
        # live object and partition lookups >= hits.
        assert snap.counters["memo.lookups"] == memo.lookup_count
        assert snap.counters["memo.hits"] == memo.hit_count
        assert memo.lookup_count > 0
        assert 0 <= memo.hit_count <= memo.lookup_count
        assert snap.counters["memo.inserts"] > 0

    def test_memo_mutation_counters_none_when_disabled(self):
        memo = UpdateMemo()
        memo.attach_obs(None)
        memo.record_update(1, 1)
        memo.record_update(1, 2)
        assert memo.is_obsolete(1, 2) is False
        # Every tally is unconditional (both paths pay one int add).
        assert (memo.insert_count, memo.obsoleted_count) == (1, 1)
        assert memo.lookup_count == 1
        assert memo.hit_count == 1

    def test_detach_stops_mutation_counters_keeps_tallies(self):
        obs = Observability(level="metrics")
        memo = UpdateMemo()
        memo.attach_obs(obs)
        memo.record_update(1, 1)
        memo.attach_obs(None)
        memo.record_update(2, 2)  # must not raise
        memo.is_obsolete(2, 1)
        assert memo.lookup_count == 1
        # The counter froze at the detach; the tally went on.
        assert obs.registry.snapshot().counters["memo.inserts"] == 1
        assert memo.insert_count == 2


class _FakeClock:
    """Stands in for the ``time`` module the capture reads: every
    ``perf_counter()`` call advances by ``step`` seconds, so a captured
    operation appears to last exactly ``step``."""

    def __init__(self):
        self.now = 0.0
        self.step = 0.0

    def perf_counter(self):
        self.now += self.step
        return self.now


def _recorded(obs, op):
    return sum(1 for r in obs.recorder.records() if r.op == op)


class TestOpSampling:
    """The adaptive stride keeps full capture off most hot ops while the
    counters/histograms stay exact.  Pinned through what the contract
    promises — registry values and flight-recorder coverage — not
    through the sampler's state."""

    def test_update_counter_and_histogram_exact_under_sampling(self):
        obs = Observability(level="metrics", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_objects=120, n_updates=700)
        snap = obs.registry.snapshot()
        assert snap.counters["tree.updates"] == 820
        assert snap.histograms["tree.update_leaf_io"].count == 820
        # Fast in-memory updates widen the stride: the recorder saw only
        # a sample of them (and every loading insert).
        assert 0 < _recorded(obs, "update") < 700
        assert _recorded(obs, "insert") == 120

    def test_trace_level_never_widens_update_stride(self):
        obs = Observability(level="trace", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=300)
        for _ in range(40):
            tree.search(Rect(0.4, 0.4, 0.6, 0.6))
        assert _recorded(obs, "update") == 300
        assert _recorded(obs, "query") == 40

    def test_query_counter_exact_at_detach(self):
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=50)
        for _ in range(37):
            tree.search(Rect(0.4, 0.4, 0.6, 0.6))
        tree.attach_obs(None)  # settles the unsampled remainder
        snap = obs.registry.snapshot()
        assert snap.counters["tree.queries"] == 37

    def test_reattach_resets_strides(self):
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=700)
        for _ in range(100):
            tree.search(Rect(0.4, 0.4, 0.6, 0.6))
        fresh = Observability(level="metrics")
        tree.attach_obs(fresh)
        # Re-attaching settles the old query counter and starts over at
        # every-op capture: the first operation of each class is recorded.
        assert obs.registry.snapshot().counters["tree.queries"] == 100
        tree.update_object(1, None, Rect.from_point(0.5, 0.5))
        tree.search(Rect(0.4, 0.4, 0.6, 0.6))
        assert _recorded(fresh, "update") == 1
        assert _recorded(fresh, "query") == 1

    @pytest.mark.parametrize("op", ["update", "query"])
    def test_coverage_widens_when_fast_and_snaps_back_when_slow(
        self, op, monkeypatch
    ):
        import repro.rtree.base as base

        clock = _FakeClock()
        monkeypatch.setattr(base, "time", clock)
        obs = Observability(level="metrics", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=0)

        def run(n):
            for i in range(n):
                if op == "update":
                    tree.update_object(
                        i % 120, None, Rect.from_point(0.3, 0.3 + i * 1e-4)
                    )
                else:
                    tree.search(Rect(0.4, 0.4, 0.6, 0.6))

        run(600)  # every capture reads as instantaneous
        # The stride doubles per capture: 600 ops are ~10 records.
        assert 5 <= _recorded(obs, op) <= 12
        clock.step = 1.0  # from here every capture reads as 1 s: slow
        run(300)  # long enough to reach the next sampled op
        obs.recorder.clear()
        run(20)
        assert _recorded(obs, op) == 20  # back to every-op capture
        clock.step = 0.0
        run(600)
        assert _recorded(obs, op) < 40  # and it widens again
        tree.attach_obs(None)
        counters = obs.registry.snapshot().counters
        if op == "update":
            assert counters["tree.updates"] == 120 + 1520
        else:
            assert counters["tree.queries"] == 1520


class TestSharedRegistryCounts:
    """Shards attached to one registry: every published count is the
    sum of the shards' own tallies, and a snapshot delta is the work of
    its interval."""

    #: Metric -> the tally one shard tree keeps for it.
    SHARD_TALLIES = {
        "memo.lookups": lambda tree: tree.memo.lookup_count,
        "memo.hits": lambda tree: tree.memo.hit_count,
        "buffer.hits": lambda tree: tree.buffer.hit_count,
        "disk.page_reads": lambda tree: tree.buffer.disk.reads,
        "tree.updates": lambda tree: tree.update_count,
        "tree.queries": lambda tree: tree.query_count,
    }

    def _tallies(self, router):
        tallies = {
            name: sum(read(shard.tree) for shard in router.shards)
            for name, read in self.SHARD_TALLIES.items()
        }
        tallies["router.migrations"] = router.stats()["tallies"]["migrations"]
        return tallies

    @staticmethod
    def _mix(router, rng, n_ops):
        for _ in range(n_ops):
            x, y = rng.random() * 0.7, rng.random() * 0.7
            if rng.random() < 0.8:
                router.upsert(rng.randrange(300), Rect.from_point(x, y))
            else:
                router.query(Rect(x, y, x + 0.3, y + 0.3))

    def test_counts_sum_over_shards_and_deltas_are_intervals(self):
        import random

        obs = Observability(level="metrics")
        rng = random.Random(3903)
        with ShardRouter(4, obs=obs) as router:
            at_attach = self._tallies(router)
            self._mix(router, rng, 800)
            before, at_before = obs.registry.snapshot(), self._tallies(router)
            self._mix(router, rng, 800)
            after, at_after = obs.registry.snapshot(), self._tallies(router)
        interval = after - before
        for name in at_after:
            published = after.counters[name]
            assert published == at_after[name] - at_attach[name], name
            done = at_after[name] - at_before[name]
            assert done > 0, name
            assert interval.counters[name] == done, name


class TestServedQueryParity:
    """A query served over the socket (client, server, router, the
    shards' ``search_rows``) leaves the flight-recorder records and the
    ``tree.queries`` count that ``tree.search`` of the same window on
    the same shards leaves: one range query per shard visited."""

    @staticmethod
    def _router(obs):
        import random

        router = ShardRouter(4, obs=obs)
        rng = random.Random(4807)
        for oid in range(400):
            x, y = rng.random() * 0.99, rng.random() * 0.99
            router.upsert(oid, Rect(x, y, x + 0.01, y + 0.01))
        for oid in range(0, 400, 3):  # garbage for the memo filter
            x, y = rng.random() * 0.99, rng.random() * 0.99
            router.upsert(oid, Rect(x, y, x + 0.01, y + 0.01))
        return router

    @staticmethod
    def _queries(obs):
        return [
            (r.op, r.tree, r.io, r.memo_lookups, r.memo_hits, r.served_by)
            for r in obs.recorder.records() if r.op == "query"
        ]

    def test_served_query_records_as_tree_search(self):
        from repro.serving import ServingClient, ShardServer

        served_obs, direct_obs = _traced_obs()[0], _traced_obs()[0]
        served, direct = self._router(served_obs), self._router(direct_obs)
        windows = [Rect(0.05, 0.05, 0.2, 0.2), Rect(0.3, 0.3, 0.7, 0.7),
                   Rect(0.0, 0.0, 1.0, 1.0), Rect(0.6, 0.1, 0.9, 0.4)]
        fan_outs = []
        with ShardServer(served) as server:
            with ServingClient(*server.address) as client:
                for window in windows:
                    targets = direct._targets(window)
                    fan_outs.append(len(targets))
                    want = {}
                    for index in targets:
                        tree = direct.shards[index].tree
                        want.update(tree.search(window))
                    assert client.query(window) == sorted(want.items())
        assert 1 in fan_outs and max(fan_outs) == 4
        assert self._queries(served_obs) == self._queries(direct_obs)
        assert len(self._queries(served_obs)) == sum(fan_outs)
        for router in (served, direct):
            assert sum(s.tree.query_count for s in router.shards) == sum(
                fan_outs
            )
        assert (
            served_obs.registry.snapshot().counters["tree.queries"]
            == direct_obs.registry.snapshot().counters["tree.queries"]
            == sum(fan_outs)
        )
        direct.close()


class TestAttachDetach:
    def test_level_off_runs_uninstrumented_path(self):
        tree = build_rum_tree(node_size=2048, obs=None)
        assert tree.obs is None
        assert tree._obs_kinds == {}
        _run_workload(tree, n_updates=20)  # must not raise
        assert tree.update_count == 120 + 20  # counted all the same

    def test_reattach_none_detaches(self):
        obs, _sink = _traced_obs()
        tree = build_rum_tree(node_size=2048, obs=obs)
        assert tree.obs is obs
        tree.attach_obs(None)
        assert tree.obs is None
        frozen = obs.registry.snapshot()
        _run_workload(tree, n_updates=20)
        after = obs.registry.snapshot()
        assert after.counters == frozen.counters
        assert after.gauges == frozen.gauges

    def test_metrics_level_skips_spans(self):
        sink = ListEventSink()
        obs = Observability(level="metrics", sink=sink)
        tree = build_rum_tree(node_size=2048, obs=obs)
        _run_workload(tree, n_updates=30)
        assert sink.events == []
        # 120 loading inserts + 30 updates, all memo-based operations.
        assert obs.registry.snapshot().counters["tree.updates"] == 150


class TestCliSidecar:
    def test_obs_out_writes_sidecar(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        out = tmp_path / "obs"
        rc = cli_main(["fig15", "--obs-out", str(out)])
        assert rc == 0
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        assert any(e["type"] == "experiment.start" for e in events)
        assert any(e["type"] == "span" for e in events)
        prom = (out / "metrics.prom").read_text()
        assert "repro_tree_updates" in prom
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["counters"]["tree.updates"] > 0
        assert "telemetry sidecar" in capsys.readouterr().out

    def test_default_obs_cleared_after_run(self, tmp_path, monkeypatch):
        from repro.obs import get_default_obs

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        cli_main(["fig15", "--obs-out", str(tmp_path / "obs")])
        assert get_default_obs() is None
