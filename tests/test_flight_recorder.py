"""Flight recorder tests: ring semantics, slow-op log, dump schema,
tree integration, and exporter round-trips.

The recorder is the per-op half of the observability contract (the
registry is the aggregate half): a bounded ring of the last N operations
with exact I/O deltas, plus a top-K log of the slowest ops that survives
ring eviction.  The property tests drive random op mixes through the
recorder and both exporters and assert the dump round-trips losslessly.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factory import build_rum_tree
from repro.obs import FlightRecorder, Observability, OpRecord, recorder
from repro.obs.recorder import IO_FIELDS, SCHEMA
from repro.rtree.geometry import Rect
from repro.storage.iostats import IOSnapshot
from repro.storage.wal import UM_ENTRY_BYTES
from repro.workload.objects import default_network_workload


def _record(rec, op="query", dur_s=0.001, io8=(1, 0, 1, 0, 0, 0, 0, 0),
            lookups=0, hits=0, served="traversal"):
    rec.record(op, "RUM-tree", dur_s, io8, lookups, hits, served)


class TestRingSemantics:
    def test_capacity_evicts_oldest_first(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            _record(rec, dur_s=i / 1000.0)
        assert len(rec) == 4
        assert rec.recorded_total == 10
        assert rec.dropped == 6
        seqs = [r.seq for r in rec.records()]
        assert seqs == [6, 7, 8, 9]  # oldest first, newest retained

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_keeps_lifetime_counters(self):
        rec = FlightRecorder(capacity=8)
        for _ in range(5):
            _record(rec)
        rec.clear()
        assert len(rec) == 0
        assert rec.recorded_total == 5
        assert rec.dropped == 5

    def test_record_fields_round_trip_to_views(self):
        rec = FlightRecorder()
        _record(rec, op="update", dur_s=0.25,
                io8=(2, 1, 3, 0, 0, 0, 1, 0), lookups=7, hits=4, served="-")
        (r,) = rec.records()
        assert r.op == "update"
        assert r.tree == "RUM-tree"
        assert r.duration_ms == pytest.approx(250.0)
        assert r.io == IOSnapshot(2, 1, 3, 0, 0, 0, 1, 0)
        assert r.memo_lookups == 7
        assert r.memo_hits == 4
        assert r.served_by == "-"
        # counted page accesses: leaf + index + log (internal cached)
        assert r.pages_touched == r.io.counted_total


def _slow_log(monkeypatch, slow_ms, top_k=recorder.SLOW_TOP_K):
    monkeypatch.setattr(recorder, "SLOW_MS", slow_ms)
    monkeypatch.setattr(recorder, "SLOW_TOP_K", top_k)


class TestSlowOpLog:
    def test_top_k_keeps_slowest_and_survives_eviction(self, monkeypatch):
        _slow_log(monkeypatch, 10.0, 3)
        rec = FlightRecorder(capacity=4)
        # 20 ops, durations 0..19ms: slow ops are >= 10ms; top-3 = 17,18,19.
        for i in range(20):
            _record(rec, dur_s=i / 1000.0)
        slow = rec.slow_records()
        assert [round(r.duration_ms) for r in slow] == [19, 18, 17]
        # The slowest retained ops are long gone from the 4-deep ring.
        ring_seqs = {r.seq for r in rec.records()}
        assert all(r.seq not in ring_seqs or r.seq >= 16 for r in slow)

    def test_below_threshold_never_enters_log(self, monkeypatch):
        _slow_log(monkeypatch, 10.0)
        rec = FlightRecorder()
        for _ in range(50):
            _record(rec, dur_s=0.001)
        assert rec.slow_records() == []

    def test_duration_ties_break_by_sequence(self, monkeypatch):
        _slow_log(monkeypatch, 1.0, 2)
        rec = FlightRecorder()
        for _ in range(4):
            _record(rec, dur_s=0.005)
        slow = rec.slow_records()
        assert len(slow) == 2
        assert slow[0].seq < slow[1].seq  # equal durations: oldest first


class TestDumpSchema:
    def test_dump_is_json_ready_and_schema_tagged(self, monkeypatch):
        _slow_log(monkeypatch, 1.0)
        rec = FlightRecorder(capacity=8)
        for i in range(12):
            _record(rec, dur_s=i / 1000.0)
        dump = rec.dump()
        # Must survive json round-trip unchanged (CI artifact contract).
        assert json.loads(json.dumps(dump)) == dump
        assert dump["schema"] == SCHEMA
        assert dump["capacity"] == 8
        assert dump["recorded_total"] == 12
        assert dump["dropped"] == 4
        assert dump["backend"]
        assert len(dump["ops"]) == 8
        for op in dump["ops"]:
            assert set(op) == {
                "seq", "op", "tree", "duration_ms", "io", "memo_lookups",
                "memo_hits", "served_by", "pages_touched",
            }
            assert set(op["io"]) == set(IO_FIELDS)

    def test_op_record_dict_round_trip(self):
        rec = FlightRecorder()
        _record(rec, op="knn", dur_s=0.002,
                io8=(4, 0, 2, 0, 1, 0, 0, 0), lookups=9, hits=3)
        (r,) = rec.records()
        assert OpRecord.from_dict(r.as_dict()) == r


class TestTreeIntegration:
    def _workload(self, tree, n_objects=100, n_updates=150):
        w = default_network_workload(n_objects, moving_distance=0.02, seed=5)
        for oid, rect in w.initial():
            tree.insert_object(oid, rect)
        for oid, old, new in w.updates(n_updates):
            tree.update_object(oid, old, new)

    def test_trace_level_records_every_op(self):
        obs = Observability(level="trace", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs)
        self._workload(tree)
        tree.search(Rect(0.2, 0.2, 0.8, 0.8))
        tree.nearest_neighbors(0.5, 0.5, 3)
        rec = obs.recorder
        # At trace the update stride never widens: every op is in the ring
        # (plus cleaner cycles, which arrive on their own schedule).
        by_op = {}
        for r in rec.records():
            by_op[r.op] = by_op.get(r.op, 0) + 1
        assert by_op["insert"] == 100  # loading inserts
        assert by_op["update"] == 150
        assert by_op["query"] == 1
        assert by_op["knn"] == 1

    def test_update_records_reconcile_with_iostats_at_trace(self):
        obs = Observability(level="trace", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs)
        w = default_network_workload(100, moving_distance=0.02, seed=5)
        for oid, rect in w.initial():
            tree.insert_object(oid, rect)
        obs.recorder.clear()
        before = tree.stats.snapshot()
        for oid, old, new in w.updates(150):
            tree.update_object(oid, old, new)
        delta = tree.stats.snapshot() - before
        updates = [r for r in obs.recorder.records() if r.op == "update"]
        assert len(updates) == 150
        total = IOSnapshot()
        for r in updates:
            total = total + r.io
        # Cleaner steps run inside the update op, so the sum of the
        # records' exact deltas is the interval's whole IOStats delta.
        assert total == delta

    def test_queries_carry_memo_columns_and_serving_decision(self):
        obs = Observability(level="trace")
        tree = build_rum_tree(node_size=2048, obs=obs)
        self._workload(tree)
        obs.recorder.clear()
        tree.search(Rect(0.0, 0.0, 1.0, 1.0))
        (r,) = [x for x in obs.recorder.records() if x.op == "query"]
        assert r.served_by in ("mirror", "traversal")
        # A full-extent query inspects every surfaced entry in the memo.
        assert r.memo_lookups > 0
        assert 0 <= r.memo_hits <= r.memo_lookups

    def test_cleaner_cycle_record_carries_the_memo_io(self, tmp_path):
        """Regressions: the cleaner hand-typed an 8-field I/O delta where
        the recorder takes 10, so the run pages a cycle's sweeps read
        from a memo on a run tier never reached its record; and the
        record was written before the cycle's phantom purge, so the
        purge's run scan and re-spill never reached it either."""
        obs = Observability(level="trace", recorder_capacity=4096)
        # No token steps ride on the updates, so the measured cycle's
        # record starts from nothing, like the stats delta; no touch
        # cleaning, so the garbage (and the memo) waits for the cycles.
        tree = build_rum_tree(
            node_size=2048, obs=obs, inspection_ratio=0.0,
            clean_upon_touch=False,
            memo_dir=str(tmp_path), memo_spill_budget=8 * UM_ENTRY_BYTES,
        )
        w = default_network_workload(100, moving_distance=0.02, seed=5)
        for oid, rect in w.initial():
            tree.insert_object(oid, rect)
        for oid, old, new in w.updates(150):
            tree.update_object(oid, old, new)
        tree.cleaner.run_full_cycle()
        tree.cleaner.run_full_cycle()
        purges = tree.memo.purge_run_count
        assert purges > 0  # a purge pulled the tier up into RAM
        for oid, old, new in w.updates(150):
            tree.update_object(oid, old, new)
        assert tree.memo.runs  # refilled
        obs.recorder.clear()
        before = tree.stats.snapshot()
        tree.cleaner.run_full_cycle()
        delta = tree.stats.snapshot() - before
        (cycle,) = [
            r for r in obs.recorder.records() if r.op == "cleaner_cycle"
        ]
        assert tree.memo.purge_run_count == purges + 1
        assert cycle.io.memo_reads > 0
        assert cycle.io == delta
        tree.memo.close()

    def test_forced_cycle_record_starts_at_the_forced_start(self):
        """Regression: a forced cycle restarted the token's cycle but kept
        the I/O and the start time its update-driven steps had gathered
        toward the partial cycle before it, so its record carried both."""
        obs = Observability(level="trace", recorder_capacity=4096)
        tree = build_rum_tree(node_size=2048, obs=obs, inspection_ratio=0.2)
        w = default_network_workload(300, moving_distance=0.02, seed=5)
        for oid, rect in w.initial():
            tree.insert_object(oid, rect)
        for oid, old, new in w.updates(25):
            tree.update_object(oid, old, new)
        assert tree.cleaner.tokens[0].steps_in_cycle > 0  # a partial cycle
        obs.recorder.clear()
        before = tree.stats.snapshot()
        started = time.perf_counter()
        tree.cleaner.run_full_cycle()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        delta = tree.stats.snapshot() - before
        (cycle,) = [
            r for r in obs.recorder.records() if r.op == "cleaner_cycle"
        ]
        assert cycle.io == delta
        assert cycle.duration_ms <= elapsed_ms

    def test_off_level_has_no_recorder(self):
        tree = build_rum_tree(node_size=2048, obs=None)
        assert tree._obs_record is None
        assert tree.cleaner._obs is None
        self._workload(tree, n_updates=20)  # must not raise


# -- exporter round-trip property tests -------------------------------------

_OPS = st.sampled_from(["query", "knn", "update", "batch", "cleaner_cycle"])
_IO8 = st.tuples(*[st.integers(min_value=0, max_value=50)] * 8)


@st.composite
def _op_mix(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for _ in range(n):
        lookups = draw(st.integers(min_value=0, max_value=30))
        ops.append((
            draw(_OPS),
            draw(st.floats(min_value=0.0, max_value=0.05,
                           allow_nan=False, allow_infinity=False)),
            draw(_IO8),
            lookups,
            draw(st.integers(min_value=0, max_value=lookups)),
            draw(st.sampled_from(["mirror", "traversal", "-"])),
        ))
    return ops


class TestExporterRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(mix=_op_mix(), capacity=st.integers(min_value=1, max_value=16))
    def test_dump_json_round_trip_over_random_mixes(self, mix, capacity):
        rec = FlightRecorder(capacity=capacity)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _slow_log(monkeypatch, 5.0, 4)
            for op, dur, io8, lookups, hits, served in mix:
                rec.record(op, "T", dur, io8, lookups, hits, served)
        dump = json.loads(json.dumps(rec.dump()))
        assert dump["recorded_total"] == len(mix)
        assert dump["dropped"] == max(0, len(mix) - capacity)
        assert len(dump["ops"]) == min(len(mix), capacity)
        # Every dumped record reconstructs to the exact retained view.
        rebuilt = [OpRecord.from_dict(d) for d in dump["ops"]]
        assert rebuilt == rec.records()
        rebuilt_slow = [OpRecord.from_dict(d) for d in dump["slow_ops"]]
        assert rebuilt_slow == rec.slow_records()

    @settings(max_examples=25, deadline=None)
    @given(mix=_op_mix())
    def test_registry_jsonl_and_prometheus_round_trip(self, mix):
        """A registry fed the same op mix exports consistently through
        both the JSON and Prometheus paths."""
        from repro.obs import MetricsRegistry, metrics_json, prometheus_text

        reg = MetricsRegistry()
        ops_c = reg.counter("recorder.ops")
        dur_h = reg.histogram("op.duration_ms")
        for _op, dur, _io8, _l, _h, _s in mix:
            ops_c.inc()
            dur_h.observe(dur * 1000.0)
        snap = reg.snapshot()
        parsed = json.loads(metrics_json(snap))
        assert parsed["counters"].get("recorder.ops", 0) == len(mix)
        if mix:
            assert parsed["histograms"]["op.duration_ms"]["count"] == len(mix)
        text = prometheus_text(snap)
        assert f"repro_recorder_ops {len(mix)}" in text
        if mix:
            assert f"repro_op_duration_ms_count {len(mix)}" in text
            # Cumulative bucket counts end at the total count.
            assert f'repro_op_duration_ms_bucket{{le="+Inf"}} {len(mix)}' in text
