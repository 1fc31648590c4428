"""Tests for the observability core: registry, sinks, exporters, facade."""

import io
import json
import logging

import pytest

from repro.obs import (
    LEVELS,
    Histogram,
    JsonlEventSink,
    ListEventSink,
    LoggingEventSink,
    MetricsRegistry,
    NullEventSink,
    Observability,
    TeeEventSink,
    get_default_obs,
    metrics_json,
    prometheus_text,
    set_default_obs,
    write_prometheus,
)


class TestCounterGauge:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("disk.page_reads")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("disk.page_reads") is c  # get-or-create

    def test_gauge_set_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("memo.entries")
        g.set(7.0)
        assert g.read() == 7.0
        backing = [0]
        g.set_function(lambda: backing[0])
        backing[0] = 42
        assert g.read() == 42
        g.set(3.0)  # direct set clears the callback
        backing[0] = 99
        assert g.read() == 3.0

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("io", buckets=(0, 1, 2, 4))
        for v in (0, 1, 1, 3, 100):
            h.observe(v)
        # cells: <=0, <=1, <=2, <=4, overflow
        assert h.counts == [1, 2, 0, 1, 1]
        assert h.count == 5
        assert h.total == 105
        assert h.mean == 21.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 1))

    def test_reregister_with_other_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        assert reg.histogram("h") is reg.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1, 2, 3))


class TestSnapshots:
    def test_counter_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(10)
        before = reg.snapshot()
        c.inc(7)
        delta = reg.snapshot() - before
        assert delta.counters["c"] == 7

    def test_gauge_delta_keeps_newer_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5)
        before = reg.snapshot()
        g.set(12)
        delta = reg.snapshot() - before
        assert delta.gauges["g"] == 12  # point-in-time, not subtracted

    def test_histogram_delta(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10))
        h.observe(0)
        before = reg.snapshot()
        h.observe(5)
        h.observe(100)
        delta = (reg.snapshot() - before).histograms["h"]
        assert delta.count == 2
        assert delta.counts == (0, 1, 1)
        assert delta.total == 105

    def test_histogram_delta_bucket_mismatch(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("h", buckets=(1,))
        r2.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            _ = r1.snapshot().histograms["h"] - r2.snapshot().histograms["h"]

    def test_as_dict_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1,)).observe(2)
        data = json.loads(json.dumps(reg.snapshot().as_dict()))
        assert data["counters"]["c"] == 3
        assert data["gauges"]["g"] == 1.5
        assert data["histograms"]["h"]["counts"] == [0, 1]

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a")
        reg.histogram("c")
        assert reg.names() == ("a", "b", "c")


class TestSinks:
    def test_jsonl_sink_to_file_object(self):
        buf = io.StringIO()
        sink = JsonlEventSink(buf)
        sink.emit({"type": "a", "n": 1})
        sink.emit({"type": "b"})
        sink.close()
        lines = buf.getvalue().strip().splitlines()
        assert [json.loads(l)["type"] for l in lines] == ["a", "b"]
        assert sink.emitted == 2

    def test_jsonl_sink_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "events.jsonl"
        sink = JsonlEventSink(path)
        sink.emit({"type": "x"})
        sink.close()
        assert json.loads(path.read_text())["type"] == "x"

    def test_logging_sink(self, caplog):
        sink = LoggingEventSink()
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            sink.emit({"type": "cleaner.cycle", "steps": 3})
        (record,) = caplog.records
        assert "cleaner.cycle" in record.getMessage()
        assert record.obs_event == {"type": "cleaner.cycle", "steps": 3}

    def test_logging_sink_skips_when_disabled(self, caplog):
        sink = LoggingEventSink()
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            sink.emit({"type": "x"})
        assert not caplog.records

    def test_tee_fans_out_and_closes(self):
        a, b = ListEventSink(), ListEventSink()
        tee = TeeEventSink([a, b])
        tee.emit({"type": "x"})
        tee.close()
        assert a.events == b.events == [{"type": "x"}]

    def test_of_type_filter(self):
        sink = ListEventSink()
        sink.emit({"type": "a"})
        sink.emit({"type": "b"})
        sink.emit({"type": "a"})
        assert len(sink.of_type("a")) == 2


class TestPrometheusExport:
    def test_counter_gauge_rendering(self):
        reg = MetricsRegistry()
        reg.counter("disk.page_reads").inc(3)
        reg.gauge("memo.entries").set(2.5)
        text = prometheus_text(reg)
        assert "# TYPE repro_disk_page_reads counter" in text
        assert "repro_disk_page_reads 3" in text
        assert "repro_memo_entries 2.5" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("tree.update_leaf_io", buckets=(1, 2))
        for v in (1, 1, 2, 9):
            h.observe(v)
        text = prometheus_text(reg)
        assert 'repro_tree_update_leaf_io_bucket{le="1"} 2' in text
        assert 'repro_tree_update_leaf_io_bucket{le="2"} 3' in text
        assert 'repro_tree_update_leaf_io_bucket{le="+Inf"} 4' in text
        assert "repro_tree_update_leaf_io_sum 13" in text
        assert "repro_tree_update_leaf_io_count 4" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_prometheus_and_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        out = write_prometheus(reg, tmp_path / "sub" / "m.prom")
        assert out.read_text() == prometheus_text(reg)
        data = json.loads(metrics_json(reg))
        assert data["counters"]["c"] == 1

    def test_snapshot_accepted_directly(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        snap = reg.snapshot()
        assert prometheus_text(snap) == prometheus_text(reg)


class TestObservabilityFacade:
    def test_levels(self):
        metrics = Observability(level="metrics")
        assert not metrics.tracing and metrics.recorder is not None
        trace = Observability(level="trace")
        assert trace.tracing and not trace.debug
        debug = Observability(level="debug")
        assert debug.debug and debug.tracing
        # No telemetry is obs=None, not a level.
        assert tuple(LEVELS) == ("metrics", "trace", "debug")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            Observability(level="verbose")

    def test_record_is_the_span_event_at_trace(self):
        sink = ListEventSink()
        obs = Observability(level="trace", sink=sink)
        io10 = tuple(range(1, 11))
        obs.record("update", "t", 0.002, io10, 3, 1, attrs={"oid": 7})
        obs.record("query", "t", 0.001, io10, served_by="mirror", error=True)
        first, second = obs.recorder.records()
        e1, e2 = sink.of_type("span")
        assert (e1["seq"], e2["seq"]) == (first.seq, second.seq)
        assert e1["name"] == "update" and e1["tree"] == "t"
        assert e1["io"] == first.io.as_dict()
        assert e1["dur_ms"] == pytest.approx(2.0)
        assert (e1["memo_lookups"], e1["memo_hits"]) == (3, 1)
        assert e1["oid"] == 7 and "error" not in e1
        assert e2["served_by"] == "mirror" and e2["error"] is True
        assert not {"depth", "parent"} & (set(e1) | set(e2))

    def test_record_below_trace_emits_nothing(self):
        sink = ListEventSink()
        obs = Observability(level="metrics", sink=sink)
        obs.record("update", "t", 0.0, (0,) * 10)
        assert len(obs.recorder) == 1 and sink.events == []

    def test_event_only_when_tracing(self):
        sink = ListEventSink()
        Observability(level="metrics", sink=sink).event("x", a=1)
        assert sink.events == []
        Observability(level="trace", sink=sink).event("x", a=1)
        (event,) = sink.events
        assert event["type"] == "x" and event["a"] == 1 and "ts" in event

    def test_default_sink_is_null(self):
        assert isinstance(Observability().sink, NullEventSink)

    def test_process_default(self):
        assert get_default_obs() is None
        obs = Observability(level="metrics")
        set_default_obs(obs)
        try:
            assert get_default_obs() is obs
        finally:
            set_default_obs(None)
        assert get_default_obs() is None
