"""Cost-model drift monitor tests.

The drift monitor compares the Section-4 closed-form expected I/O per
operation against a live EWMA of measured counted I/O.  Tests cover the
EWMA math itself, the gauge wiring, the per-tree drift report, and the
headline acceptance check: at the Figure-10 workload configuration the
RUM-tree's drift ratios stay inside the model's error envelope (the
model describes the tree it was derived for).
"""

import pytest

from repro.factory import build_rum_tree
from repro.obs import Observability, drift
from repro.obs.drift import DriftMonitor, OpDriftTracker
from repro.obs.metrics import MetricsRegistry
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator


class TestTrackerMath:
    def test_first_sample_seeds_ewma(self):
        t = OpDriftTracker("update", lambda tr: 4.0)
        t.observe(8.0)
        assert t.samples == 1
        assert t.measured == 8.0

    def test_ewma_folds_with_alpha(self, monkeypatch):
        monkeypatch.setattr(drift, "ALPHA", 0.5)
        t = OpDriftTracker("update", lambda tr: 4.0)
        t.observe(8.0)
        t.observe(4.0)
        assert t.measured == pytest.approx(6.0)  # 8 + 0.5*(4-8)
        t.observe(4.0)
        assert t.measured == pytest.approx(5.0)

    def test_window_ewma_independent_of_io_ewma(self, monkeypatch):
        monkeypatch.setattr(drift, "ALPHA", 0.5)
        t = OpDriftTracker("query", lambda tr: 1.0)
        t.observe_window(0.1, 0.2)
        t.observe_window(0.3, 0.2)
        assert t.window_samples == 2
        assert t.window_w == pytest.approx(0.2)
        assert t.window_h == pytest.approx(0.2)
        assert t.samples == 0  # untouched

    def test_ratio_zero_before_samples_or_without_prediction(self):
        t = OpDriftTracker("update", lambda tr: 4.0)
        assert t.ratio() == 0.0  # no samples yet
        t.observe(8.0)
        assert t.ratio() == pytest.approx(2.0)
        z = OpDriftTracker("update", lambda tr: 0.0)
        z.observe(8.0)
        assert z.ratio() == 0.0  # model predicts nothing


class TestMonitorGauges:
    def test_track_binds_four_gauges_per_op(self):
        reg = MetricsRegistry()
        mon = DriftMonitor(reg)
        tracker = mon.track("update", lambda tr: 5.0)
        tracker.observe(10.0)
        snap = reg.snapshot()
        assert snap.gauges["drift.update.predicted_io"] == pytest.approx(5.0)
        assert snap.gauges["drift.update.measured_io"] == pytest.approx(10.0)
        assert snap.gauges["drift.update.ratio"] == pytest.approx(2.0)
        assert snap.gauges["drift.update.samples"] == 1

    def test_rows_one_per_op_class_sorted(self):
        reg = MetricsRegistry()
        mon = DriftMonitor(reg)
        mon.track("update", lambda tr: 2.0).observe(2.0)
        mon.track("query", lambda tr: 3.0).observe(6.0)
        rows = mon.rows()
        assert [r["op"] for r in rows] == ["query", "update"]
        by_op = {r["op"]: r for r in rows}
        assert by_op["update"]["drift_ratio"] == pytest.approx(1.0)
        assert by_op["query"]["drift_ratio"] == pytest.approx(2.0)
        assert by_op["query"]["samples"] == 1

    def test_retrack_rebinds_gauges_to_newest_tracker(self):
        reg = MetricsRegistry()
        mon = DriftMonitor(reg)
        old = mon.track("update", lambda tr: 1.0)
        old.observe(7.0)
        new = mon.track("update", lambda tr: 1.0)
        new.observe(3.0)
        snap = reg.snapshot()
        assert snap.gauges["drift.update.measured_io"] == pytest.approx(3.0)


class TestTreeIntegration:
    def _run(self, tree, n=400, n_updates=800, n_queries=60):
        w = default_network_workload(n, moving_distance=0.01, seed=11)
        for oid, rect in w.initial():
            tree.insert_object(oid, rect)
        for oid, old, new in w.updates(n_updates):
            tree.update_object(oid, old, new)
        for q in RangeQueryGenerator(side=0.01, seed=29).queries(n_queries):
            tree.search(q)

    def test_drift_report_empty_when_off(self):
        tree = build_rum_tree(node_size=2048, obs=None)
        assert tree.drift_report() == []
        tree.attach_obs(Observability(level="metrics"))
        tree.attach_obs(None)
        assert tree.drift_report() == []

    def test_drift_gauges_exported_via_prometheus(self):
        from repro.obs import prometheus_text

        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        self._run(tree, n=150, n_updates=200, n_queries=10)
        text = prometheus_text(obs.registry)
        for op in ("update", "query"):
            for g in ("predicted_io", "measured_io", "ratio", "samples"):
                assert f"repro_drift_{op}_{g} " in text

    def test_fig10_configuration_ratio_within_model_envelope(self):
        """Acceptance: at the paper's standard workload shape the memo
        model's update prediction tracks the measured EWMA.  The model
        carries idealisations (uniform leaves, fixed cleaning yield), so
        the envelope is a factor band, not an equality."""
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        self._run(tree)
        rows = {r["op"]: r for r in tree.drift_report()}
        upd = rows["update"]
        assert upd["samples"] > 0
        assert upd["predicted_io"] > 0
        assert 0.5 <= upd["drift_ratio"] <= 2.0
        qry = rows["query"]
        assert qry["samples"] > 0
        assert qry["predicted_io"] > 0
        assert 0.25 <= qry["drift_ratio"] <= 4.0

    def test_sampling_still_feeds_drift_ewma(self):
        """Even with the adaptive update stride widening, sampled
        updates keep feeding the EWMA — samples grow with the workload."""
        obs = Observability(level="metrics")
        tree = build_rum_tree(node_size=2048, obs=obs)
        self._run(tree, n=150, n_updates=600, n_queries=0)
        (upd,) = [r for r in tree.drift_report() if r["op"] == "update"]
        # 150 inserts always sample; of the 600 updates at least the
        # stride-spaced ones do.  Far fewer than every op, far more
        # than none.
        assert upd["samples"] >= 150 + 600 // 256
        assert upd["measured_io"] > 0


class TestDriftExperiment:
    def test_run_drift_rows(self, monkeypatch):
        from repro.experiments import run_drift

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        result = run_drift()
        assert result.rows
        # Every evaluated tree contributes an update and a query row.
        pairs = {(r["tree"], r["op"]) for r in result.rows}
        trees = {t for t, _ in pairs}
        assert len(trees) >= 3
        for t in trees:
            assert (t, "update") in pairs
            assert (t, "query") in pairs
        for r in result.rows:
            assert set(r) >= {
                "op", "predicted_io", "measured_io", "drift_ratio", "samples"
            }
            assert r["samples"] > 0
