"""EXPLAIN/ANALYZE tests — the reconciliation contract.

The defining invariant of ``explain_query`` / ``explain_knn`` /
``explain_update`` is that the reported trace accounts for the
operation's I/O *exactly*: per-visit deltas plus per-phase residuals sum
to the global :class:`IOStats` delta measured across the call.  These
tests pin that equality for all three tree variants, with and without
observability attached (EXPLAIN needs no obs — it is a property of the
tree, not of the telemetry layer).
"""

import hashlib

import pytest

from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.obs import Observability
from repro.obs.explain import SCHEMA
from repro.rtree.geometry import Rect
from repro.storage.iostats import IOSnapshot
from repro.workload.objects import default_network_workload

BUILDERS = [build_rstar_tree, build_fur_tree, build_rum_tree]
IDS = ["rstar", "fur", "rum"]


def _loaded(build, n=150, obs=None, **kwargs):
    tree = build(node_size=2048, obs=obs, **kwargs)
    w = default_network_workload(n, moving_distance=0.02, seed=5)
    for oid, rect in w.initial():
        tree.insert_object(oid, rect)
    return tree, w


class TestQueryReconciliation:
    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_trace_reconciles_exactly_with_iostats(self, build):
        tree, _ = _loaded(build)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        before = tree.stats.snapshot()
        report = tree.explain_query(window)
        delta = tree.stats.snapshot() - before
        assert report.io_delta == delta
        assert report.reconciles()
        assert report.accounted_io() == delta
        assert report.visits  # at least the root was inspected

    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_results_match_live_search(self, build):
        tree, _ = _loaded(build)
        window = Rect(0.1, 0.1, 0.9, 0.9)
        report = tree.explain_query(window)
        assert report.results == len(tree.search(window))

    def test_levels_and_leaf_flags_consistent(self):
        tree, _ = _loaded(build_rum_tree, n=400)
        report = tree.explain_query(Rect(0.0, 0.0, 1.0, 1.0))
        for v in report.visits:
            assert v.is_leaf == (v.level == 0)
            assert v.residency in ("internal", "op", "lru", "disk")
            assert 0 <= v.entries_matched <= v.entries_tested
        levels = report.nodes_per_level()
        assert max(levels) == tree.height - 1
        assert levels[max(levels)] == 1  # exactly one root visit

    def test_rum_memo_block_partitions_inspections(self):
        tree, w = _loaded(build_rum_tree)
        for oid, old, new in w.updates(200):
            tree.update_object(oid, old, new)
        report = tree.explain_query(Rect(0.0, 0.0, 1.0, 1.0))
        memo = report.memo
        assert memo["inspections"] == memo["latest"] + memo["obsolete"]
        assert report.results == memo["latest"]

    def test_serving_decision_reported(self):
        tree, _ = _loaded(build_rum_tree)
        report = tree.explain_query(Rect(0.2, 0.2, 0.4, 0.4))
        assert report.served_by in ("mirror", "traversal")
        if report.served_by == "mirror":
            assert report.mirror is not None

    def test_as_dict_schema_and_render(self):
        tree, _ = _loaded(build_rum_tree)
        report = tree.explain_query(Rect(0.2, 0.2, 0.6, 0.6))
        d = report.as_dict()
        assert d["schema"] == SCHEMA
        assert d["reconciles"] is True
        text = report.render()
        assert "EXPLAIN ANALYZE query" in text
        assert "reconciles with IOStats delta: True" in text


class TestKnnReconciliation:
    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_trace_reconciles_and_returns_k(self, build):
        tree, _ = _loaded(build)
        before = tree.stats.snapshot()
        report = tree.explain_knn(0.5, 0.5, 5)
        delta = tree.stats.snapshot() - before
        assert report.io_delta == delta
        assert report.reconciles()
        assert report.results == 5
        live = tree.nearest_neighbors(0.5, 0.5, 5)
        assert len(live) == 5

    def test_rum_knn_filters_obsolete_through_memo(self):
        tree, w = _loaded(build_rum_tree)
        for oid, old, new in w.updates(300):
            tree.update_object(oid, old, new)
        report = tree.explain_knn(0.5, 0.5, 8)
        assert report.results == 8
        memo = report.memo
        assert memo["inspections"] == memo["latest"] + memo["obsolete"]
        # kNN stops once k latest entries surfaced, so latest >= k.
        assert memo["latest"] >= 8


class TestUpdateReconciliation:
    @pytest.mark.parametrize(
        "build", [build_rstar_tree, build_fur_tree], ids=["rstar", "fur"]
    )
    def test_baseline_update_reconciles_via_phase(self, build):
        tree, w = _loaded(build)
        oid, old, new = next(iter(w.updates(1)))
        before = tree.stats.snapshot()
        report = tree.explain_update(oid, new, old_rect=old)
        delta = tree.stats.snapshot() - before
        assert report.io_delta == delta
        assert report.reconciles()
        assert set(report.phases) == {"update"}
        # The mutation really happened: the new rect is indexed.
        assert (oid, new) in tree.search(new)

    @pytest.mark.parametrize(
        "build", [build_rstar_tree, build_fur_tree], ids=["rstar", "fur"]
    )
    def test_baseline_update_requires_old_rect(self, build):
        tree, w = _loaded(build)
        oid, _old, new = next(iter(w.updates(1)))
        with pytest.raises(ValueError):
            tree.explain_update(oid, new)

    def test_rum_update_attributes_all_three_phases(self):
        tree, w = _loaded(build_rum_tree)
        for oid, old, new in w.updates(100):
            tree.update_object(oid, old, new)
        oid, _old, new = next(iter(w.updates(1)))
        before = tree.stats.snapshot()
        report = tree.explain_update(oid, new)  # old_rect not needed
        delta = tree.stats.snapshot() - before
        assert report.io_delta == delta
        assert report.reconciles()
        assert set(report.phases) == {"memo", "insert", "clean"}
        total = report.visit_io_total()
        for io in report.phases.values():
            total = total + io
        assert total == delta
        # The visits are the real descent: the leaf fetch is theirs, not
        # the insert phase's.
        assert report.visit_io_total().leaf_reads >= 1
        assert report.visit_io_total() != IOSnapshot()
        assert report.memo["stamp"] > 0
        # The descent trace ends at a leaf.
        assert report.visits[-1].is_leaf

    def test_rum_update_reconciles_with_wal_logging(self):
        tree, w = _loaded(build_rum_tree, recovery_option="III")
        oid, _old, new = next(iter(w.updates(1)))
        before = tree.stats.snapshot()
        report = tree.explain_update(oid, new)
        delta = tree.stats.snapshot() - before
        assert report.reconciles()
        assert report.io_delta == delta
        # Option III forces the memo-change log write into the memo phase.
        assert report.phases["memo"].log_writes >= 1


def _twins(build, n_updates=250, **kwargs):
    """Two trees built identically from one seed (obsolete entries
    present on the RUM-tree), plus the workload that built them."""
    pair = []
    for _ in range(2):
        tree, w = _loaded(build, **kwargs)
        for oid, old, new in w.updates(n_updates):
            tree.update_object(oid, old, new)
        pair.append(tree)
    return pair[0], pair[1], w


def _fetches(tree):
    """Record the page ids fetched through ``buffer.get_node`` from now
    on (an instance-level tap, the way the stack benchmark traces)."""
    seen = []
    real = tree.buffer.get_node

    def tap(page_id):
        seen.append(page_id)
        return real(page_id)

    tree.buffer.get_node = tap
    return seen


def _disk_digest(tree):
    tree.buffer.flush()
    digest = hashlib.sha256()
    disk = tree.buffer.disk
    for page_id in disk.page_ids():
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(disk.peek(page_id))
    return digest.hexdigest()


class TestExplainedIsLive:
    """EXPLAIN observes the real operation, so on twin trees the
    explained run and the live run are indistinguishable from below:
    same fetch sequence, same answer, same counted I/O, same pages."""

    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_query_fetches_results_and_io_equal_range_search(self, build):
        explained, live, _ = _twins(build)
        window = Rect(0.15, 0.2, 0.7, 0.65)
        seen_e, seen_l = _fetches(explained), _fetches(live)
        before_e = explained.stats.snapshot()
        before_l = live.stats.snapshot()
        report = explained.explain_query(window)
        answer = live.search(window)
        assert seen_e == seen_l and seen_e
        assert [v.page_id for v in report.visits] == seen_e
        assert report.results == len(answer)
        assert report.io_delta == live.stats.snapshot() - before_l
        assert report.io_delta == explained.stats.snapshot() - before_e
        assert report.reconciles() and not report.phases
        # The observer left nothing behind.
        assert "get_node" in vars(explained.buffer)  # the test's own tap
        assert "operation" not in vars(explained.buffer)
        assert explained._watch is None

    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_knn_fetches_results_and_io_equal_nearest_neighbors(self, build):
        explained, live, _ = _twins(build)
        seen_e, seen_l = _fetches(explained), _fetches(live)
        before_l = live.stats.snapshot()
        report = explained.explain_knn(0.45, 0.55, 7)
        answer = live.nearest_neighbors(0.45, 0.55, 7)
        assert seen_e == seen_l and seen_e
        assert [v.page_id for v in report.visits] == seen_e
        assert report.results == len(answer) == 7
        assert report.io_delta == live.stats.snapshot() - before_l
        assert report.reconciles() and not report.phases
        assert explained.explain_knn(0.45, 0.55, 0).results == 0

    @pytest.mark.parametrize(
        "build,kwargs",
        [
            (build_rstar_tree, {}),
            (build_fur_tree, {}),
            (build_rum_tree, {}),
            (build_rum_tree, {"recovery_option": "III"}),
        ],
        ids=["rstar", "fur", "rum", "rum-option-III"],
    )
    def test_update_leaves_twin_trees_identical(self, build, kwargs):
        explained, live, w = _twins(build, **kwargs)
        moves = list(w.updates(30))
        seen_e, seen_l = _fetches(explained), _fetches(live)
        before_e = explained.stats.snapshot()
        before_l = live.stats.snapshot()
        attributed = IOSnapshot()
        for oid, old, new in moves:
            report = explained.explain_update(oid, new, old_rect=old)
            live.update_object(oid, old, new)
            assert report.reconciles()
            attributed = attributed + report.visit_io_total()
        assert seen_e == seen_l
        assert (
            explained.stats.snapshot() - before_e
            == live.stats.snapshot() - before_l
        )
        assert _disk_digest(explained) == _disk_digest(live)
        assert sorted(explained.search(Rect(0, 0, 1, 1))) == sorted(
            live.search(Rect(0, 0, 1, 1))
        )
        if build is build_rum_tree:
            assert explained.memo.snapshot() == live.memo.snapshot()
            assert explained.stamps.current == live.stamps.current
            # Every insertion descent ends in a fetched leaf: visit I/O
            # is attributed, not folded into the phases.
            assert attributed.leaf_reads >= len(moves)
        if kwargs:
            assert explained.wal.total_bytes() == live.wal.total_bytes()
        explained.check_invariants()

    def test_visits_of_a_top_down_update_are_its_real_searches(self):
        tree, w = _loaded(build_rstar_tree, n=400)
        oid, old, new = next(iter(w.updates(1)))
        report = tree.explain_update(oid, new, old_rect=old)
        leaves = [v for v in report.visits if v.is_leaf]
        # The deletion search ends at the leaf holding the entry, the
        # insertion descent at the leaf receiving it.
        assert [v.entries_matched for v in leaves][-2:] == [1, 0]
        assert report.visits[0].level == tree.height - 1
        assert all(
            v.residency in ("internal", "op", "lru", "disk")
            for v in report.visits
        )
        assert "visit_io_attributed" not in report.extra

    def test_explain_query_leaves_a_valid_mirror_exactly_as_found(self):
        tree, _ = _loaded(build_rum_tree)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        for _ in range(40):
            tree.search(window)
        assert tree._mirror is not None
        assert tree._mirror.version == tree.buffer.version
        found = {
            name: getattr(tree, name)
            for name in vars(tree) if name.startswith("_mirror")
        }
        assert len(found) >= 5
        report = tree.explain_query(window)
        assert report.served_by == "mirror" and report.mirror is not None
        assert report.visits  # the traversal was forced all the same
        after = {name: getattr(tree, name) for name in found}
        assert after == found and after["_mirror"] is found["_mirror"]
        assert report.results == len(tree.search(window))


class TestExplainWithObsAttached:
    """EXPLAIN runs must not corrupt the live telemetry counters."""

    def test_explain_query_does_not_count_as_live_query(self):
        obs = Observability(level="metrics")
        tree, _ = _loaded(build_rum_tree, obs=obs)
        q0 = obs.registry.snapshot().counters.get("tree.queries", 0)
        report = tree.explain_query(Rect(0.2, 0.2, 0.6, 0.6))
        assert report.reconciles()
        assert obs.registry.snapshot().counters.get("tree.queries", 0) == q0

    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    @pytest.mark.parametrize("level", ["metrics", "trace"])
    def test_explained_update_counts_explained_queries_do_not(
        self, build, level
    ):
        obs = Observability(level=level)
        tree, w = _loaded(build, obs=obs)
        before = obs.registry.snapshot()
        oid, old, new = next(iter(w.updates(1)))
        assert tree.explain_update(oid, new, old_rect=old).reconciles()
        assert tree.explain_query(Rect(0.2, 0.2, 0.6, 0.6)).reconciles()
        assert tree.explain_knn(0.5, 0.5, 3).reconciles()
        tree.attach_obs(None)
        delta = (obs.registry.snapshot() - before).counters
        assert delta["tree.updates"] == 1
        assert delta.get("tree.queries", 0) == 0
        assert delta.get("tree.knn_queries", 0) == 0

    def test_explain_update_reconciles_under_metrics(self):
        obs = Observability(level="metrics")
        tree, w = _loaded(build_rum_tree, obs=obs)
        oid, _old, new = next(iter(w.updates(1)))
        report = tree.explain_update(oid, new)
        assert report.reconciles()
