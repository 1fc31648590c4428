"""Cross-module integration scenarios.

Each test exercises a full slice of the system the way the paper's
experiments do: workload generator → index → queries → metrics, including
crash/recovery mid-stream and the experiment harness itself.
"""

import inspect
import os

import pytest

from conftest import SMALL_NODE
from repro.core.recovery import recover_option_ii
from repro.experiments import harness
from repro.experiments.harness import (
    auxiliary_size_bytes,
    make_tree,
    measure_queries,
    measure_updates,
    populate,
    run_trace,
    scaled,
)
from repro.experiments.registry import EXPERIMENTS
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import mixed_trace


def _oracle(workload):
    """Current positions straight from the generator."""
    return {oid: workload.rect(oid) for oid in range(workload.num_objects)}


class TestFullScenario:
    @pytest.mark.parametrize("kind", ["rstar", "fur", "rum_touch", "rum_token"])
    def test_network_workload_end_to_end(self, kind):
        workload = default_network_workload(
            120, moving_distance=0.04, seed=140
        )
        tree = make_tree(kind, node_size=SMALL_NODE)
        assert populate(tree, workload.initial()) == 120
        measure_updates(tree, workload, 360)
        # Queries agree with the generator's own positions.
        oracle = _oracle(workload)
        for window in RangeQueryGenerator(side=0.2, seed=141).queries(25):
            got = sorted(oid for oid, _r in tree.search(window))
            want = sorted(
                oid for oid, rect in oracle.items() if rect.intersects(window)
            )
            assert got == want
        tree.check_invariants()

    def test_crash_recover_resume(self):
        """RUM-tree: run, crash, recover (Option II), clean, resume, and
        stay correct throughout."""
        tree = build_rum_tree(
            node_size=SMALL_NODE,
            inspection_ratio=0.2,
            recovery_option="II",
            checkpoint_interval=100,
        )
        workload = default_network_workload(
            100, moving_distance=0.05, seed=142
        )
        populate(tree, workload.initial())
        measure_updates(tree, workload, 250)
        tree.crash()
        recover_option_ii(tree)
        tree.cleaner.run_full_cycle()
        measure_updates(tree, workload, 250)
        oracle = _oracle(workload)
        for window in RangeQueryGenerator(side=0.25, seed=143).queries(20):
            got = sorted(oid for oid, _r in tree.search(window))
            want = sorted(
                oid for oid, rect in oracle.items() if rect.intersects(window)
            )
            assert got == want
        tree.check_invariants()

    def test_mixed_trace_measurement(self):
        workload = default_network_workload(80, seed=144)
        tree = make_tree("rum_touch", node_size=SMALL_NODE)
        populate(tree, workload.initial())
        trace = mixed_trace(
            workload, RangeQueryGenerator(seed=145), 200, 0.6, seed=146
        )
        cost = run_trace(tree, trace)
        assert cost.operations == 200
        assert cost.updates == 120
        assert cost.queries == 80
        assert cost.io.counted_total > 0
        assert cost.io_per_operation > 0

    def test_query_measurement_counts_results(self):
        workload = default_network_workload(100, seed=147)
        tree = make_tree("rstar", node_size=SMALL_NODE)
        populate(tree, workload.initial())
        queries = RangeQueryGenerator(side=0.3, seed=148)
        measurement = measure_queries(tree, queries, 30)
        assert measurement.queries == 30
        assert measurement.results > 0
        assert measurement.io.leaf_writes == 0

    def test_auxiliary_sizes(self):
        rum = make_tree("rum_token", node_size=SMALL_NODE)
        fur = make_tree("fur", node_size=SMALL_NODE)
        rstar = make_tree("rstar", node_size=SMALL_NODE)
        workload = default_network_workload(60, seed=149)
        for tree in (rum, fur, rstar):
            wl = default_network_workload(60, seed=149)
            populate(tree, wl.initial())
            measure_updates(tree, wl, 120)
        assert auxiliary_size_bytes(rstar) == 0
        assert auxiliary_size_bytes(fur) == 60 * 16  # one entry per object
        assert auxiliary_size_bytes(rum) == rum.memo_size_bytes()
        del workload


class TestHarnessUtilities:
    def test_make_tree_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_tree("btree")

    def test_scaled_env(self, monkeypatch):
        monkeypatch.setattr(harness, "_warned_bench_scales", set())
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert scaled(1000) == 500
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert scaled(100) == 25
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        assert scaled(10) == 16  # floor of 16
        # Not a finite float: one warning each, then the full scale.
        for malformed in ("bogus", "inf", "nan"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", malformed)
            with pytest.warns(RuntimeWarning, match=malformed):
                assert scaled(1000) == 1000
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert scaled(1000) == 1000

    def test_tree_kinds_all_constructible(self):
        for kind in ("rstar", "fur", "rum_token", "rum_touch"):
            tree = make_tree(kind, node_size=SMALL_NODE)
            tree.insert_object(1, Rect.from_point(0.5, 0.5))
            assert tree.search(Rect(0, 0, 1, 1)) == [
                (1, Rect.from_point(0.5, 0.5))
            ]

    def test_make_tree_reads_the_harness_settings_when_called(
        self, monkeypatch
    ):
        monkeypatch.setattr(harness, "NODE_SIZE", SMALL_NODE)
        monkeypatch.setattr(harness, "INSPECTION_RATIO", 0.5)
        tree = make_tree("rum_touch")
        assert tree.buffer.codec.node_size == SMALL_NODE
        assert tree.cleaner.inspection_ratio == 0.5


class TestEveryDriverIsItsSettings:
    def test_no_driver_takes_an_argument(self):
        """A figure is its module constants: the CLI, the paper-claims
        benchmark and EXPERIMENTS.md's builder all call
        ``table.driver()``, so no driver has a parameter to set."""
        drivers = [
            table.driver for e in EXPERIMENTS for table in e.tables
        ]
        assert len(drivers) == 20
        for driver in drivers:
            assert not inspect.signature(driver).parameters, driver.__name__


class TestExperimentDriversSmoke:
    """Tiny-scale smoke runs of every figure driver (structure only),
    shrunk by monkeypatching the constants the drivers read when they
    run."""

    @pytest.fixture(autouse=True)
    def setting(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")

        def set_constants(module, **constants):
            for name, value in constants.items():
                monkeypatch.setattr(module, name, value)

        return set_constants

    def test_fig10(self, setting):
        from repro.experiments import fig10

        setting(fig10, RATIOS=(0.0, 0.5), UPDATES_PER_OBJECT=1.0)
        result = fig10.run_fig10()
        assert len(result.rows) == 4
        assert {"inspection_ratio", "update_io", "garbage_ratio"} <= set(
            result.rows[0]
        )

    def test_fig11(self, setting):
        from repro.experiments import fig11

        setting(fig11, NODE_SIZES=(512, 1024), UPDATES_PER_OBJECT=1.0)
        result = fig11.run_fig11()
        assert len(result.rows) == 4
        assert result.rows[0]["update_cpu_ms"] >= 0

    def test_fig12(self, setting):
        from repro.experiments import comparison, fig12

        setting(harness, NODE_SIZE=512)
        setting(fig12, DISTANCES=(0.0, 0.05))
        result = fig12.run_fig12()
        assert len(result.rows) == 6  # 2 distances x 3 trees
        setting(comparison, RATIOS=((1, 1), (100, 1)))
        overall = fig12.run_fig12_overall()
        assert len(overall.rows) == 6

    def test_fig13(self, setting):
        from repro.experiments import fig13

        setting(harness, NODE_SIZE=512)
        setting(fig13, EXTENTS=(0.0, 0.01))
        result = fig13.run_fig13()
        assert len(result.rows) == 6

    def test_fig14(self, setting):
        from repro.experiments import fig14

        setting(harness, NODE_SIZE=512)
        setting(fig14, POPULATIONS=(1000, 2000))
        result = fig14.run_fig14()
        assert len(result.rows) == 6
        assert result.rows[0]["num_objects"] >= 16

    def test_fig14memo_misses_lie_inside_the_runs(self, setting):
        """The absent keys of the memo leg must be ones only the presence
        screen, a Bloom filter or a page read can answer: keys past every
        run's ``max_oid`` (what this leg used to probe) fall to the
        key-range test and report 0 pages, 0 false positives by
        construction."""
        from repro.experiments import fig14

        setting(
            fig14,
            MEMO_POPULATIONS=(150_000,),
            SPILL_BUDGET=4096,
            PROBE_SAMPLE=400,
        )
        (row,) = fig14.run_fig14_memo().rows
        assert row["runs"] >= 2 and row["peak_ram_bytes"] <= 4096
        assert row["miss_in_range"] == 1.0
        # A miss that read a page is a Bloom false positive, and nothing else.
        assert row["miss_pages_per_lookup"] * 400 == row["miss_bloom_fp"]
        assert 0.5 < row["miss_screened"] <= 1.0
        # Keys the memo holds read their page (plus the odd false positive).
        assert row["probe_hits"] == 400
        assert row["probe_pages_per_lookup"] * 400 >= 400 - 171  # RAM holds <= 171
        # ... and no more: the filters of the runs above the oldest steer a
        # walk past every run that does not hold the key.
        assert row["probe_pages_per_lookup"] <= 1.05
        # Screen + the filters above the oldest run + fences: the table's
        # budget is not all the RAM.
        assert row["tier_ram_bytes"] > 2 * row["spilled_pages"]

    def test_fig15(self, setting):
        from repro.experiments import fig15

        setting(harness, NODE_SIZE=512)
        setting(fig15, UPDATES_PER_OBJECT=1.0)
        result = fig15.run_fig15()
        options = [row["option"] for row in result.rows]
        assert options == ["I", "II", "III"]

    def test_table2(self, setting):
        from repro.experiments import table2

        setting(harness, NODE_SIZE=512)
        setting(table2, UPDATES_PER_OBJECT=1.0)
        result = table2.run_table2()
        assert [row["option"] for row in result.rows] == ["I", "II", "III"]
        assert all(row["recovery_io"] >= 0 for row in result.rows)

    def test_fig16(self, setting):
        from repro.experiments import fig16

        setting(
            fig16,
            NUM_OBJECTS=300,
            TOTAL_OPS=80,
            THREADS=4,
            IO_LATENCY=0.0,
            UPDATE_FRACTIONS=(0.0, 1.0),
        )
        result = fig16.run_fig16()
        assert len(result.rows) == 4
        assert all(row["ops_per_s"] > 0 for row in result.rows)

    def test_ablations(self, setting):
        from repro.experiments import ablation_cleaning, ablation_cost

        setting(harness, NODE_SIZE=512)
        setting(ablation_cost, UPDATES_PER_OBJECT=1.0)
        cost = ablation_cost.run_cost_validation()
        assert len(cost.rows) == 3
        setting(ablation_cleaning, TOKEN_COUNTS=(1, 2))
        tokens = ablation_cleaning.run_token_ablation()
        assert len(tokens.rows) == 2
        structure = ablation_cleaning.run_structure_ablation()
        assert len(structure.rows) == 4

    def test_report_formatting(self, setting):
        from repro.experiments import fig15, format_table, series_table

        setting(harness, NODE_SIZE=512)
        setting(fig15, UPDATES_PER_OBJECT=1.0)
        result = fig15.run_fig15()
        text = format_table(
            ["option", "update_io"],
            [[row["option"], row["update_io"]] for row in result.rows],
        )
        assert "option" in text and "III" in text
        table = series_table(result, "option", "checkpoint_interval", "update_io")
        assert "option" in table


def test_env_scale_restored():
    """Guard: the smoke fixture must not leak the tiny scale."""
    assert os.environ.get("REPRO_BENCH_SCALE") != "0.02"
