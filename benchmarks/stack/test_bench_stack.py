"""Self-test of bench_stack, on its ``--smoke`` sizing.

Run with ``PYTHONPATH=src python -m pytest benchmarks/stack -q`` (the
``benchmarks/conftest.py`` above this directory imports ``repro``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Tuple

import pytest

import bench_stack
import workloads
from bench_stack import PassResult
from repro.rtree.geometry import Rect
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IN_PROCESS = ("tree_update", "tree_query_churn", "durable_batch")
COUNTS = (
    "leaf_io_per_update", "leaf_io_per_query", "write_io_per_update",
    "garbage_ratio", "memo_bytes", "space_amp",
)

Runs = Dict[str, Tuple[PassResult, PassResult]]


def smoke_runs(seed: int) -> Runs:
    runs = {}
    for spec in workloads.SPECS:
        spec = workloads.smoke_spec(spec)
        runs[spec.name] = (
            bench_stack.run_untraced(spec, seed, 0.0, smoke=True),
            bench_stack.run_traced(spec, seed, 0.0, smoke=True),
        )
    return runs


@pytest.fixture(scope="module")
def first() -> Runs:
    return smoke_runs(47)


@pytest.fixture(scope="module")
def again() -> Runs:
    return smoke_runs(47)


@pytest.fixture(scope="module")
def other_seed() -> Runs:
    return smoke_runs(48)


def test_declaration_matches_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/stack"]
    assert DECLARED["run_seconds"] == bench_stack.DEFAULT_SECONDS
    assert [w["name"] for w in DECLARED["workloads"]] == [
        spec.name for spec in workloads.SPECS
    ]
    names = [
        m["name"] for key in ("workloads", "end_to_end", "per_layer")
        for m in DECLARED[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= setup[0]["bound"]


def test_every_declared_metric_is_emitted(first: Runs):
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for name, (plain, traced) in first.items():
        assert {k: u for k, (_, u) in plain.metrics.items()} == end_to_end, name
        assert {k: u for k, (_, u) in traced.metrics.items()} == per_layer, name
        assert plain.failed == 0 and traced.failed == 0, name
        assert plain.attempted > 0 and traced.attempted > 0


def test_counts_repeat_exactly_and_follow_the_seed(
    first: Runs, again: Runs, other_seed: Runs
):
    for name in first:
        a, b, c = first[name][0], again[name][0], other_seed[name][0]
        for metric in COUNTS:
            assert a.metrics[metric] == b.metrics[metric], (name, metric)
        assert a.io_boundaries == b.io_boundaries, name
        assert a.details["result_rows"] == b.details["result_rows"], name
        assert a.io_boundaries != c.io_boundaries, name


def test_tracing_does_not_change_what_the_program_does(first: Runs):
    for name, (plain, traced) in first.items():
        common = min(len(plain.io_boundaries), len(traced.io_boundaries))
        assert common >= 3
        assert plain.io_boundaries[:common] == traced.io_boundaries[:common], name


def test_span_self_times_reconcile_with_op_wall_time(first: Runs):
    for name in IN_PROCESS:
        traced = first[name][1]
        details = traced.details
        assert details["reconcile_error"] <= 0.01, name
        assert traced.metrics["trace.unattributed_share"][0] <= 0.10, name
        attributed = sum(
            row["update_ns"] + row["query_ns"]
            for row in details["layer_self_ns"].values()
        )
        assert attributed + details["unattributed_ns"] == pytest.approx(
            details["op_wall_ns"], rel=0.01
        )
    for name, (_plain, traced) in first.items():
        assert traced.metrics["trace.overhead_ratio"][0] > 0, name


def test_layers_off_the_path_report_nothing(first: Runs):
    for name in IN_PROCESS:
        metrics = first[name][1].metrics
        assert metrics["serving.router.self_us_per_update"][0] == 0
        assert metrics["serving.protocol.bytes_per_op"][0] == 0
    served = first["serve_mix"][1].metrics
    assert served["serving.server.us_per_update"][0] > 0
    assert served["serving.protocol.bytes_per_op"][0] > 0
    assert served["storage.wal.us_per_update"][0] == 0
    durable = first["durable_batch"][1].metrics
    assert durable["storage.wal.us_per_update"][0] > 0
    assert durable["core.memo_lsm.us_per_update"][0] > 0
    assert durable["core.memo.us_per_update"][0] == 0
    assert durable["core.recovery.records_replayed"][0] > 0


def test_a_corrupted_oracle_fails_the_run(monkeypatch, capsys):
    original = workloads.Trace.segment

    def corrupting(self):
        calls = original(self)
        self.oracle[0] = Rect(0.5, 0.5, 0.5, 0.5)  # nobody moved oid 0 here
        return calls

    monkeypatch.setattr(workloads.Trace, "segment", corrupting)
    code = bench_stack.main(
        ["--workload", "tree_update", "--smoke", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0


def test_one_pass_prints_the_result_object_last(tmp_path: Path):
    done = subprocess.run(
        [sys.executable, str(HERE / "bench_stack.py"), "--workload",
         "durable_batch", "--seed", "3", "--seconds", "1", "--trace", "1",
         "--smoke", "--trace-out", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    span = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert {"name", "start_ns", "end_ns", "parent", "request"} <= set(span)
    assert not (HERE / ".work").exists() or not any((HERE / ".work").iterdir())


def test_refuses_without_the_program_or_with_a_changed_environment(
    tmp_path: Path,
):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "stack",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    bare = subprocess.run(
        [sys.executable, "benchmarks/stack/bench_stack.py", "--workload",
         "tree_update", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert bare.returncode != 0
    assert "correct" not in bare.stdout
    env = dict(os.environ, REPRO_RACECHECK="1")
    refused = subprocess.run(
        [sys.executable, str(HERE / "bench_stack.py"), "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert refused.returncode == 2
    assert "REPRO_RACECHECK" in refused.stderr


# -- the span recorder on its own ------------------------------------------


def test_self_time_is_duration_minus_what_children_cover():
    rec = Recorder()

    def leaf() -> None:
        sum(range(200))

    traced_leaf = rec.wrap("inner.leaf", leaf)

    def parent() -> None:
        traced_leaf()
        traced_leaf()

    traced_parent = rec.wrap("outer.parent", parent)
    rec.req = 0
    traced_parent()
    rec.req = 1
    traced_parent()
    fold = rec.fold([workloads.UPDATE, workloads.QUERY])
    outer, inner = fold.name_id("outer.parent"), fold.name_id("inner.leaf")
    assert fold.calls[outer].tolist() == [1, 1]
    assert fold.calls[inner].tolist() == [2, 2]
    assert fold.children[outer].tolist() == [2, 2]
    assert fold.under[("inner.leaf", "outer.parent")] == 4
    assert int(fold.self_ns.sum()) == fold.root_ns
    assert rec.fold([0, 1]).spans == 0


def test_spans_on_other_threads_are_adopted_and_their_union_subtracted():
    rec = Recorder()
    gate = threading.Barrier(2)

    def job() -> None:
        gate.wait(timeout=10)
        sum(range(20000))

    traced_job = rec.wrap("core.job", job)

    def fan_out() -> None:
        threads = [threading.Thread(target=traced_job) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    traced_fan_out = rec.wrap("serving.router.query", fan_out)
    traced_fan_out()
    fold = rec.fold([workloads.QUERY])
    router, job_id = fold.name_id("serving.router.query"), fold.name_id("core.job")
    assert fold.calls[job_id, workloads.QUERY] == 2
    assert fold.children[router, workloads.QUERY] == 2
    # Both jobs ran inside the router span at the same time: the router
    # keeps a non-negative remainder, it is not charged their sum.
    assert 0 <= fold.self_ns[router, workloads.QUERY] <= fold.root_ns


def test_restore_puts_every_patched_attribute_back():
    class Thing:
        def call(self) -> int:
            return 1

    thing = Thing()
    rec = Recorder()
    rec.patch(thing, "call", "layer.call")
    rec.patch(Thing, "call", "layer.class_call")
    assert "call" in vars(thing) and thing.call() == 1
    rec.restore()
    assert "call" not in vars(thing)
    assert not hasattr(Thing.call, "__wrapped__")
