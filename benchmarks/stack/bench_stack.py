#!/usr/bin/env python3
"""bench_stack: the served RUM-tree, end to end and layer by layer.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/stack/bench_stack.py --seed 47 --out report.json``
    every workload, untraced for the end-to-end metrics and then traced
    for the per-layer metrics; prints every metric with its unit, checks
    the outputs, writes the report and exits non-zero if a check failed.

``... --workload NAME --seed N --seconds S --trace 0|1``
    one pass of one workload (the form ``BENCHMARK.json`` declares); the
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

README.md in this directory has the workloads, the metrics and the ground
rules.  ``src/`` of the checkout is put on ``sys.path`` here, so no
``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench_stack: no program to measure under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro import kernels  # noqa: E402
from repro.serving.protocol import rect_to_wire, results_to_wire  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import PIECES_INSIDE, HostSpeed  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import QUERY, UPDATE, Spec, Stack, Trace  # noqa: E402

SCHEMA = "bench_stack/v1"
DEFAULT_SEED = 47
DEFAULT_SECONDS = 10.0  # run_seconds of BENCHMARK.json
#: Timed segments whose counts and end state are reported.  A run always
#: completes these; ``--seconds`` only adds timing-only segments after them.
COUNTED_SEGMENTS = 8
TRACED_SEGMENTS = 2
SMOKE_SEGMENTS = 2
SETUP_REPEATS = 3
WORK_DIR = HERE / ".work"
REFUSED_ENV = ("REPRO_RACECHECK", "REPRO_MEMO_SPILL_BUDGET")

Metrics = Dict[str, Tuple[float, str]]  # name -> (value, unit)

@dataclass
class Segment:
    """What one pass over one slice of the trace measured."""

    ops: int
    wall_ns: int = 0
    host: float = 1.0  # host-speed factor of this segment's timings
    latency_ns: Tuple[List[int], List[int]] = field(
        default_factory=lambda: ([], [])
    )
    leaf_io: List[int] = field(default_factory=lambda: [0, 0])
    failed: int = 0
    result_rows: int = 0
    io_total: Dict[str, int] = field(default_factory=dict)  # cumulative
    end_state: Dict[str, float] = field(default_factory=dict)


def run_segment(
    stack: Stack,
    calls: Sequence[workloads.Call],
    spec: Spec,
    rec: Optional[Recorder] = None,
    results: Optional[List[Any]] = None,
) -> Segment:
    """One closed-loop caller executes ``calls`` back to back.

    The per-op span is the call alone.  Between two ops, outside that
    span, the plain-int I/O counters are read and the delta goes to the
    class of the op just finished — exact, because nothing else runs.
    Reference pieces (hostspeed.py) run there too, and come out of the
    segment's wall time.  The cyclic collector runs before the segment,
    not inside it.
    """
    seg = Segment(ops=spec.ops)
    host = HostSpeed()
    gc.collect()
    gc.disable()
    try:
        _drive(seg, host, stack, calls, spec, rec, results)
    finally:
        gc.enable()
    seg.host = host.factor
    seg.io_total = stack.io().as_dict()
    return seg


def _drive(
    seg: Segment,
    host: HostSpeed,
    stack: Stack,
    calls: Sequence[workloads.Call],
    spec: Spec,
    rec: Optional[Recorder],
    results: Optional[List[Any]],
) -> None:
    fns = stack.ops()
    read_leaf_io = stack.leaf_io_reader()
    latency, leaf_io = seg.latency_ns, seg.leaf_io
    now = time.perf_counter_ns
    failed = rows = 0
    stride = max(1, len(calls) // PIECES_INSIDE)
    leaf0 = read_leaf_io()
    start = now()
    for index, (klass, payload) in enumerate(calls):
        if index % stride == 0:
            host.sample()
        if rec is not None:
            rec.req = index
        t0 = now()
        try:
            result = fns[klass](payload)
        except Exception:  # counted, and the run goes on
            result = None
            failed += len(payload) if spec.batch and klass == UPDATE else 1
        t1 = now()
        latency[klass].append(t1 - t0)
        leaf1 = read_leaf_io()
        leaf_io[klass] += leaf1 - leaf0
        leaf0 = leaf1
        if klass == QUERY and result is not None:
            rows += len(result)
        if results is not None:
            results.append(result)
    seg.wall_ns = now() - start - host.spent_ns
    seg.failed = failed
    seg.result_rows = rows


# ---------------------------------------------------------------------------
# Untraced pass: end-to-end metrics
# ---------------------------------------------------------------------------


def _latencies_us(segments: List[Segment], klass: int, per: int) -> np.ndarray:
    """Every latency sample of one class, each scaled by the host factor
    of its own segment, in µs per single op."""
    return np.concatenate([
        np.asarray(s.latency_ns[klass], dtype=np.float64) * (s.host / 1000.0 / per)
        for s in segments
    ])


def end_to_end_metrics(
    spec: Spec,
    segments: List[Segment],
    counted: List[Segment],
    setups: List[float],
    io_before: Dict[str, int],
) -> Metrics:
    """Latency percentiles are taken over the host-normalised samples of
    all timed segments, throughput over their summed host-normalised time.
    Counts are totals over the counted segments (``io_before`` is the
    counter state they started from); the space-side metrics are the mean
    of the states the counted segments ended in, which a single snapshot
    of ~500 garbage entries is too grainy for."""
    mean = statistics.fmean
    update_us = _latencies_us(segments, UPDATE, spec.batch or 1)
    query_us = _latencies_us(segments, QUERY, 1)

    def percentile(samples: np.ndarray, q: float) -> float:
        return float(np.percentile(samples, q, method="higher"))

    updates = spec.updates * len(counted)
    queries = spec.queries * len(counted)
    io_after = counted[-1].io_total
    written = sum(
        io_after[k] - io_before[k]
        for k in ("leaf_writes", "log_writes", "memo_writes")
    )
    m: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (
            sum(s.ops for s in segments)
            / sum(s.wall_ns * s.host / 1e9 for s in segments), "ops/s"),
        "update_p50_us": (percentile(update_us, 50), "us"),
        "update_tail_us": (percentile(update_us, spec.update_tail), "us"),
        "query_p50_us": (percentile(query_us, 50), "us"),
        "query_tail_us": (percentile(query_us, spec.query_tail), "us"),
        "leaf_io_per_update": (
            sum(s.leaf_io[UPDATE] for s in counted) / updates, "pages"),
        "leaf_io_per_query": (
            sum(s.leaf_io[QUERY] for s in counted) / queries, "pages"),
        "write_io_per_update": (written / updates, "pages"),
        "garbage_ratio": (
            mean(s.end_state["garbage_ratio"] for s in counted), "ratio"),
        "memo_bytes": (
            mean(s.end_state["memo_bytes"] for s in counted), "bytes"),
        "space_amp": (
            mean(s.end_state["space_amp"] for s in counted), "ratio"),
    }
    return m


@dataclass
class PassResult:
    metrics: Metrics
    attempted: int
    failed: int
    details: Dict[str, Any]
    #: Cumulative I/O counters after the warm-up and after each segment.
    io_boundaries: List[Dict[str, int]]


def _work_dir(tag: str) -> Path:
    return WORK_DIR / f"{os.getpid()}-{tag}"


def _checks(stack: Stack, trace: Trace, spec: Spec) -> Tuple[int, int, Counter]:
    """Verify outputs; for the durable workload, again after a crash that
    keeps only flushed bytes.  Returns checks, failures and recovery facts."""
    facts: Counter = Counter()
    checks, bad = workloads.verify(stack, trace.oracle, trace.verify_seed)
    if spec.batch:
        report, recover_ns = stack.crash_and_recover()
        facts["recovery_ns"] = recover_ns
        facts["recovery_records"] = report.log_records_replayed
        facts["recovery_io"] = report.disk_accesses
        more, more_bad = workloads.verify(
            stack, trace.oracle, trace.verify_seed
        )
        checks += more
        bad += more_bad
        facts["post_recovery_failures"] = more_bad
    return checks, bad, facts


def run_untraced(
    spec: Spec, seed: int, seconds: float, smoke: bool
) -> PassResult:
    n_objects = workloads.SMOKE_OBJECTS if smoke else workloads.N_OBJECTS
    n_counted = SMOKE_SEGMENTS if smoke else COUNTED_SEGMENTS
    trace = Trace(spec, seed, n_objects)
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        with HostSpeed() as host:
            t0 = time.perf_counter()
            stack = workloads.build_stack(
                spec, trace.initial, _work_dir(f"u{repeat}")
            )
            elapsed = time.perf_counter() - t0
        setups.append(elapsed * host.factor)
        if repeat < SETUP_REPEATS - 1:
            stack.close()
    try:
        gc.collect()
        gc.freeze()  # the loaded stack is not garbage: keep it out of gen2
        warm = run_segment(stack, trace.segment(), spec)
        boundaries = [warm.io_total]
        segments: List[Segment] = []
        measured_ns = 0
        while len(segments) < n_counted or measured_ns < seconds * 1e9:
            seg = run_segment(stack, trace.segment(), spec)
            segments.append(seg)
            boundaries.append(seg.io_total)
            measured_ns += seg.wall_ns
            if len(segments) <= n_counted:
                seg.end_state = stack.end_state(n_objects)
        checks, bad, facts = _checks(stack, trace, spec)
    finally:
        gc.unfreeze()
        stack.close()
    counted = segments[:n_counted]
    executed = [warm] + segments
    return PassResult(
        metrics=end_to_end_metrics(
            spec, segments, counted, setups, warm.io_total
        ),
        attempted=sum(s.ops for s in executed) + checks,
        failed=sum(s.failed for s in executed) + bad,
        details={
            "objects": n_objects,
            "segments_timed": len(segments),
            "segments_counted": len(counted),
            "ops_per_segment": spec.ops,
            "samples_per_segment": {
                "update": spec.update_calls, "query": spec.queries,
            },
            "tail_percentile": {
                "update": spec.update_tail, "query": spec.query_tail,
            },
            "measured_s": measured_ns / 1e9,
            "mean_latency_us": {
                "update": float(
                    _latencies_us(segments, UPDATE, spec.batch or 1).mean()
                ),
                "query": float(_latencies_us(segments, QUERY, 1).mean()),
            },
            "host_factor": [s.host for s in segments],
            "raw_throughput_ops_s": (
                sum(s.ops for s in segments) / (measured_ns / 1e9)
            ),
            "setup_s_all": setups,
            "result_rows": sum(s.result_rows for s in counted),
            "verification_checks": checks,
            "verification_failures": bad,
            "recovery": dict(facts),
        },
        io_boundaries=boundaries,
    )


# ---------------------------------------------------------------------------
# Traced pass: per-layer metrics
# ---------------------------------------------------------------------------


def _wire_frames(
    calls: Sequence[workloads.Call], results: Sequence[Any]
) -> List[Tuple[int, Dict[str, Any], Dict[str, Any]]]:
    """``(op class, request, response)`` as the served ops exchanged them."""
    frames = []
    for (klass, payload), result in zip(calls, results):
        if result is None:
            continue
        if klass == UPDATE:
            oid, rect = payload
            message = {"op": "update", "oid": oid, "rect": rect_to_wire(rect)}
            wire = result
        else:
            message = {"op": "query", "window": rect_to_wire(payload)}
            wire = results_to_wire(result)
        frames.append((klass, message, {"ok": True, "result": wire}))
    return frames


def run_traced(
    spec: Spec,
    seed: int,
    seconds: float,
    smoke: bool,
    trace_out: Optional[str] = None,
) -> PassResult:
    n_objects = workloads.SMOKE_OBJECTS if smoke else workloads.N_OBJECTS
    trace = Trace(spec, seed, n_objects)
    rec = Recorder()
    rec.keep_rows = trace_out is not None
    with HostSpeed() as host:
        rec.calibrate()
    ledger = layers.Ledger(
        rec.empty_in_ns * host.factor, rec.empty_out_ns * host.factor
    )
    protocol = layers.ProtocolReplay()
    tallies: Counter = Counter()
    stack = workloads.build_stack(spec, trace.initial, _work_dir("t"))
    try:
        gc.collect()
        gc.freeze()
        warm = run_segment(stack, trace.segment(), spec)
        reference = run_segment(stack, trace.segment(), spec)
        boundaries = [warm.io_total, reference.io_total]
        traced: List[Segment] = []
        measured_ns = 0
        counters_before = layers.counters(stack)
        layers.instrument(rec, stack, tallies)
        try:
            while (
                len(traced) < TRACED_SEGMENTS or measured_ns < seconds * 1e9
            ):
                calls = trace.segment()
                results: Optional[List[Any]] = [] if spec.served else None
                seg = run_segment(stack, calls, spec, rec, results)
                ledger.add(rec.fold([klass for klass, _ in calls]), seg.host)
                if results is not None:
                    protocol.replay(_wire_frames(calls, results))
                traced.append(seg)
                boundaries.append(seg.io_total)
                measured_ns += seg.wall_ns
        finally:
            rec.restore()
        tallies.update(layers.counters(stack))
        tallies.subtract(counters_before)
        checks, bad, facts = _checks(stack, trace, spec)
        tallies.update(facts)
    finally:
        gc.unfreeze()
        protocol.close()
        stack.close()
    updates = spec.updates * len(traced)
    queries = spec.queries * len(traced)
    op_wall_ns = sum(s.host * sum(sum(c) for c in s.latency_ns) for s in traced)
    traced_ns_per_op = sum(s.wall_ns * s.host for s in traced) / (
        updates + queries
    )
    overhead = traced_ns_per_op / (
        reference.wall_ns * reference.host / reference.ops
    )
    metrics = layers.per_layer_metrics(
        ledger, tallies, updates, queries, op_wall_ns, overhead, protocol
    )
    raw_layers = ledger.layers()
    attributed = sum(
        row["update_ns"] + row["query_ns"] for row in raw_layers.values()
    )
    unattributed = op_wall_ns - ledger.root_ns
    if trace_out is not None:
        rec.write_jsonl(trace_out)
    executed = [warm, reference] + traced
    return PassResult(
        metrics=metrics,
        attempted=sum(s.ops for s in executed) + checks,
        failed=sum(s.failed for s in executed) + bad,
        details={
            "objects": n_objects,
            "segments_traced": len(traced),
            "spans": ledger.spans,
            "empty_span_ns": {
                "inside": ledger.empty_in_ns, "outside": ledger.empty_out_ns,
            },
            "op_wall_ns": op_wall_ns,
            "layer_self_ns": raw_layers,
            "unattributed_ns": unattributed,
            # Self times partition the spans, so this is 0 unless spans
            # on other threads overlapped (serve_mix fan-out).
            "reconcile_error": (
                abs(attributed + unattributed - op_wall_ns) / op_wall_ns
            ),
            "updates": updates,
            "queries": queries,
            "verification_checks": checks,
            "verification_failures": bad,
        },
        io_boundaries=boundaries,
    )


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep client, server and pool threads on one CPU.

    The interpreter lock lets one of them run at a time anyway.  On two
    virtual CPUs a reply wakes a thread on the *other* one, and how long
    that takes is the hypervisor's business: during one twenty-minute
    stretch it added ~150 µs to every wake-up, which doubled every
    `serve_mix` latency while the single-thread workloads run in between
    were unmoved.  On one CPU a hand-over is a local context switch.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(seed: int) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "kernels_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "seed": seed,
    }


def as_json(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def print_metrics(workload: str, metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:18s} {name:44s} {value:16.6g} {unit}")


def run_one(args: argparse.Namespace) -> int:
    """One pass of one workload; the driver's form."""
    spec = workloads.SPEC_BY_NAME[args.workload]
    if args.smoke:
        spec = workloads.smoke_spec(spec)
    if args.trace:
        result = run_traced(
            spec, args.seed, args.seconds, args.smoke, args.trace_out
        )
    else:
        result = run_untraced(spec, args.seed, args.seconds, args.smoke)
    print_metrics(spec.name, result.metrics)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": as_json(result.metrics),
    }))
    return 0 if result.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; the whole report."""
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "env": environment(args.seed),
        "workloads": {},
    }
    attempted = failed = 0
    for spec in workloads.SPECS:
        if args.smoke:
            spec = workloads.smoke_spec(spec)
        started = time.perf_counter()
        plain = run_untraced(spec, args.seed, args.seconds, args.smoke)
        trace_out = (
            f"{args.trace_out}.{spec.name}.jsonl" if args.trace_out else None
        )
        traced = run_traced(spec, args.seed, 0.0, args.smoke, trace_out)
        # Tracing may not change what the program does: after the same
        # prefix of the trace the I/O counters of the two passes agree.
        common = min(len(plain.io_boundaries), len(traced.io_boundaries))
        same_io = (
            plain.io_boundaries[:common] == traced.io_boundaries[:common]
        )
        print_metrics(spec.name, plain.metrics)
        print_metrics(spec.name, traced.metrics)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed + (not same_io)
        report["workloads"][spec.name] = {
            "why": spec.why,
            "failed_op_share": (plain.failed + traced.failed)
            / (plain.attempted + traced.attempted),
            "end_to_end": as_json(plain.metrics),
            "per_layer": as_json(traced.metrics),
            "traced_io_identical": same_io,
            "untraced": plain.details,
            "traced": traced.details,
            "io_boundaries": plain.io_boundaries[:common],
            "run_s": time.perf_counter() - started,
        }
        print(
            f"{spec.name:18s} {'failed_op_share':44s} "
            f"{report['workloads'][spec.name]['failed_op_share']:16.6g} ratio"
            f"   (traced I/O identical: {same_io})"
        )
    report["correct"] = failed == 0
    report["attempted"] = attempted
    report["failed"] = failed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed}
    ))
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPEC_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="keep timing segments until this much time is "
                        "measured; the counted segments always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small and short; full metric set, never compared")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--trace-out",
                        help="write the traced pass's spans as JSONL")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # the fixed segments and no more
    for name in REFUSED_ENV:
        if os.environ.get(name):
            print(f"bench_stack: refusing to run with {name} set: it changes "
                  "what is measured", file=sys.stderr)
            return 2
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
