#!/usr/bin/env python
"""Compare two ``bench_micro/v1`` reports and flag regressions.

Usage::

    python scripts/bench_compare.py baseline.json current.json [more.json...] \
        [--threshold 0.10] [--json report.json]

Prints one line per metric with the throughput ratio.  A metric regresses
when its current ops/sec falls more than ``threshold`` (default 10%)
below the baseline.  By default the script is report-only (exit 0 either
way, so local runs on noisy machines never fail); with
``--fail-on-regress`` any regression makes it exit non-zero so CI can
gate on it.  Metrics present in only one file are reported but never
fail the comparison (the suite is allowed to grow).

Several ``current`` reports may be given (repeat runs of the same
suite); they are merged per metric by keeping the *best* ops/sec.
Throughput noise on a shared machine is one-sided — a run can only be
slowed down, never sped up — so best-of-N estimates the machine's true
capability and stops transient load from tripping the CI gate.  All
merged reports must share a scale.

``--json PATH`` additionally writes a machine-readable report::

    {
      "schema": "bench_compare/v1",
      "threshold": 0.10,
      "baseline_scale": 1.0,
      "current_scale": 1.0,
      "regressions": 0,
      "metrics": {
        "<name>": {"status": "ok" | "improved" | "regressed" | "new"
                             | "removed",
                   "baseline_ops_per_sec": ..., "current_ops_per_sec": ...,
                   "delta_pct": ...},
        ...
      },
      "delta_pct_summary": {"count": ..., "p50": ..., "p95": ..., "p99": ...}
    }

The ``delta_pct_summary`` block summarises the distribution of per-metric
throughput deltas (only metrics present in both reports).  A healthy
comparison has p50 near zero; a systematically slow current run shows up
as the whole distribution shifting negative even when no single metric
crosses the regression threshold.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SCHEMA = "bench_micro/v1"
COMPARE_SCHEMA = "bench_compare/v1"


def load_report(path: pathlib.Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(report, dict):
        raise SystemExit(f"{path}: expected a JSON object at top level")
    schema = report.get("schema")
    if schema != SCHEMA:
        raise SystemExit(
            f"{path}: unsupported schema {schema!r} (expected {SCHEMA!r})"
        )
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        raise SystemExit(f"{path}: report has no 'metrics' object")
    return report


def merge_best(reports: list) -> dict:
    """Best-of-N merge of repeat runs: per metric, keep the highest
    ops/sec (with its iteration count).  Scales must match — a metric
    measured at different scales is not the same measurement."""
    merged = reports[0]
    if len(reports) == 1:
        return merged
    scales = {r.get("scale") for r in reports}
    if len(scales) > 1:
        raise SystemExit(
            f"cannot merge runs at different scales: {sorted(scales)}"
        )
    metrics = dict(merged["metrics"])
    for report in reports[1:]:
        for name, m in report["metrics"].items():
            best = metrics.get(name)
            if best is None or m["ops_per_sec"] > best["ops_per_sec"]:
                metrics[name] = m
    merged = dict(merged)
    merged["metrics"] = metrics
    return merged


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolation percentile of pre-sorted data (standalone
    twin of the registry histogram's estimator — this script must run
    without ``repro`` importable)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def delta_summary(per_metric: dict) -> dict:
    """p50/p95/p99 of the per-metric throughput deltas."""
    deltas = sorted(
        m["delta_pct"]
        for m in per_metric.values()
        if m["delta_pct"] is not None
    )
    return {
        "count": len(deltas),
        "p50": percentile(deltas, 0.50),
        "p95": percentile(deltas, 0.95),
        "p99": percentile(deltas, 0.99),
    }


def compare(baseline: dict, current: dict, threshold: float) -> dict:
    """Per-metric comparison; returns the ``bench_compare/v1`` report."""
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    if baseline.get("scale") != current.get("scale"):
        print(
            f"note: comparing different scales "
            f"({baseline.get('scale')} vs {current.get('scale')})"
        )
    regressions = 0
    per_metric = {}
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        if base is None:
            print(f"  NEW      {name:32s} {cur['ops_per_sec']:12.1f} ops/s")
            per_metric[name] = {
                "status": "new",
                "baseline_ops_per_sec": None,
                "current_ops_per_sec": cur["ops_per_sec"],
                "delta_pct": None,
            }
            continue
        if cur is None:
            print(f"  REMOVED  {name:32s} {base['ops_per_sec']:12.1f} ops/s")
            per_metric[name] = {
                "status": "removed",
                "baseline_ops_per_sec": base["ops_per_sec"],
                "current_ops_per_sec": None,
                "delta_pct": None,
            }
            continue
        b = base["ops_per_sec"]
        c = cur["ops_per_sec"]
        delta = (c / b - 1.0) if b > 0 else 0.0
        status = "ok"
        if delta < -threshold:
            status = "regressed"
            regressions += 1
        elif delta > threshold:
            status = "improved"
        shown = "REGRESSED" if status == "regressed" else status
        print(
            f"  {shown:10s}{name:32s} {b:12.1f} -> {c:12.1f} ops/s "
            f"({delta * 100:+6.1f}%)"
        )
        per_metric[name] = {
            "status": status,
            "baseline_ops_per_sec": b,
            "current_ops_per_sec": c,
            "delta_pct": delta * 100.0,
        }
    summary = delta_summary(per_metric)
    if summary["count"]:
        print(
            f"  delta distribution: p50 {summary['p50']:+.1f}%  "
            f"p95 {summary['p95']:+.1f}%  p99 {summary['p99']:+.1f}% "
            f"({summary['count']} shared metric(s))"
        )
    return {
        "schema": COMPARE_SCHEMA,
        "threshold": threshold,
        "baseline_scale": baseline.get("scale"),
        "current_scale": current.get("scale"),
        "regressions": regressions,
        "metrics": per_metric,
        "delta_pct_summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument(
        "current",
        type=pathlib.Path,
        nargs="+",
        help="one or more current-run reports; repeat runs are merged "
        "best-of-N per metric before comparing",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional slowdown tolerated before a metric is flagged "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write the comparison as machine-readable JSON",
    )
    parser.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="exit non-zero when any metric regressed (CI gate); "
        "without it the comparison is report-only",
    )
    args = parser.parse_args(argv)
    current = merge_best([load_report(p) for p in args.current])
    report = compare(load_report(args.baseline), current, args.threshold)
    if args.json is not None:
        args.json.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    regressions = report["regressions"]
    print(
        f"summary: {regressions} regression(s) beyond "
        f"{args.threshold * 100:.0f}% across {len(report['metrics'])} "
        f"metric(s)"
    )
    return 1 if regressions and args.fail_on_regress else 0


if __name__ == "__main__":
    sys.exit(main())
