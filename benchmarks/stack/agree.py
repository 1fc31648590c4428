#!/usr/bin/env python3
"""Do two sets of ``bench_stack`` reports agree within the declared bounds?

``python3 benchmarks/stack/agree.py A.json B.json``
    two reports of the same code: for every workload x end-to-end metric,
    B may be worse than A by at most the metric's bound from
    ``BENCHMARK.json``, and A worse than B by at most the same.  With
    equal seeds every count metric must also be bit-identical.  Exits 1
    if a pair disagrees.

``python3 benchmarks/stack/agree.py A1.json ... A10.json --vs B1.json ... B10.json``
    the A/B recipe (README.md): side A is the parent commit, side B the
    change, runs paired in the order given.  Prints each side's median and
    quartiles, in how many pairs B was better, and whether B's median is
    worse than A's by more than the bound.  Exits 1 on such a regression.

The reports are the files ``bench_stack.py --out`` writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
TIME_UNITS = {"s", "us", "ops/s"}  # everything else is a count


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("smoke"):
        sys.exit(f"{path}: a smoke report is never compared")
    return report


def value(report: Dict[str, Any], workload: str, metric: str) -> float:
    return float(report["workloads"][workload]["end_to_end"][metric]["value"])


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--vs", nargs="+", default=None,
                        help="side B; without it, give exactly two reports")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    if args.vs is None:
        if len(args.reports) != 2:
            parser.error("give two reports, or two sides separated by --vs")
        side_a, side_b = [args.reports[0]], [args.reports[1]]
    else:
        side_a, side_b = args.reports, args.vs
    with open(args.benchmark, encoding="utf-8") as handle:
        declared = json.load(handle)
    a = [load(path) for path in side_a]
    b = [load(path) for path in side_b]
    single = len(a) == 1 and len(b) == 1
    same_seed = single and a[0]["env"]["seed"] == b[0]["env"]["seed"]
    disagreements = 0
    print(f"{'workload':18s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [value(r, workload, name) for r in a]
            vb = [value(r, workload, name) for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            delta = worse_by(qa[1], qb[1], metric["better"])
            if single:
                ok = abs(delta) <= bound
                verdict = "agree" if ok else "DISAGREE"
                if same_seed and metric["unit"] not in TIME_UNITS:
                    ok = ok and va == vb
                    verdict = "identical" if va == vb else "COUNT DIFFERS"
            else:
                ok = delta <= bound
                wins = sum(
                    worse_by(x, y, metric["better"]) < 0
                    for x, y in zip(va, vb)
                )
                verdict = (
                    f"{'ok' if ok else 'REGRESSION'}  B better in "
                    f"{wins}/{min(len(va), len(vb))} pairs; "
                    f"A q1..q3 {qa[0]:.5g}..{qa[2]:.5g}, "
                    f"B q1..q3 {qb[0]:.5g}..{qb[2]:.5g}"
                )
            disagreements += not ok
            print(f"{workload:18s} {name:20s} {qa[1]:12.5g} {qb[1]:12.5g} "
                  f"{delta * 100:9.2f}% {bound * 100:5.1f}%  {verdict}")
    print(f"{disagreements} of "
          f"{len(declared['workloads']) * len(declared['end_to_end'])} "
          "workload x metric pairs out of bounds")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
