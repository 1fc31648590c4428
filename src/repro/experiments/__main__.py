"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig10 fig15
    python -m repro.experiments all
    REPRO_BENCH_SCALE=0.2 python -m repro.experiments fig12
    python -m repro.experiments fig10 --obs-out obs/ --obs-level trace

Each experiment prints the same table(s) the corresponding paper figure or
table reports, exactly as ``benchmarks/results/`` archives them (declared
once, in ``repro.experiments.registry``); ``pytest
benchmarks/test_paper_claims.py`` also asserts the paper's shapes.

``--obs-out DIR`` switches on the observability layer for every tree the
experiments build and writes a telemetry sidecar next to the tables:
``DIR/events.jsonl`` (the span/event trace), ``DIR/metrics.prom``
(Prometheus text exposition), and ``DIR/metrics.json``.  ``--obs-level``
selects the verbosity (``metrics`` < ``trace`` < ``debug``; ``debug``
additionally mirrors every event onto the ``repro.obs`` logging channel);
``--obs-level off`` means no telemetry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Optional

from repro.obs import (
    LEVELS,
    JsonlEventSink,
    LoggingEventSink,
    Observability,
    TeeEventSink,
    metrics_json,
    set_default_obs,
    write_prometheus,
)

from .harness import bench_scale
from .registry import EXPERIMENTS


def _build_obs(args) -> Optional[Observability]:
    """The Observability instance the CLI flags ask for (None = off)."""
    if args.obs_out is None and args.obs_level is None:
        return None
    level = args.obs_level or "trace"
    if level == "off":
        return None
    sinks = []
    if args.obs_out is not None:
        sinks.append(
            JsonlEventSink(pathlib.Path(args.obs_out) / "events.jsonl")
        )
    if level == "debug" or not sinks:
        sinks.append(LoggingEventSink())
    sink = sinks[0] if len(sinks) == 1 else TeeEventSink(sinks)
    return Observability(level=level, sink=sink)


def _write_obs_sidecar(obs: Observability, out_dir: pathlib.Path) -> None:
    write_prometheus(obs.registry, out_dir / "metrics.prom")
    (out_dir / "metrics.json").write_text(metrics_json(obs.registry))
    recorder_path = out_dir / "recorder.json"
    recorder_path.write_text(json.dumps(obs.recorder.dump(), indent=1))
    parts = [
        out_dir / "events.jsonl",
        out_dir / "metrics.prom",
        out_dir / "metrics.json",
        recorder_path,
    ]
    print(
        "\ntelemetry sidecar: " + ", ".join(str(p) for p in parts)
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help="write a telemetry sidecar (events.jsonl, metrics.prom, "
        "metrics.json) into DIR",
    )
    parser.add_argument(
        "--obs-level",
        choices=("off",) + LEVELS,
        default=None,
        help="observability verbosity, or off for no telemetry (default: "
        "trace when --obs-out is given, otherwise off)",
    )
    args = parser.parse_args(argv)

    by_name = {e.name: e for e in EXPERIMENTS}
    names = args.experiments
    if names == ["list"]:
        width = max(len(n) for n in by_name)
        for experiment in EXPERIMENTS:
            print(f"{experiment.name:<{width}}  {experiment.description}")
        return 0
    if names == ["all"]:
        names = list(by_name)

    unknown = [n for n in names if n not in by_name]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; try 'list'"
        )

    obs = _build_obs(args)
    set_default_obs(obs)
    try:
        print(
            f"workload scale: {bench_scale()} "
            f"(set REPRO_BENCH_SCALE to change)"
        )
        for name in names:
            experiment = by_name[name]
            print(f"\n=== {name}: {experiment.description} ===")
            if obs is not None:
                obs.event("experiment.start", experiment=name)
            started = time.perf_counter()
            for table in experiment.tables:
                print()
                print(table.text(table.driver()), end="")
            elapsed = time.perf_counter() - started
            if obs is not None:
                obs.event(
                    "experiment.end", experiment=name, dur_s=elapsed
                )
            print(f"\n[{name} finished in {elapsed:.1f}s]")
    finally:
        # Written in the finally so a crashed experiment still leaves the
        # flight-recorder ring and metrics on disk (CI uploads them as a
        # failure artifact).
        if obs is not None and args.obs_out is not None:
            _write_obs_sidecar(obs, pathlib.Path(args.obs_out))
        set_default_obs(None)
        if obs is not None:
            obs.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
