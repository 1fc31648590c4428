"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig10 fig15
    python -m repro.experiments all
    REPRO_BENCH_SCALE=0.2 python -m repro.experiments fig12
    python -m repro.experiments fig10 --obs-out obs/ --obs-level trace

Each experiment prints the same table(s) the corresponding paper figure or
table reports; ``pytest benchmarks/`` additionally asserts the expected
qualitative shapes and archives the outputs.

``--obs-out DIR`` switches on the observability layer for every tree the
experiments build and writes a telemetry sidecar next to the tables:
``DIR/events.jsonl`` (the span/event trace), ``DIR/metrics.prom``
(Prometheus text exposition), and ``DIR/metrics.json``.  ``--obs-level``
selects the verbosity (``metrics`` < ``trace`` < ``debug``; ``debug``
additionally mirrors every event onto the ``repro.obs`` logging channel).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

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

from . import (
    run_buffer_ablation,
    run_cost_validation,
    run_crash_matrix,
    run_drift,
    run_extension_ablation,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig12_overall,
    run_fig13,
    run_fig13_overall,
    run_fig14,
    run_fig14_memo,
    run_fig14_overall,
    run_fig15,
    run_fig16,
    run_fur_extension_ablation,
    run_structure_ablation,
    run_table2,
    run_token_ablation,
)
from .harness import ExperimentResult, bench_scale
from .report import format_table, series_table

#: experiment name -> (description, list of (driver, renderer)).
_RENDERERS: Dict[str, Tuple[str, List[Tuple[Callable, Callable]]]] = {}


def _register(name: str, description: str, *pairs) -> None:
    _RENDERERS[name] = (description, list(pairs))


def _series(x_key: str, value_key: str):
    def render(result: ExperimentResult) -> str:
        return series_table(result, x_key, "tree", value_key)

    return render


def _plain(columns):
    def render(result: ExperimentResult) -> str:
        return format_table(
            columns,
            [[row.get(c, "") for c in columns] for row in result.rows],
        )

    return render


_register(
    "fig10",
    "Figure 10: update I/O and garbage ratio vs inspection ratio",
    (run_fig10, _series("inspection_ratio", "update_io")),
    (run_fig10, _series("inspection_ratio", "garbage_ratio")),
)
_register(
    "fig11",
    "Figure 11: update I/O, CPU and garbage ratio vs node size",
    (run_fig11, _series("node_size", "update_io")),
    (run_fig11, _series("node_size", "update_cpu_ms")),
    (run_fig11, _series("node_size", "garbage_ratio")),
)
_register(
    "fig12",
    "Figure 12: three trees vs moving distance (+ overall vs ratio)",
    (run_fig12, _series("moving_distance", "update_io")),
    (run_fig12, _series("moving_distance", "search_io")),
    (run_fig12, _series("moving_distance", "aux_bytes")),
    (run_fig12_overall, _series("ratio", "overall_io")),
)
_register(
    "fig13",
    "Figure 13: three trees vs object extent (+ overall vs ratio)",
    (run_fig13, _series("extent", "update_io")),
    (run_fig13, _series("extent", "search_io")),
    (run_fig13, _series("extent", "aux_bytes")),
    (run_fig13_overall, _series("ratio", "overall_io")),
)
_register(
    "fig14",
    "Figure 14: three trees vs number of objects (+ overall vs ratio)",
    (run_fig14, _series("num_objects_swept", "update_io")),
    (run_fig14, _series("num_objects_swept", "search_io")),
    (run_fig14, _series("num_objects_swept", "aux_bytes")),
    (run_fig14_overall, _series("ratio", "overall_io")),
)
_register(
    "fig14memo",
    "Figure 14(d) extended: disk-tiered memo scalability to 1M objects",
    (
        run_fig14_memo,
        _plain(
            [
                "num_objects",
                "memo_entries",
                "memo_bytes",
                "peak_ram_bytes",
                "spill_budget",
                "tier_ram_bytes",
                "runs",
                "spilled_pages",
                "flush_writes",
                "probe_pages_per_lookup",
                "bloom_fp",
                "miss_pages_per_lookup",
                "miss_bloom_fp",
                "miss_screened",
            ]
        ),
    ),
)
_register(
    "fig15",
    "Figure 15: update I/O under logging options I/II/III",
    (run_fig15, _plain(["option", "update_io", "leaf_io", "log_io"])),
)
_register(
    "table2",
    "Table 2: recovery I/O per option",
    (
        run_table2,
        _plain(
            [
                "option",
                "recovery_io",
                "leaf_reads",
                "log_reads",
                "spill_io",
                "memo_entries",
            ]
        ),
    ),
)
_register(
    "crashmatrix",
    "Crash matrix: fault injection x recovery options (Section 3.4)",
    (
        run_crash_matrix,
        _plain(
            [
                "option",
                "fault_point",
                "mode",
                "outcome",
                "pending_op",
                "lost_log_records",
                "live_objects",
                "recovery_io",
                "checks_passed",
            ]
        ),
    ),
)
_register(
    "fig16",
    "Figure 16: concurrent throughput vs update percentage",
    (run_fig16, _series("update_pct", "ops_per_s")),
)
_register(
    "cost",
    "Section 4: measured vs predicted update I/O",
    (run_cost_validation, _plain(["approach", "measured_io", "predicted_io"])),
)
_register(
    "drift",
    "Cost-model drift: live predicted vs measured I/O per op class",
    (
        run_drift,
        _plain(
            [
                "tree",
                "op",
                "predicted_io",
                "measured_io",
                "drift_ratio",
                "samples",
            ]
        ),
    ),
)
_register(
    "tokens",
    "Ablation: parallel cleaning tokens at fixed inspection ratio",
    (
        run_token_ablation,
        _plain(["tokens", "update_io", "garbage_ratio", "leaves_inspected"]),
    ),
)
_register(
    "structure",
    "Ablation: split policy and forced reinsertion",
    (
        run_structure_ablation,
        _plain(["config", "update_io", "search_io", "leaves", "height"]),
    ),
)
_register(
    "fur",
    "Ablation: FUR-tree leaf-MBR extension band (Fig. 12b trade-off)",
    (
        run_fur_extension_ablation,
        _plain(["extension", "update_io", "search_io", "in_place_pct"]),
    ),
)
_register(
    "buffer",
    "Ablation: resident leaf-cache size (beyond the paper's model)",
    (run_buffer_ablation, _series("cache_pages", "update_io")),
)
_register(
    "extensions",
    "Section 6: memo-based updates on B+-trees, quadtrees and grid files",
    (
        run_extension_ablation,
        _plain([
            "structure", "approach", "update_io", "garbage",
            "memo_entries", "memo_kb",
        ]),
    ),
)


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
    parts = [
        out_dir / "events.jsonl",
        out_dir / "metrics.prom",
        out_dir / "metrics.json",
    ]
    if obs.recorder is not None:
        recorder_path = out_dir / "recorder.json"
        recorder_path.write_text(json.dumps(obs.recorder.dump(), indent=1))
        parts.append(recorder_path)
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
        choices=LEVELS,
        default=None,
        help="observability verbosity (default: trace when --obs-out is "
        "given, otherwise off)",
    )
    args = parser.parse_args(argv)

    names = args.experiments
    if names == ["list"]:
        width = max(len(n) for n in _RENDERERS)
        for name, (description, _pairs) in _RENDERERS.items():
            print(f"{name:<{width}}  {description}")
        return 0
    if names == ["all"]:
        names = list(_RENDERERS)

    unknown = [n for n in names if n not in _RENDERERS]
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
            description, pairs = _RENDERERS[name]
            print(f"\n=== {name}: {description} ===")
            if obs is not None:
                obs.event("experiment.start", experiment=name)
            cache: Dict[Callable, ExperimentResult] = {}
            started = time.perf_counter()
            for driver, render in pairs:
                if driver not in cache:
                    cache[driver] = driver()
                print()
                print(render(cache[driver]))
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
