"""Cost-model drift report — live predicted-vs-measured I/O per op class.

Runs the paper's standard workload shape (the Figure-10 configuration:
network-constrained moving objects, 0.01-side square queries) against
every evaluated tree variant with the observability layer at ``metrics``
and reports the drift monitor's gauges: the Section-4 model's expected
counted I/O per operation, the measured per-op EWMA, and their ratio.

A ratio near 1.0 means the closed-form model still describes the running
tree; sustained drift away from 1.0 flags a workload outside the model's
assumptions (the ROADMAP's adaptive self-tuning item consumes exactly
this signal).  ``benchmarks/`` pins the fig10-configuration ratios to
the model's error envelope.
"""

from __future__ import annotations

from repro.obs import Observability, get_default_obs
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

from .harness import (
    ExperimentResult,
    QUERY_SIDE,
    TREE_KINDS,
    TREE_LABELS,
    load_tree,
    make_tree,
    measure_queries,
    measure_updates,
    scaled,
)

#: Range queries measured per tree (before scaling).
NUM_QUERIES = 400


def run_drift(
    node_size: int = 2048,
    num_objects: int = 8000,
    updates_per_object: float = 3.0,
    moving_distance: float = 0.01,
    seed: int = 11,
) -> ExperimentResult:
    """One row per (tree, op class) with predicted/measured I/O and the
    drift ratio, measured at the Figure-10 workload configuration."""
    result = ExperimentResult(
        experiment="Cost-model drift",
        description=(
            "predicted vs measured per-op I/O (EWMA) and drift ratio"
        ),
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    n_queries = scaled(NUM_QUERIES)
    # Each tree needs its own registry (clean drift gauges), but the
    # flight recorder can be shared: when the CLI installed a default
    # obs (--obs-out), feeding its recorder keeps the sidecar's
    # recorder.json populated for this experiment too.
    default = get_default_obs()
    shared_recorder = None if default is None else default.recorder
    for kind in TREE_KINDS:
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        obs = Observability(level="metrics", recorder=shared_recorder)
        tree = make_tree(kind, node_size=node_size, obs=obs)
        load_tree(tree, workload.initial())
        measure_updates(tree, workload, n_updates)
        measure_queries(
            tree, RangeQueryGenerator(side=QUERY_SIDE, seed=29), n_queries
        )
        for row in tree.drift_report():
            result.rows.append(dict(row, tree=TREE_LABELS[kind]))
        obs.close()
    return result
