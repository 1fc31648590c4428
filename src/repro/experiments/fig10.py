"""Figure 10 — effect of the inspection ratio on the RUM-tree.

Sweeps the garbage cleaner's inspection ratio from 0% to 100% for both
RUM-tree variants and reports (a) the average update I/O and (b) the
garbage ratio, plus the Update-Memo size.  Expected shape (Section 5.1.1):
update I/O grows with ir; the garbage ratio collapses by ir ≈ 20% (the
configuration the rest of the paper uses); the clean-upon-touch variant
matches the token variant's I/O while achieving far lower garbage ratios.
"""

from __future__ import annotations

from typing import Sequence

from repro.workload.objects import default_network_workload

from .harness import (
    ExperimentResult,
    TREE_LABELS,
    load_tree,
    make_tree,
    measure_updates,
    scaled,
)

DEFAULT_RATIOS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def run_fig10(
    node_size: int = 2048,
    num_objects: int = 8000,
    updates_per_object: float = 3.0,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    moving_distance: float = 0.01,
    seed: int = 11,
) -> ExperimentResult:
    """Run the Figure-10 sweep; one row per (ir, RUM variant)."""
    result = ExperimentResult(
        experiment="Figure 10",
        description="RUM-tree update I/O and garbage ratio vs inspection ratio",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for ir in ratios:
        for kind in ("rum_token", "rum_touch"):
            workload = default_network_workload(
                n, moving_distance=moving_distance, seed=seed
            )
            tree = make_tree(kind, node_size=node_size, inspection_ratio=ir)
            load_tree(tree, workload.initial())
            cost = measure_updates(tree, workload, n_updates)
            result.rows.append(
                {
                    "inspection_ratio": ir,
                    "tree": TREE_LABELS[kind],
                    "update_io": cost.io_per_operation,
                    "garbage_ratio": tree.garbage_ratio(n),
                    "memo_entries": len(tree.memo),
                    "memo_kb": tree.memo_size_bytes() / 1024.0,
                    "leaves": tree.num_leaf_nodes(),
                }
            )
    return result
