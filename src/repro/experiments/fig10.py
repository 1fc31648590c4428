"""Figure 10 — effect of the inspection ratio on the RUM-tree.

Sweeps the garbage cleaner's inspection ratio from 0% to 100% for both
RUM-tree variants and reports (a) the average update I/O and (b) the
garbage ratio, plus the Update-Memo size.  Expected shape (Section 5.1.1):
update I/O grows with ir; the garbage ratio collapses by ir ≈ 20% (the
configuration the rest of the paper uses); the clean-upon-touch variant
matches the token variant's I/O while achieving far lower garbage ratios.
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload

from . import harness
from .harness import (
    ExperimentResult,
    TREE_LABELS,
    make_tree,
    measure_updates,
    populate,
    scaled,
)

#: The inspection ratios swept.
RATIOS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
NUM_OBJECTS = 8000
UPDATES_PER_OBJECT = 3.0
SEED = 11


def run_fig10() -> ExperimentResult:
    """Run the Figure-10 sweep; one row per (ir, RUM variant)."""
    result = ExperimentResult(
        experiment="Figure 10",
        description="RUM-tree update I/O and garbage ratio vs inspection ratio",
    )
    n = scaled(NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    for ir in RATIOS:
        for kind in ("rum_token", "rum_touch"):
            workload = default_network_workload(
                n, moving_distance=harness.MOVING_DISTANCE, seed=SEED
            )
            tree = make_tree(kind, inspection_ratio=ir)
            populate(tree, workload.initial())
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
