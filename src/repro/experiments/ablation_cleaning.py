"""Cleaning-design ablations (Section 3.3 design choices).

Two studies the paper motivates but does not plot:

* **Token count** (Figure 7 discussion): the same inspection ratio served
  by 1, 2, 4 or 8 parallel tokens — the aggregate cleaning work is fixed,
  so update I/O should stay flat while garbage becomes more uniformly
  distributed (shorter worst-case time since a leaf's last visit).
* **Structure policies**: R* split vs. Guttman quadratic split, and forced
  reinsertion on/off, measuring both update and search I/O on the RUM-tree
  — justifying the default R* insertion machinery.
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

from . import harness
from .harness import (
    ExperimentResult,
    make_tree,
    measure_queries,
    measure_updates,
    populate,
    scaled,
)

#: Parallel cleaning tokens swept.
TOKEN_COUNTS = (1, 2, 4, 8)
TOKEN_NUM_OBJECTS = 6000
TOKEN_UPDATES_PER_OBJECT = 3.0
TOKEN_SEED = 67


def run_token_ablation() -> ExperimentResult:
    """Sweep the number of parallel cleaning tokens at fixed ir."""
    result = ExperimentResult(
        experiment="Token-count ablation",
        description="RUM-tree(token) with 1-8 parallel cleaning tokens at ir=20%",
    )
    n = scaled(TOKEN_NUM_OBJECTS)
    n_updates = max(16, int(n * TOKEN_UPDATES_PER_OBJECT))
    for n_tokens in TOKEN_COUNTS:
        workload = default_network_workload(
            n, moving_distance=harness.MOVING_DISTANCE, seed=TOKEN_SEED
        )
        tree = make_tree("rum_token", n_tokens=n_tokens)
        populate(tree, workload.initial())
        cost = measure_updates(tree, workload, n_updates)
        result.rows.append(
            {
                "tokens": n_tokens,
                "interval": tree.cleaner.inspection_interval,
                "update_io": cost.io_per_operation,
                "garbage_ratio": tree.garbage_ratio(n),
                "leaves_inspected": tree.cleaner.leaves_inspected,
                "entries_removed": tree.cleaner.entries_removed,
            }
        )
    return result


STRUCTURE_NUM_OBJECTS = 5000
STRUCTURE_SEED = 71

#: Updates per object and range queries (before scaling) of the
#: structure and FUR-extension ablations.
UPDATES_PER_OBJECT = 2.0
NUM_QUERIES = 300


def run_structure_ablation() -> ExperimentResult:
    """R* vs quadratic split, forced reinsertion on/off (RUM-tree)."""
    result = ExperimentResult(
        experiment="Structure-policy ablation",
        description="split policy and forced reinsertion on the RUM-tree",
    )
    n = scaled(STRUCTURE_NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    configs = (
        ("rstar split + reinsert", "rstar", True),
        ("rstar split, no reinsert", "rstar", False),
        ("quadratic split + reinsert", "quadratic", True),
        ("quadratic split, no reinsert", "quadratic", False),
    )
    for label, split, forced in configs:
        workload = default_network_workload(
            n, moving_distance=harness.MOVING_DISTANCE, seed=STRUCTURE_SEED
        )
        tree = make_tree("rum_touch", split=split, forced_reinsert=forced)
        populate(tree, workload.initial())
        update_cost = measure_updates(tree, workload, n_updates)
        queries = RangeQueryGenerator(side=0.01, seed=73)
        query_cost = measure_queries(tree, queries, scaled(NUM_QUERIES))
        result.rows.append(
            {
                "config": label,
                "update_io": update_cost.io_per_operation,
                "search_io": query_cost.io_per_operation,
                "leaves": tree.num_leaf_nodes(),
                "height": tree.height,
            }
        )
    return result


#: FUR-tree leaf-MBR extension bands swept.
FUR_EXTENSIONS = (0.0, 0.01, 0.02, 0.05)
FUR_NUM_OBJECTS = 6000
FUR_MOVING_DISTANCE = 0.02
FUR_SEED = 89


def run_fur_extension_ablation() -> ExperimentResult:
    """FUR-tree leaf-MBR extension sweep (the Figure-12b trade-off).

    The extension is the FUR-tree's central tuning knob: a larger band
    keeps more updates in place (cheap) but lets leaf MBRs bloat, which
    degrades search — the cause of the FUR-tree's search-cost peak in
    Figure 12(b).  This ablation quantifies both sides of the trade.
    """
    result = ExperimentResult(
        experiment="FUR-extension ablation",
        description="FUR-tree update/search I/O vs leaf-MBR extension band",
    )
    n = scaled(FUR_NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    for extension in FUR_EXTENSIONS:
        workload = default_network_workload(
            n, moving_distance=FUR_MOVING_DISTANCE, seed=FUR_SEED
        )
        tree = make_tree("fur", fur_extension=extension)
        populate(tree, workload.initial())
        update_cost = measure_updates(tree, workload, n_updates)
        queries = RangeQueryGenerator(side=0.01, seed=91)
        query_cost = measure_queries(tree, queries, scaled(NUM_QUERIES))
        in_place, sibling, top_down = tree.update_case_mix()
        result.rows.append(
            {
                "extension": extension,
                "update_io": update_cost.io_per_operation,
                "search_io": query_cost.io_per_operation,
                "in_place_pct": 100.0 * in_place / max(1, in_place + sibling + top_down),
            }
        )
    return result
