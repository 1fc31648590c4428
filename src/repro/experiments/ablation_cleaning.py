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

from typing import Sequence

from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

from .harness import (
    ExperimentResult,
    load_tree,
    make_tree,
    measure_queries,
    measure_updates,
    scaled,
)


def run_token_ablation(
    token_counts: Sequence[int] = (1, 2, 4, 8),
    num_objects: int = 6000,
    node_size: int = 2048,
    updates_per_object: float = 3.0,
    inspection_ratio: float = 0.2,
    moving_distance: float = 0.01,
    seed: int = 67,
) -> ExperimentResult:
    """Sweep the number of parallel cleaning tokens at fixed ir."""
    result = ExperimentResult(
        experiment="Token-count ablation",
        description="RUM-tree(token) with 1-8 parallel cleaning tokens at ir=20%",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for n_tokens in token_counts:
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        tree = make_tree(
            "rum_token",
            node_size=node_size,
            inspection_ratio=inspection_ratio,
            n_tokens=n_tokens,
        )
        load_tree(tree, workload.initial())
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


def run_structure_ablation(
    num_objects: int = 5000,
    node_size: int = 2048,
    updates_per_object: float = 2.0,
    n_queries: int = 300,
    moving_distance: float = 0.01,
    seed: int = 71,
) -> ExperimentResult:
    """R* vs quadratic split, forced reinsertion on/off (RUM-tree)."""
    result = ExperimentResult(
        experiment="Structure-policy ablation",
        description="split policy and forced reinsertion on the RUM-tree",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    configs = (
        ("rstar split + reinsert", "rstar", True),
        ("rstar split, no reinsert", "rstar", False),
        ("quadratic split + reinsert", "quadratic", True),
        ("quadratic split, no reinsert", "quadratic", False),
    )
    for label, split, forced in configs:
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        tree = make_tree(
            "rum_touch",
            node_size=node_size,
            split=split,
            forced_reinsert=forced,
        )
        load_tree(tree, workload.initial())
        update_cost = measure_updates(tree, workload, n_updates)
        queries = RangeQueryGenerator(side=0.01, seed=73)
        query_cost = measure_queries(tree, queries, scaled(n_queries))
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


def run_fur_extension_ablation(
    num_objects: int = 6000,
    node_size: int = 2048,
    updates_per_object: float = 2.0,
    n_queries: int = 300,
    moving_distance: float = 0.02,
    seed: int = 89,
) -> ExperimentResult:
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
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for extension in FUR_EXTENSIONS:
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        tree = make_tree(
            "fur", node_size=node_size, fur_extension=extension
        )
        load_tree(tree, workload.initial())
        update_cost = measure_updates(tree, workload, n_updates)
        queries = RangeQueryGenerator(side=0.01, seed=91)
        query_cost = measure_queries(tree, queries, scaled(n_queries))
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
