"""Buffer-size ablation (beyond the paper's no-leaf-cache model).

Section 4 assumes only internal nodes are cached — every leaf access hits
disk.  A real buffer manager also caches leaf pages; this ablation sweeps
a resident leaf LRU from 0 pages (the paper's model) to a large fraction
of the leaf level and measures the update costs of the R*-tree and the
RUM-tree on the same workload.

Measured shape (and an honest caveat to the paper's comparison): caching
shrinks everyone's absolute costs, and the R*-tree gains *more* than the
RUM-tree — its overhead is read-dominated (the multi-path deletion
search), and reads are exactly what a cache absorbs, while the RUM-tree's
residual cost is scattered writes that must reach disk on eviction
regardless.  Once the buffer holds most of the leaf level, the R*-tree
overtakes the RUM-tree.  The memo-based approach is therefore valuable
precisely in the paper's motivating regime — update working sets much
larger than the buffer (millions of moving objects) — and this ablation
quantifies where that regime ends.
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload

from .harness import (
    ExperimentResult,
    TREE_LABELS,
    load_tree,
    make_tree,
    measure_updates,
    scaled,
)

#: Resident leaf-cache pages swept, from the paper's model (0) up.
CACHE_SIZES = (0, 8, 32, 128)


def run_buffer_ablation(
    num_objects: int = 6000,
    node_size: int = 2048,
    updates_per_object: float = 2.0,
    moving_distance: float = 0.01,
    seed: int = 83,
) -> ExperimentResult:
    """One row per (cache size, tree) with the measured per-update I/O."""
    result = ExperimentResult(
        experiment="Buffer-size ablation",
        description="per-update I/O vs resident leaf-cache pages",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for cache_pages in CACHE_SIZES:
        for kind in ("rstar", "rum_touch"):
            workload = default_network_workload(
                n, moving_distance=moving_distance, seed=seed
            )
            tree = make_tree(
                kind, node_size=node_size, leaf_cache_pages=cache_pages
            )
            load_tree(tree, workload.initial())
            cost = measure_updates(tree, workload, n_updates)
            result.rows.append(
                {
                    "cache_pages": cache_pages,
                    "tree": TREE_LABELS[kind],
                    "update_io": cost.io_per_operation,
                    "leaves": tree.num_leaf_nodes(),
                }
            )
    return result
