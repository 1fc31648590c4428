"""Shared drivers for the three-tree comparison figures (12, 13, 14).

Each of those figures has the same structure: a workload parameter is swept
(moving distance / object extent / number of objects) and four panels are
reported — (a) average update I/O, (b) average search I/O, (c) overall I/O
per operation as the update:query ratio grows, and (d) the size of the
auxiliary structure (Update Memo vs. secondary index).  The two functions
here implement that structure once; the figure modules supply the sweep.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Tuple

from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import mixed_trace, ratio_to_fraction

from .harness import (
    ExperimentResult,
    QUERY_SIDE,
    TREE_LABELS,
    auxiliary_size_bytes,
    load_tree,
    make_tree,
    measure_queries,
    measure_updates,
)

#: The trees compared in Figures 12–14 (the RUM-tree is the touch variant
#: with ir = 20%, the configuration Section 5.1.1 settles on).
COMPARISON_KINDS = ("rstar", "fur", "rum_touch")

#: Updates replayed per object in panels (a) and (b).
UPDATES_FACTOR = 2.0

#: Factory returning ``(workload, num_objects)`` for one sweep value.
WorkloadFactory = Callable[[float], Tuple[object, int]]


def sweep_comparison(
    experiment: str,
    description: str,
    sweep_key: str,
    values: Sequence[float],
    make_workload: WorkloadFactory,
    *,
    kinds: Iterable[str] = COMPARISON_KINDS,
    node_size: int = 2048,
    n_queries: int = 300,
    inspection_ratio: float = 0.2,
    fur_extension: float = 0.01,
) -> ExperimentResult:
    """Panels (a), (b), (d): update cost, search cost, auxiliary size.

    For every sweep value and every tree: load the initial population,
    replay ``UPDATES_FACTOR x num_objects`` updates measuring their average
    cost, then measure ``n_queries`` range queries, then record the
    auxiliary-structure size.
    """
    result = ExperimentResult(experiment=experiment, description=description)
    for value in values:
        for kind in kinds:
            workload, num_objects = make_workload(value)
            tree = make_tree(
                kind,
                node_size=node_size,
                inspection_ratio=inspection_ratio,
                fur_extension=fur_extension,
            )
            load_tree(tree, workload.initial())
            n_updates = max(16, int(num_objects * UPDATES_FACTOR))
            update_cost = measure_updates(tree, workload, n_updates)
            queries = RangeQueryGenerator(side=QUERY_SIDE, seed=17)
            query_cost = measure_queries(tree, queries, n_queries)
            result.rows.append(
                {
                    sweep_key: value,
                    "tree": TREE_LABELS[kind],
                    "num_objects": num_objects,
                    "update_io": update_cost.io_per_operation,
                    "update_cpu_ms": update_cost.cpu_ms_per_operation,
                    "search_io": query_cost.io_per_operation,
                    "aux_bytes": auxiliary_size_bytes(tree),
                    "leaves": tree.num_leaf_nodes(),
                }
            )
    return result


def overall_comparison(
    experiment: str,
    description: str,
    ratios: Sequence[Tuple[int, int]],
    make_workload: Callable[[], Tuple[object, int]],
    *,
    kinds: Iterable[str] = COMPARISON_KINDS,
    node_size: int = 2048,
    ops_factor: float = 2.0,
    inspection_ratio: float = 0.2,
    fur_extension: float = 0.01,
) -> ExperimentResult:
    """Panel (c): overall I/O per operation vs. the update:query ratio.

    Every tree replays the *same* mixed trace for each ratio (fresh trees
    per ratio so configurations do not contaminate each other).
    """
    from .harness import run_trace  # local import keeps module load cheap

    result = ExperimentResult(experiment=experiment, description=description)
    for updates, queries in ratios:
        fraction = ratio_to_fraction(updates, queries)
        for kind in kinds:
            workload, num_objects = make_workload()
            tree = make_tree(
                kind,
                node_size=node_size,
                inspection_ratio=inspection_ratio,
                fur_extension=fur_extension,
            )
            load_tree(tree, workload.initial())
            total_ops = max(32, int(num_objects * ops_factor))
            trace = mixed_trace(
                workload,
                RangeQueryGenerator(side=QUERY_SIDE, seed=23),
                total_ops,
                fraction,
                seed=29,
            )
            cost = run_trace(tree, trace)
            result.rows.append(
                {
                    "ratio": f"{updates}:{queries}",
                    "update_fraction": fraction,
                    "tree": TREE_LABELS[kind],
                    "overall_io": cost.io_per_operation,
                    "updates": cost.updates,
                    "queries": cost.queries,
                }
            )
    return result
