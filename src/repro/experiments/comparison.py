"""Shared drivers for the three-tree comparison figures (12, 13, 14).

Each of those figures has the same structure: a workload parameter is swept
(moving distance / object extent / number of objects) and four panels are
reported — (a) average update I/O, (b) average search I/O, (c) overall I/O
per operation as the update:query ratio grows, and (d) the size of the
auxiliary structure (Update Memo vs. secondary index).  The two functions
here implement that structure once; the figure modules supply the sweep.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import mixed_trace, ratio_to_fraction

from .harness import (
    ExperimentResult,
    QUERY_SIDE,
    TREE_LABELS,
    auxiliary_size_bytes,
    make_tree,
    measure_queries,
    measure_updates,
    populate,
    run_trace,
)

#: The trees compared in Figures 12–14 (the RUM-tree is the touch variant
#: with ir = 20%, the configuration Section 5.1.1 settles on).
COMPARISON_KINDS = ("rstar", "fur", "rum_touch")

#: Updates replayed per object in panels (a) and (b).
UPDATES_FACTOR = 2.0

#: Range queries measured per tree in panel (b).
NUM_QUERIES = 300

#: The update:query ratios panel (c) sweeps, from 1:100 to 10000:1.
RATIOS = ((1, 100), (1, 10), (1, 1), (10, 1), (100, 1), (10000, 1))

#: Factory returning ``(workload, num_objects)`` for one sweep value.
WorkloadFactory = Callable[[float], Tuple[object, int]]


def sweep_comparison(
    experiment: str,
    description: str,
    sweep_key: str,
    values: Sequence[float],
    make_workload: WorkloadFactory,
) -> ExperimentResult:
    """Panels (a), (b), (d): update cost, search cost, auxiliary size.

    For every sweep value and every tree: load the initial population,
    replay ``UPDATES_FACTOR x num_objects`` updates measuring their average
    cost, then measure :data:`NUM_QUERIES` range queries, then record the
    auxiliary-structure size.
    """
    result = ExperimentResult(experiment=experiment, description=description)
    for value in values:
        for kind in COMPARISON_KINDS:
            workload, num_objects = make_workload(value)
            tree = make_tree(kind)
            populate(tree, workload.initial())
            n_updates = max(16, int(num_objects * UPDATES_FACTOR))
            update_cost = measure_updates(tree, workload, n_updates)
            queries = RangeQueryGenerator(side=QUERY_SIDE, seed=17)
            query_cost = measure_queries(tree, queries, NUM_QUERIES)
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
    make_workload: Callable[[], Tuple[object, int]],
    ops_factor: float,
) -> ExperimentResult:
    """Panel (c): overall I/O per operation vs. the update:query ratio.

    Every tree replays the *same* mixed trace of ``ops_factor x
    num_objects`` operations for each of :data:`RATIOS` (fresh trees per
    ratio so configurations do not contaminate each other).
    """
    result = ExperimentResult(experiment=experiment, description=description)
    for updates, queries in RATIOS:
        fraction = ratio_to_fraction(updates, queries)
        for kind in COMPARISON_KINDS:
            workload, num_objects = make_workload()
            tree = make_tree(kind)
            populate(tree, workload.initial())
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
