"""Experiment drivers — one per figure/table of the paper's evaluation.

Each ``run_*`` function takes no arguments (its settings are its module's
constants), builds fresh trees, replays a deterministic workload, and
returns an :class:`~repro.experiments.harness.ExperimentResult`
whose rows mirror the series the paper plots; :mod:`.registry` declares
how each result prints and which tables ``benchmarks/results/`` archives.
"""

from .ablation_buffer import run_buffer_ablation
from .ablation_cleaning import (
    run_fur_extension_ablation,
    run_structure_ablation,
    run_token_ablation,
)
from .ablation_extensions import run_extension_ablation
from .ablation_cost import run_cost_validation
from .comparison import overall_comparison, sweep_comparison
from .crashmatrix import run_crash_matrix
from .drift import run_drift
from .fig10 import run_fig10
from .fig11 import run_fig11
from .fig12 import run_fig12, run_fig12_overall
from .fig13 import run_fig13, run_fig13_overall
from .fig14 import run_fig14, run_fig14_memo, run_fig14_overall
from .fig15 import run_fig15
from .fig16 import run_fig16
from .harness import (
    ExperimentResult,
    TREE_KINDS,
    TREE_LABELS,
    auxiliary_size_bytes,
    bench_scale,
    make_tree,
    measure_queries,
    measure_updates,
    populate,
    run_trace,
    scaled,
)
from .report import format_table, series_table
from .table2 import run_table2

__all__ = [
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig12_overall",
    "run_fig13",
    "run_fig13_overall",
    "run_fig14",
    "run_fig14_memo",
    "run_fig14_overall",
    "run_fig15",
    "run_fig16",
    "run_table2",
    "run_crash_matrix",
    "run_cost_validation",
    "run_drift",
    "run_token_ablation",
    "run_structure_ablation",
    "run_fur_extension_ablation",
    "run_extension_ablation",
    "run_buffer_ablation",
    "ExperimentResult",
    "TREE_KINDS",
    "TREE_LABELS",
    "make_tree",
    "populate",
    "measure_updates",
    "measure_queries",
    "run_trace",
    "auxiliary_size_bytes",
    "scaled",
    "bench_scale",
    "sweep_comparison",
    "overall_comparison",
    "format_table",
    "series_table",
]
