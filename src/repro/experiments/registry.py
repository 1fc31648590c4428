"""The paper's evaluation, declared once.

Each :class:`Experiment` is one name of ``python -m repro.experiments``;
each of its :class:`Table` s is one report: the driver that measures it,
its sections (a title line and a rendered table each) and, for the tables
the reproduction record keeps, the archive name under
``benchmarks/results/``.  Three consumers read :data:`EXPERIMENTS`: the
CLI prints exactly :meth:`Table.text`, ``benchmarks/test_paper_claims.py``
writes it to the archive and checks the paper's shape against it, and
``scripts/build_experiments_md.py`` takes its order from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .ablation_buffer import run_buffer_ablation
from .ablation_cleaning import (
    run_fur_extension_ablation,
    run_structure_ablation,
    run_token_ablation,
)
from .ablation_cost import run_cost_validation
from .ablation_extensions import run_extension_ablation
from .crashmatrix import run_crash_matrix
from .drift import run_drift
from .fig10 import run_fig10
from .fig11 import run_fig11
from .fig12 import run_fig12, run_fig12_overall
from .fig13 import run_fig13, run_fig13_overall
from .fig14 import run_fig14, run_fig14_memo, run_fig14_overall
from .fig15 import run_fig15
from .fig16 import run_fig16
from .harness import ExperimentResult
from .report import format_table, series_table
from .table2 import run_table2


@dataclass(frozen=True)
class Section:
    """One titled table of a report.  ``timed`` marks a wall-clock column,
    which differs from run to run and so is never compared with the
    archive."""

    title: str
    render: Callable[[ExperimentResult], str]
    timed: bool = False


class Table:
    """One report: ``driver``'s result printed as ``sections``, kept as
    ``benchmarks/results/<archive>.txt`` when ``archive`` is given."""

    def __init__(
        self,
        driver: Callable[[], ExperimentResult],
        *sections: Section,
        archive: Optional[str] = None,
    ) -> None:
        self.driver = driver
        self.sections = sections
        self.archive = archive

    def text(self, result: ExperimentResult) -> str:
        parts = []
        for section in self.sections:
            parts += [section.title, section.render(result)]
        return "\n\n".join(parts) + "\n"


class Experiment:
    """One name of the CLI: its ``list`` line and the tables it prints."""

    def __init__(self, name: str, description: str, *tables: Table) -> None:
        self.name = name
        self.description = description
        self.tables = tables


def series(
    title: str, x_key: str, value_key: str, timed: bool = False
) -> Section:
    """One metric pivoted to an ``x`` column plus one column per tree."""
    return Section(
        title, lambda r: series_table(r, x_key, "tree", value_key), timed
    )


def plain(title: str, columns: str) -> Section:
    """The result's rows, with the (space-separated) chosen columns."""
    keys = columns.split()
    return Section(
        title,
        lambda r: format_table(
            keys, [[row.get(c, "") for c in keys] for row in r.rows]
        ),
    )


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "fig10", "Figure 10: update I/O and garbage ratio vs inspection ratio",
        Table(
            run_fig10,
            series("Figure 10(a) — average update I/O vs inspection ratio",
                   "inspection_ratio", "update_io"),
            series("Figure 10(b) — garbage ratio vs inspection ratio",
                   "inspection_ratio", "garbage_ratio"),
            series("Update-memo size (KB) vs inspection ratio",
                   "inspection_ratio", "memo_kb"),
            archive="fig10_inspection_ratio",
        ),
    ),
    Experiment(
        "fig11", "Figure 11: update I/O, CPU and garbage ratio vs node size",
        Table(
            run_fig11,
            series("Figure 11(a) — average update I/O vs node size",
                   "node_size", "update_io"),
            series("Figure 11(b) — average update CPU (ms) vs node size",
                   "node_size", "update_cpu_ms", timed=True),
            series("Figure 11(c) — garbage ratio vs node size",
                   "node_size", "garbage_ratio"),
            archive="fig11_node_size",
        ),
    ),
    Experiment(
        "fig12",
        "Figure 12: three trees vs moving distance (+ overall vs ratio)",
        Table(
            run_fig12,
            series("Figure 12(a) — average update I/O vs moving distance",
                   "moving_distance", "update_io"),
            series("Figure 12(b) — average search I/O vs moving distance",
                   "moving_distance", "search_io"),
            series("Figure 12(d) — auxiliary structure size (bytes)",
                   "moving_distance", "aux_bytes"),
            archive="fig12_moving_distance",
        ),
        Table(
            run_fig12_overall,
            series("Figure 12(c) — overall I/O per op vs update:query ratio",
                   "ratio", "overall_io"),
            archive="fig12_overall_ratio",
        ),
    ),
    Experiment(
        "fig13",
        "Figure 13: three trees vs object extent (+ overall vs ratio)",
        Table(
            run_fig13,
            series("Figure 13(a) — average update I/O vs object extent",
                   "extent", "update_io"),
            series("Figure 13(b) — average search I/O vs object extent",
                   "extent", "search_io"),
            series("Figure 13(d) — auxiliary structure size (bytes)",
                   "extent", "aux_bytes"),
            archive="fig13_object_extent",
        ),
        Table(
            run_fig13_overall,
            series("Figure 13(c) — overall I/O per op vs update:query ratio "
                   "(extent 0.01)", "ratio", "overall_io"),
            archive="fig13_overall_ratio",
        ),
    ),
    Experiment(
        "fig14",
        "Figure 14: three trees vs number of objects (+ overall vs ratio)",
        Table(
            run_fig14,
            series("Figure 14(a) — average update I/O vs number of objects",
                   "num_objects_swept", "update_io"),
            series("Figure 14(b) — average search I/O vs number of objects",
                   "num_objects_swept", "search_io"),
            series("Figure 14(d) — update-memo size (bytes) vs number of "
                   "objects", "num_objects_swept", "aux_bytes"),
            archive="fig14_scalability",
        ),
        Table(
            run_fig14_overall,
            series("Figure 14(c) — overall I/O per op vs update:query ratio "
                   "(largest population)", "ratio", "overall_io"),
            archive="fig14_overall_ratio",
        ),
    ),
    Experiment(
        "fig14memo",
        "Figure 14(d) extended: disk-tiered memo scalability to 1M objects",
        Table(run_fig14_memo, plain(
            "Figure 14(d) extended — spilled Update Memo vs number of objects",
            "num_objects memo_entries memo_bytes peak_ram_bytes spill_budget "
            "tier_ram_bytes runs spilled_pages flush_writes "
            "probe_pages_per_lookup bloom_fp miss_pages_per_lookup "
            "miss_bloom_fp miss_screened",
        )),
    ),
    Experiment(
        "fig15", "Figure 15: update I/O under logging options I/II/III",
        Table(run_fig15, plain(
            "Figure 15 — average update I/O per logging option",
            "option update_io leaf_io log_io",
        ), archive="fig15_logging"),
    ),
    Experiment(
        "table2", "Table 2: recovery I/O per option",
        Table(run_table2, plain(
            "Table 2 — number of I/Os for recovery",
            "option recovery_io leaf_reads log_reads spill_io memo_entries "
            "memo_superset",
        ), archive="table2_recovery"),
    ),
    Experiment(
        "crashmatrix",
        "Crash matrix: fault injection x recovery options (Section 3.4)",
        Table(run_crash_matrix, plain(
            "Crash matrix — outcome per recovery option and fault point",
            "option fault_point mode outcome pending_op lost_log_records "
            "live_objects recovery_io checks_passed",
        )),
    ),
    Experiment(
        "fig16", "Figure 16: concurrent throughput vs update percentage",
        Table(run_fig16, series(
            "Figure 16 — throughput (ops/s) vs update percentage",
            "update_pct", "ops_per_s", timed=True,
        ), archive="fig16_throughput"),
    ),
    Experiment(
        "cost", "Section 4: measured vs predicted update I/O",
        Table(run_cost_validation, plain(
            "Section 4 — measured vs predicted per-update I/O",
            "approach measured_io predicted_io",
        ), archive="ablation_cost_model"),
    ),
    Experiment(
        "drift",
        "Cost-model drift: live predicted vs measured I/O per op class",
        Table(run_drift, plain(
            "Cost-model drift — predicted vs measured I/O per op class",
            "tree op predicted_io measured_io drift_ratio samples",
        )),
    ),
    Experiment(
        "tokens",
        "Ablation: parallel cleaning tokens at fixed inspection ratio",
        Table(run_token_ablation, plain(
            "Token-count ablation (ir = 20%)",
            "tokens update_io garbage_ratio leaves_inspected entries_removed",
        ), archive="ablation_tokens"),
    ),
    Experiment(
        "structure", "Ablation: split policy and forced reinsertion",
        Table(run_structure_ablation, plain(
            "Structure-policy ablation (RUM-tree)",
            "config update_io search_io leaves height",
        ), archive="ablation_structure"),
    ),
    Experiment(
        "fur",
        "Ablation: FUR-tree leaf-MBR extension band (Fig. 12b trade-off)",
        Table(run_fur_extension_ablation, plain(
            "FUR-tree update/search I/O vs leaf-MBR extension band",
            "extension update_io search_io in_place_pct",
        ), archive="ablation_fur_extension"),
    ),
    Experiment(
        "buffer",
        "Ablation: resident leaf-cache size (beyond the paper's model)",
        Table(run_buffer_ablation, series(
            "Per-update I/O vs resident leaf-cache pages",
            "cache_pages", "update_io",
        ), archive="ablation_buffer"),
    ),
    Experiment(
        "extensions",
        "Section 6: memo-based updates on B+-trees, quadtrees and grid files",
        Table(run_extension_ablation, plain(
            "Memo-based vs classic updates beyond R-trees (Section 6 claim)",
            "structure approach update_io entries garbage memo_entries "
            "memo_kb",
        ), archive="ablation_extensions"),
    ),
)

#: The tables ``benchmarks/results/`` keeps, in reproduction-record order.
ARCHIVED: Tuple[Table, ...] = tuple(
    table for e in EXPERIMENTS for table in e.tables if table.archive
)
