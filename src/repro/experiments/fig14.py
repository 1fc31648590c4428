"""Figure 14 — scalability with the number of indexed objects.

The population grows (the paper: 2M → 20M; the simulator sweeps one decade
at its own scale) and the same four panels are reported.  Expected shapes
(Section 5.4): the R*-tree's update cost grows with the population (more
nodes to search top-down); the FUR-tree's stays near its top-down
upper bound; the RUM-tree's is flat — insertion cost and amortised
cleaning cost are both independent of the tree size (Section 4.2.3).  The
Update-Memo size grows linearly with the population because the garbage
*ratio* is population-independent.
"""

from __future__ import annotations

import random
import tempfile
from itertools import chain
from typing import Sequence, Tuple

from repro.core.memo_lsm import SpillingUpdateMemo
from repro.storage.iostats import IOStats
from repro.workload.objects import default_network_workload

from .comparison import overall_comparison, sweep_comparison
from .harness import ExperimentResult, scaled

DEFAULT_POPULATIONS = (2500, 5000, 10000, 20000)
DEFAULT_RATIOS = ((1, 100), (1, 10), (1, 1), (10, 1), (100, 1), (10000, 1))

#: Populations for the disk-tiered memo leg.  The paper's Figure 14 runs
#: 2M-20M objects against a memo that must stay in RAM; the spilling
#: memo removes that constraint, so this sweep extends one decade past
#: the tree sweep up to one million objects (scaled by REPRO_BENCH_SCALE).
MEMO_POPULATIONS = (10_000, 100_000, 1_000_000)

#: Objects in panel (c), before scaling.
OVERALL_POPULATION = 10_000

#: Random re-updates per object in the tiered-memo leg, on top of each
#: object's first update.
MEMO_UPDATE_FACTOR = 0.5


def run_fig14(
    populations: Sequence[int] = DEFAULT_POPULATIONS,
    node_size: int = 2048,
    moving_distance: float = 0.01,
    seed: int = 37,
) -> ExperimentResult:
    """Panels (a), (b), (d): sweep the number of objects."""

    def factory(population: float):
        n = scaled(int(population))
        return (
            default_network_workload(
                n, moving_distance=moving_distance, seed=seed
            ),
            n,
        )

    return sweep_comparison(
        "Figure 14(a,b,d)",
        "update I/O, search I/O and memo size vs number of objects",
        "num_objects_swept",
        list(populations),
        factory,
        node_size=node_size,
    )


def run_fig14_overall(
    node_size: int = 2048,
    ratios: Sequence[Tuple[int, int]] = DEFAULT_RATIOS,
    moving_distance: float = 0.01,
    seed: int = 37,
) -> ExperimentResult:
    """Panel (c): overall cost vs update:query ratio at the largest
    population."""
    n = scaled(OVERALL_POPULATION)

    def factory():
        return (
            default_network_workload(
                n, moving_distance=moving_distance, seed=seed
            ),
            n,
        )

    return overall_comparison(
        "Figure 14(c)",
        f"overall I/O per operation vs update:query ratio ({n} objects)",
        ratios,
        factory,
        node_size=node_size,
        ops_factor=1.0,
    )


def run_fig14_memo(
    populations: Sequence[int] = MEMO_POPULATIONS,
    spill_budget: int = 64 * 1024,
    probe_sample: int = 2000,
    seed: int = 37,
) -> ExperimentResult:
    """Panel (d) extended: memo scalability with a *fixed* RAM budget.

    Figure 14(d) shows the Update Memo growing linearly with the object
    population — which caps how far the in-RAM memo scales.  This leg
    reruns the memo half of the sweep against a memo on a run tier
    (:class:`~repro.core.memo_lsm.RunStore`): every object gets
    one update plus :data:`MEMO_UPDATE_FACTOR` random re-updates, while RAM is
    pinned at ``spill_budget`` bytes and overflow spills to sorted runs.
    Reported per population: the logical memo size (still linear, as the
    paper predicts), the *peak* table footprint (the run raises if it ever
    exceeds the budget) beside what the tier keeps resident
    (``tier_ram_bytes``: presence screen, the Bloom filters of the runs
    above the oldest, fences), the run-tier shape, and the cost of
    ``latest_stamp`` over the spilled tier: pages per probe and empty page
    reads (``bloom_fp``) for keys the memo holds and, in their own columns,
    for absent keys.  Objects get the even oids and misses are odd, so
    every miss lies *inside* the runs' key range (``miss_in_range``): only
    the screen or a Bloom filter spares it a page, and the oldest run,
    which has no filter, reads one for any miss the screen passes.
    The tier merges leveled (:data:`~repro.core.memo_lsm.LEVEL_RATIO`), the
    policy for a memo that is read far more than it spills; on this pure
    load, where every record stays live, ``flush_writes`` is its price.
    """
    rows = []
    for population in populations:
        n = scaled(int(population))
        rng = random.Random(seed)
        stats = IOStats()
        with tempfile.TemporaryDirectory(prefix="fig14memo-") as tmp:
            memo = SpillingUpdateMemo(tmp, spill_budget=spill_budget, stats=stats)
            peak_ram = 0
            updates = chain(
                range(0, 2 * n, 2),
                (2 * rng.randrange(n) for _ in range(int(n * MEMO_UPDATE_FACTOR))),
            )
            for stamp, oid in enumerate(updates, start=1):
                memo.record_update(oid, stamp)
                peak_ram = max(peak_ram, memo.ram_size_bytes())
            if peak_ram > spill_budget:
                raise RuntimeError(
                    f"fig14memo: peak memo RAM {peak_ram} exceeded the "
                    f"{spill_budget}-byte budget at {n} objects"
                )
            pages0, fp0 = memo.run_probe_count, memo.bloom_fp_count
            hits = sum(
                memo.latest_stamp(2 * rng.randrange(n)) is not None
                for _ in range(probe_sample)
            )
            pages1, fp1 = memo.run_probe_count, memo.bloom_fp_count
            screened0 = memo.tier.screen_reject_count
            misses = [2 * rng.randrange(n) + 1 for _ in range(probe_sample)]
            for oid in misses:
                memo.latest_stamp(oid)
            in_range = sum(
                any(r.min_oid <= oid <= r.max_oid for r in memo.runs)
                for oid in misses
            )
            rows.append(
                {
                    "num_objects": n,
                    "memo_entries": len(memo),
                    "memo_bytes": memo.size_bytes(),
                    "peak_ram_bytes": peak_ram,
                    "spill_budget": spill_budget,
                    "tier_ram_bytes": memo.tier.resident_bytes(),
                    "runs": len(memo.runs),
                    "spilled_pages": sum(r.pages for r in memo.runs),
                    "flush_writes": stats.memo_writes,
                    "probe_pages_per_lookup": (pages1 - pages0) / probe_sample,
                    "bloom_fp": fp1 - fp0,
                    "probe_hits": hits,
                    "miss_pages_per_lookup": (
                        (memo.run_probe_count - pages1) / probe_sample
                    ),
                    "miss_bloom_fp": memo.bloom_fp_count - fp1,
                    "miss_screened": (
                        (memo.tier.screen_reject_count - screened0)
                        / probe_sample
                    ),
                    "miss_in_range": in_range / probe_sample,
                }
            )
            memo.close()
    return ExperimentResult(
        experiment="Figure 14(d) extended",
        description=(
            "disk-tiered memo scalability: logical size grows linearly, "
            f"RAM pinned at {spill_budget} bytes"
        ),
        rows=rows,
    )
