"""Assemble EXPERIMENTS.md from the archived tables, in registry order.

Run from the repository root after the claims module has rewritten the
archives:

    PYTHONPATH=src python -m pytest benchmarks/test_paper_claims.py
    PYTHONPATH=src python scripts/build_experiments_md.py
"""
import pathlib

from repro.experiments.registry import ARCHIVED

RESULTS = pathlib.Path("benchmarks/results")

COMMENTARY = {
"fig10_inspection_ratio": ("Figure 10 — effect of the inspection ratio", """
**Paper:** update I/O grows with ir for both variants; the garbage ratio
"decreases rapidly when the inspection ratio increases to 20%", which the
paper picks as the sweet spot; the touch variant matches the token
variant's I/O while keeping garbage/memo far smaller.

**Measured:** identical shape. Update I/O tracks the 2(1+ir) model
(token: 2.23 at ir=0 up to ~3.7 at ir=1; the excess over the model is
split/ring maintenance). The token variant's garbage ratio collapses
~16x between ir=0 and ir=20% and is near its plateau there; the touch
variant's garbage is one to two orders of magnitude below the token
variant's at every ir, at slightly *lower* update I/O — both headline
claims of Section 5.1.1 reproduce.
"""),
"fig11_node_size": ("Figure 11 — effect of the node size", """
**Paper:** larger nodes mildly reduce update I/O (fewer splits), increase
update CPU (the cleaner inspects more entries per node), and sharply
reduce the garbage ratio; the paper fixes 8192 B afterwards.

**Measured:** panels (a) and (c) reproduce — update I/O falls slightly
from 1024 to 8192 B and the token variant's garbage ratio drops by an
order of magnitude across the sweep.  **Panel (b) is a deviation:** the
paper reports update CPU rising with the node size; here it is flat
within run-to-run noise, 0.05–0.10 ms at every size and for both
variants over four runs, with no trend (one process-time reading per
cell; the table archives one run).  It did rise once (0.130 → 0.324 ms
for the token variant at the seed of this repository), when cleaning a
leaf built and tested one entry object per slot.  Since the cleaner
sweeps the oid and stamp columns of the page image (`sweep_obsolete`
over `id_columns`) it no longer pays per entry, and what is left of an
update — the descent, one leaf read, one write-back — does not grow
with the fanout.  The claim asserts panels (a) and (c) only.

**Panel (a) at 1024 B moved once, on a tie.** It read 2.70471 (token) /
2.353458 (touch); the seed of this repository read 2.70379 / 2.353375
(22 and 2 more counted I/Os over 24,000 updates); 2048–8192 B did not
move then.  The commit after the seed ranks R* forced-reinsertion candidates
by squared centre distance instead of `math.hypot`.  In 15 of 5,504
reinsertions at 1024 B that swaps the first two candidates — two point
objects on opposite corners of the node MBR, exactly equidistant from
its centre: `hypot` rounds both to one double and the stable sort keeps
node order, while the squared sums differ in the last bit.  Which entries
are reinserted never changes and R* leaves the tie open, so nothing
departs from the split; the archive keeps today's numbers.  Since every
write is one page scope with its cleaning steps, which then reuse the
leaves it holds, every node size reads up to 0.006 lower (1024 B:
2.70413 / 2.353083).
"""),
"fig12_moving_distance": ("Figure 12(a,b,d) — varying the moving distance", """
**Paper:** R*-tree worst and roughly flat on updates; FUR-tree degrades
quickly as objects move farther (fewer in-place placements); RUM-tree
flat and cheapest (22% of R*, 40–70% of FUR). RUM search ~10% above R*;
FUR search peaks at intermediate distances (leaf-MBR extension bloat).
Memo far smaller than the FUR secondary index.

**Measured:** same ordering and shapes at simulator scale: the RUM-tree's
update cost is flat (2.23–2.41 I/Os) and 55–59% of the R*-tree's (which
sits near IO_search+3 ≈ 4.0); the FUR-tree starts at exactly 3 I/Os (all
in-place) and climbs to 6.9 as the distance grows — overtaking the
R*-tree past distance ≈ 0.03 and costing ~2.8x the RUM-tree at 0.16.
The FUR-tree's *search* cost degrades with distance (leaf-MBR extension
bloat, peaking once moves exceed the leaf extent), while the RUM-tree's
search cost is comparable to the R*-tree's — at this scale the paper's
+10% fanout effect is below the resolution of single-leaf queries. The
memo stays 1–2 orders of magnitude smaller than the secondary index
(fixed at one entry per object). Note the scale substitution
(DESIGN.md): with thousands of objects the leaves are larger, so the
FUR transition happens at proportionally larger absolute distances than
in the paper's 2M-object setup.
"""),
"fig12_overall_ratio": ("Figure 12(c) — overall cost vs update:query ratio", """
**Paper:** the RUM-tree's advantage grows with the update share; at
10000:1 its overall cost is 43% of the FUR-tree's and 23% of the R*-tree's.

**Measured:** same crossover behaviour — at 1:100 all three trees are
within 5% of each other, and the RUM-tree's advantage widens with the
update share: at 10000:1 it costs 2.28 I/Os per op vs 3.01 (76%) for
the FUR-tree and 4.03 (57%) for the R*-tree. The factors are smaller
than the paper's 43%/23% because the R*-tree's deletion search is far
cheaper over thousands of objects than over millions.
"""),
"fig13_object_extent": ("Figure 13(a,b,d) — varying the object extent", """
**Paper:** R* update cost grows with extent (wider MBRs = more deletion
search paths), FUR falls (more in-place), RUM flat and cheapest (14–25%
of R*); memo size *decreases* with extent (clean-upon-touch hits the
original node more often).

**Measured:** the orderings reproduce exactly (RUM < FUR < R* on updates
at every extent, RUM flat within 1%), and the search costs of all trees
grow with the extent as MBRs widen.  The R*-tree's update-cost *slope*
is much weaker than the paper's: its deletion search prunes by MBR
containment, and at thousands of objects the leaf MBRs dwarf even the
largest extents, so the paper's extra-search-paths effect is mostly
below the noise floor here (the sweep already extends to 4x the paper's
largest extent to compensate for leaf size — DESIGN.md).  The FUR-tree
sits at its 3-I/O in-place floor throughout, the extreme of the paper's
"update cost decreases with extent" trend.
"""),
"fig13_overall_ratio": ("Figure 13(c) — overall cost at extent 0.01", """
**Paper:** RUM-tree outperforms the R*-tree beyond 1:1 and the FUR-tree
beyond 10:1.

**Measured:** same crossings (the exact crossover ratios shift with the
scale substitution, but update-heavy ratios are clear RUM wins).
"""),
"fig14_scalability": ("Figure 14(a,b,d) — scalability with the number of objects", """
**Paper:** R*-tree update cost grows with the population (13–28% of it
for the RUM-tree); the FUR-tree saturates near its top-down upper bound;
the RUM-tree is flat — insertion and amortised cleaning are both
independent of the tree size; memo size grows linearly.

**Measured:** the R*-tree's update cost grows monotonically over the
population decade while the RUM-tree's stays flat and lowest (55–57% of
the R*-tree); the memo grows (sub-)linearly with the population while
the FUR-tree's secondary index grows exactly linearly (one entry per
object, 40x the memo at the largest population). One scale artefact: at
the default moving distance our larger leaves keep the FUR-tree pinned
at its 3-I/O in-place floor, where the paper's 2M-object leaves push it
to its 7-I/O top-down ceiling — both are the "population-independent"
plateau Section 5.4 describes, approached from opposite ends.
"""),
"fig14_overall_ratio": ("Figure 14(c) — overall cost at the largest population", """
**Paper:** at 10000:1, the RUM-tree's cost is 50% of the FUR-tree's and
13% of the R*-tree's.

**Measured:** the RUM-tree wins both comparisons at update-heavy ratios.
"""),
"fig15_logging": ("Figure 15 — update I/O under logging options", """
**Paper:** Option I cheapest; Option II only slightly above (occasional
UM checkpoints); Option III ~50% higher (forced log write per update).

**Measured:** Option II costs <0.01 I/O above Option I; Option III adds
almost exactly 1.0 log write per update (+45% in total cost) — the
Section 4.2.3 surcharges to the digit.
"""),
"table2_recovery": ("Table 2 — number of I/Os for recovery", """
**Paper (2M objects):** Option I 2,008,000; Option II 7,000; Option III 200.

**Measured (scaled population):** the same orders separate the options —
Option I is dominated by the spill of its per-object intermediate table
(≈1 access per object), Option II costs about one read per leaf node
plus the checkpoint, Option III reads only the checkpoint and log tail
and touches zero leaf pages. Options II/III recover a safe superset of
the pre-crash memo; a cleaning cycle then removes the phantoms (verified
by its claim).
"""),
"fig16_throughput": ("Figure 16 — throughput under concurrent accesses", """
**Paper:** similar throughput at 0% updates; as the update share rises
the R*-tree's throughput falls while the RUM-tree's stays high, because
a memo-based update locks a single insertion path while a top-down
update exclusively locks its multi-path search neighbourhood.

**Measured:** on a query-only workload the two trees sit in the same
band (each cell is ~60 ms of work, so the sweep runs one unmeasured
warm-up cell first and keeps the cyclic GC off the clock; six
consecutive runs read 12.2-14.7 k vs 8.8-13.7 k ops/s there); as the
update share rises the RUM-tree's relative advantage grows
monotonically, reaching roughly 3-4x the R*-tree's throughput on an
update-only workload — the paper's Figure-16 shape.
"""),
"ablation_cost_model": ("Section 4 — cost-model validation (ablation)", """
The Lemma-2 estimator fed with the measured leaf MBRs predicts the
R*-tree's update cost within tens of percent; the 3/6/7 bottom-up mix
matches the FUR-tree's measured cost closely; the RUM-tree's leaf I/O
sits within a few hundredths of 2(1+ir). The Section 4.1 garbage and
memo-size bounds hold in steady state.
"""),
"ablation_tokens": ("Section 3.3 — cleaning-token ablation", """
At a fixed inspection ratio the number of parallel tokens does not change
the aggregate cleaning work: update I/O, leaves inspected, and garbage
ratio stay flat from 1 to 8 tokens, confirming that ir (not the token
count) is the knob that matters — as Equation 1 implies.
"""),
"ablation_structure": ("Structure-policy ablation", """
R* split + forced reinsertion (the paper's insertion machinery) gives the
best search cost; Guttman's quadratic split without reinsertion trades a
slightly cheaper update path for noticeably worse search — justifying the
paper's choice of the R*-tree as the substrate.
"""),
"ablation_fur_extension": ("FUR-tree extension-band ablation (Fig. 12b mechanism)", """
The FUR-tree's leaf-MBR extension band is its central tuning knob: a
wider band raises the in-place share towards 100% and drops the update
cost to its 3-I/O floor, while the bloated leaf MBRs raise the search
cost ~50% — exactly the mechanism behind the FUR-tree's search-cost
degradation in Figure 12(b).
"""),
"ablation_buffer": ("Buffer-size ablation (beyond the paper's model)", """
The paper charges every leaf access to disk (only internal nodes are
cached).  Sweeping a resident leaf LRU shows where that model's
conclusion holds: with no leaf cache the RUM-tree wins ~2x; as the cache
grows the R*-tree gains more (its overhead is the reads of the top-down
deletion search, which caching absorbs) and overtakes the RUM-tree once
the buffer holds most of the leaf level.  The memo-based approach is
thus valuable exactly in the paper's motivating regime: update working
sets much larger than the buffer.
"""),
"ablation_extensions": ("Section 6 — beyond R-trees (extension)", """
The memo transplants verbatim onto a B+-tree, a PR quadtree, and a grid
file — the conclusion's full list: classic updates cost ~4 I/Os
(read+write at the old location, read+write at the new), memo-based
updates ~2.3 I/Os (one insertion plus amortised cleaning) — the same
~2x reduction pattern as the RUM-tree, on the same `UpdateMemo`,
`StampCounter` and `GarbageCleaner` objects: each structure supplies
only its leaf ring and what cleaning one ring position means.  Phantom
inspection therefore runs on all of them, and the memo ends proportional
to the garbage (`memo_entries` ≈ `garbage`), not to the 4,000 objects an
insert-is-an-update load leaves one memo entry each for (Section 4.1).
"""),
}

HEADER = '''# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure of the evaluation section
of *"R-trees with Update Memos"* (Xiong & Aref, ICDE 2006), regenerated by

```bash
PYTHONPATH=src python -m pytest benchmarks/test_paper_claims.py
PYTHONPATH=src python scripts/build_experiments_md.py
```

at the default workload scale (`REPRO_BENCH_SCALE=1`: thousands of objects
instead of the paper's millions — see the substitution table in DESIGN.md;
all reported metrics are *per-operation disk accesses*, which are intensive
quantities that survive the down-scaling). Each table below is declared
once, in `repro.experiments.registry` (`python -m repro.experiments <name>`
prints it); the claims module archives it under `benchmarks/results/`,
**asserts the paper's qualitative shape** (ordering of the trees,
monotonicity, crossovers, bounds) and fails when a column without
wall-clock timing differs from the committed archive — the reproduction
claims are executable and the counted numbers gated.

Absolute numbers are *not* expected to match the 2006 testbed: the paper
measured a specific disk/buffer configuration at 2–20M objects. What must
(and does) match is who wins, in which direction each curve moves, and by
roughly what factor — noted per experiment below.

'''

def main():
    order = [table.archive for table in ARCHIVED]
    assert sorted(COMMENTARY) == sorted(order), "one commentary per archive"
    parts = [HEADER]
    for name in order:
        title, commentary = COMMENTARY[name]
        path = RESULTS / f"{name}.txt"
        body = path.read_text().rstrip() if path.exists() else "(not yet generated)"
        parts.append(f"## {title}\n{commentary}\n```text\n{body}\n```\n")
    pathlib.Path("EXPERIMENTS.md").write_text("\n".join(parts))
    print("EXPERIMENTS.md written,",
          sum(1 for n in order if (RESULTS / f"{n}.txt").exists()), "of", len(order), "tables present")

if __name__ == "__main__":
    main()
