"""Generality ablation: memo-based updates beyond R-trees (Section 6).

The conclusion claims the memo approach carries over to "B-trees,
quadtrees and Grid Files".  This driver replays an identical update-heavy
workload on the classic and the memo-based variant of all three
structures and reports the per-update disk-access ratio — the headline
RUM-vs-R* comparison, repeated on three other index families.  The memo
rows also report the Update Memo's size: all three run on the RUM-tree's
garbage cleaner, whose phantom inspection keeps the memo proportional to
the garbage, not to the objects (Section 4.1).
"""

from __future__ import annotations

import random

from repro.extensions.btree import BPlusTree, MemoBTree
from repro.extensions.grid import GridFile, MemoGrid
from repro.extensions.quadtree import MemoQuadtree, PRQuadtree
from repro.storage.iostats import IOSnapshot

from . import harness
from .harness import ExperimentResult, scaled

NUM_OBJECTS = 4000
UPDATES_PER_OBJECT = 2.0
SEED = 79


def _drive_btree(
    tree, num_objects: int, updates: int, seed: int
) -> IOSnapshot:
    """Load, then update; returns the I/O of the update phase."""
    rng = random.Random(seed)
    keys = {}
    for oid in range(num_objects):
        keys[oid] = rng.random()
        tree.insert_object(oid, keys[oid])
    before = tree.stats.snapshot()
    for _ in range(updates):
        oid = rng.randrange(num_objects)
        new_key = min(0.999, max(0.0, keys[oid] + rng.uniform(-0.05, 0.05)))
        tree.update_object(oid, keys[oid], new_key)
        keys[oid] = new_key
    return tree.stats.snapshot() - before


def _drive_grid(
    grid, num_objects: int, updates: int, seed: int
) -> IOSnapshot:
    """Load, then update; returns the I/O of the update phase."""
    rng = random.Random(seed)
    positions = {}
    for oid in range(num_objects):
        positions[oid] = (rng.random(), rng.random())
        grid.insert_object(oid, *positions[oid])
    before = grid.stats.snapshot()
    for _ in range(updates):
        oid = rng.randrange(num_objects)
        x, y = positions[oid]
        new = (
            min(1.0, max(0.0, x + rng.uniform(-0.1, 0.1))),
            min(1.0, max(0.0, y + rng.uniform(-0.1, 0.1))),
        )
        grid.update_object(oid, positions[oid], new)
        positions[oid] = new
    return grid.stats.snapshot() - before


def run_extension_ablation() -> ExperimentResult:
    """One row per (structure, update approach) with per-update I/O."""
    result = ExperimentResult(
        experiment="Extension ablation",
        description=(
            "memo-based vs classic updates on B+-trees, quadtrees and "
            "grid files"
        ),
    )
    n = scaled(NUM_OBJECTS)
    updates = max(16, int(n * UPDATES_PER_OBJECT))
    node_size = harness.NODE_SIZE
    inspection_ratio = harness.INSPECTION_RATIO

    structures = (
        ("B+-tree", "classic", BPlusTree(node_size=node_size), _drive_btree),
        (
            "B+-tree",
            "memo",
            MemoBTree(node_size=node_size, inspection_ratio=inspection_ratio),
            _drive_btree,
        ),
        (
            "quadtree",
            "classic",
            PRQuadtree(page_size=node_size),
            _drive_grid,
        ),
        (
            "quadtree",
            "memo",
            MemoQuadtree(
                page_size=node_size, inspection_ratio=inspection_ratio
            ),
            _drive_grid,
        ),
        ("grid file", "classic", GridFile(page_size=node_size), _drive_grid),
        (
            "grid file",
            "memo",
            MemoGrid(page_size=node_size, inspection_ratio=inspection_ratio),
            _drive_grid,
        ),
    )
    for family, approach, structure, drive in structures:
        measured = drive(structure, n, updates, SEED)
        row = {
            "structure": family,
            "approach": approach,
            "objects": n,
            "update_io": measured.leaf_total / updates,
            "entries": structure.num_entries(),
        }
        if approach == "memo":
            row["garbage"] = structure.garbage_count()
            row["memo_entries"] = len(structure.memo)
            row["memo_kb"] = structure.memo_size_bytes() / 1024.0
        result.rows.append(row)
    return result
