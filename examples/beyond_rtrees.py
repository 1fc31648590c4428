"""The memo-based approach beyond R-trees (Section 6 of the paper).

The paper's conclusion claims the update-memo technique generalises to
"B-trees, quadtrees and Grid Files".  This example runs the same
update-heavy workload against classic and memo-based variants of all
three — a B+-tree (indexing a frequently changing scalar), a PR
quadtree, and a grid file — and prints the per-update disk-access
comparison.

Run with::

    python examples/beyond_rtrees.py
"""

import random

from repro.extensions import (
    BPlusTree,
    GridFile,
    MemoBTree,
    MemoGrid,
    MemoQuadtree,
    PRQuadtree,
)

NUM_OBJECTS = 2000
UPDATES = 6000


def drive_btree(tree) -> float:
    rng = random.Random(21)
    keys = {}
    for oid in range(NUM_OBJECTS):
        keys[oid] = rng.random()
        tree.insert_object(oid, keys[oid])
    before = tree.stats.snapshot()
    for _ in range(UPDATES):
        oid = rng.randrange(NUM_OBJECTS)
        new = min(0.999, max(0.0, keys[oid] + rng.uniform(-0.05, 0.05)))
        tree.update_object(oid, keys[oid], new)
        keys[oid] = new
    return (tree.stats.snapshot() - before).leaf_total / UPDATES


def drive_grid(grid) -> float:
    rng = random.Random(22)
    pos = {}
    for oid in range(NUM_OBJECTS):
        pos[oid] = (rng.random(), rng.random())
        grid.insert_object(oid, *pos[oid])
    before = grid.stats.snapshot()
    for _ in range(UPDATES):
        oid = rng.randrange(NUM_OBJECTS)
        x, y = pos[oid]
        new = (
            min(1.0, max(0.0, x + rng.uniform(-0.1, 0.1))),
            min(1.0, max(0.0, y + rng.uniform(-0.1, 0.1))),
        )
        grid.update_object(oid, pos[oid], new)
        pos[oid] = new
    return (grid.stats.snapshot() - before).leaf_total / UPDATES


def main() -> None:
    print(f"{NUM_OBJECTS} objects, {UPDATES} updates\n")
    rows = [
        ("B+-tree, classic update", drive_btree(BPlusTree(node_size=2048))),
        (
            "B+-tree, memo-based",
            drive_btree(MemoBTree(node_size=2048, inspection_ratio=0.2)),
        ),
        ("quadtree, classic update", drive_grid(PRQuadtree(page_size=2048))),
        (
            "quadtree, memo-based",
            drive_grid(MemoQuadtree(page_size=2048, inspection_ratio=0.2)),
        ),
        ("grid file, classic update", drive_grid(GridFile(page_size=2048))),
        (
            "grid file, memo-based",
            drive_grid(MemoGrid(page_size=2048, inspection_ratio=0.2)),
        ),
    ]
    width = max(len(name) for name, _io in rows)
    print(f"{'structure / approach':<{width}}  I/Os per update")
    print("-" * (width + 17))
    for name, io_per_update in rows:
        print(f"{name:<{width}}  {io_per_update:>13.2f}")
    print(
        "\nThe memo variants run on the RUM-tree's own UpdateMemo,"
        "\nStampCounter and GarbageCleaner objects — each supplies only its"
        "\nring of leaves and what cleaning one of them means — supporting"
        "\nthe paper's closing generality claim."
    )


if __name__ == "__main__":
    main()
