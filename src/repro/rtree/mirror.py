"""Grid-bucketed flattened mirror of a tree's leaf level (query cache).

A range query over an R-tree reaches exactly the leaves whose *directory
entry* (the leaf's MBR, stored in its parent) intersects the window:
every ancestor entry's MBR contains the leaf MBR, so an intersecting leaf
entry implies every ancestor test passes too.  The answer set is then the
window-intersecting entries of those leaves.  Both sets are therefore
computable without walking the tree — from a flat copy of (a) the
leaf-pointing directory level and (b) every leaf entry.

:class:`QueryMirror` is that flat copy, bucketed into a uniform grid over
the unit square so a small window (the paper's queries are 0.01-side
squares) tests only the handful of rows in the cells it overlaps, with
plain-float comparisons — no tree descent, no per-node kernel dispatch.

Contract with the rest of the system:

* **Same answers.**  The mirror's candidate checks are the exact closed-
  interval float comparisons of :mod:`repro.kernels`; the grid only
  pre-filters (rows are bucketed into every cell their rectangle
  overlaps, windows gather every cell they overlap), so the reported row
  set is identical to a tree walk's.
* **Same counted I/O.**  The mirror answers the *CPU* side only.  The
  caller still charges one buffered read per hit leaf
  (:meth:`search` returns the hit leaf ids for exactly that purpose),
  which is the paper's entire query cost model — internal pages are
  pinned and free (Section 4).  The build walk reads pages through
  :meth:`~repro.storage.buffer.BufferPool.peek_node`, which is uncounted,
  so building the mirror never shows up in any measured I/O.
* **Freshness by version.**  The mirror records
  :attr:`~repro.storage.buffer.BufferPool.version` at build time; callers
  must compare it before use and rebuild after any mutation.  The tree
  only builds a mirror after a streak of mutation-free queries
  (hysteresis), so update-heavy phases never pay the build cost.

Entry rows reference the materialised :class:`~repro.rtree.node.LeafEntry`
objects directly, so a hit costs a list append — results carry the same
entry values a traversal would produce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.buffer import BufferPool

    from .node import LeafEntry

#: Grid resolution per axis.  Cells are 1/64 ≈ 0.0156 wide — just above
#: the paper's 0.01 query side, so a query overlaps at most 4 cells.
GRID = 64

#: ``(xmin, ymin, xmax, ymax, leaf_page_id)``
_DirRow = Tuple[float, float, float, float, int]

#: ``(xmin, ymin, xmax, ymax, build_order, entry)``
_EntryRow = Tuple[float, float, float, float, int, "LeafEntry"]


def _lo_cell(v: float, grid: int) -> int:
    """Clamped grid coordinate of ``v`` (lower bound side)."""
    if v <= 0.0:
        return 0
    if v >= 1.0:
        return grid - 1
    return int(v * grid)


class QueryMirror:
    """Immutable flat snapshot of one tree's leaf level, grid-bucketed."""

    __slots__ = (
        "version", "grid", "dir_cells", "entry_cells",
        "n_leaves", "n_entries",
    )

    def __init__(
        self,
        version: int,
        grid: int,
        dir_cells: List[List[_DirRow]],
        entry_cells: List[List[_EntryRow]],
        n_leaves: int = 0,
        n_entries: int = 0,
    ) -> None:
        self.version = version
        self.grid = grid
        self.dir_cells = dir_cells
        self.entry_cells = entry_cells
        self.n_leaves = n_leaves
        self.n_entries = n_entries

    def summary(self) -> Dict[str, int]:
        """Build-time facts for EXPLAIN output (no cell scans)."""
        return {
            "version": self.version,
            "grid": self.grid,
            "n_leaves": self.n_leaves,
            "n_entries": self.n_entries,
        }

    def search(
        self, wx1: float, wy1: float, wx2: float, wy2: float
    ) -> Tuple[List[int], List["LeafEntry"]]:
        """``(hit leaf page ids, hit leaf entries)`` for the window.

        The leaf ids are exactly the leaves a tree walk would read — the
        caller must charge one buffered read for each.  Entries come back
        in build order (directory DFS order, slot order within a leaf),
        which is deterministic for a given tree state.
        """
        grid = self.grid
        top = grid - 1
        # Clamped cell coordinates, inlined (this runs once per query and
        # the call overhead of four _lo_cell invocations is measurable).
        cx0 = 0 if wx1 <= 0.0 else top if wx1 >= 1.0 else int(wx1 * grid)
        cx1 = 0 if wx2 <= 0.0 else top if wx2 >= 1.0 else int(wx2 * grid)
        cy0 = 0 if wy1 <= 0.0 else top if wy1 >= 1.0 else int(wy1 * grid)
        cy1 = 0 if wy2 <= 0.0 else top if wy2 >= 1.0 else int(wy2 * grid)
        if cx0 == cx1 and cy0 == cy1:
            # Fast path: single cell — every row appears at most once, in
            # build order, so the filtered scans are already deduplicated
            # and ordered.
            cell = cy0 * grid + cx0
            leaf_ids = [
                row[4]
                for row in self.dir_cells[cell]
                if row[0] <= wx2 and wx1 <= row[2]
                and row[1] <= wy2 and wy1 <= row[3]
            ]
            return leaf_ids, [
                row[5]
                for row in self.entry_cells[cell]
                if row[0] <= wx2 and wx1 <= row[2]
                and row[1] <= wy2 and wy1 <= row[3]
            ]
        # General path: rows spanning several gathered cells would be
        # reported once per cell; dedupe by page id / build order.
        seen_leaves = set()
        leaf_ids = []
        hits: List[_EntryRow] = []
        seen_rows = set()
        dir_cells = self.dir_cells
        entry_cells = self.entry_cells
        for cy in range(cy0, cy1 + 1):
            base = cy * grid
            for cx in range(cx0, cx1 + 1):
                cell = base + cx
                for row in dir_cells[cell]:
                    if (
                        row[0] <= wx2 and wx1 <= row[2]
                        and row[1] <= wy2 and wy1 <= row[3]
                        and row[4] not in seen_leaves
                    ):
                        seen_leaves.add(row[4])
                        leaf_ids.append(row[4])
                for row in entry_cells[cell]:
                    if (
                        row[0] <= wx2 and wx1 <= row[2]
                        and row[1] <= wy2 and wy1 <= row[3]
                        and row[4] not in seen_rows
                    ):
                        seen_rows.add(row[4])
                        hits.append(row)
        hits.sort(key=_row_order)
        return leaf_ids, [row[5] for row in hits]


def _row_order(row: _EntryRow) -> int:
    return row[4]


def _bucket(cells: List[List[object]], grid: int, row) -> None:
    """Append ``row`` to every cell its rectangle overlaps (clamped)."""
    cx0 = _lo_cell(row[0], grid)
    cx1 = _lo_cell(row[2], grid)
    cy0 = _lo_cell(row[1], grid)
    cy1 = _lo_cell(row[3], grid)
    for cy in range(cy0, cy1 + 1):
        base = cy * grid
        for cx in range(cx0, cx1 + 1):
            cells[base + cx].append(row)


def build_mirror(buffer: "BufferPool", root_id: int) -> QueryMirror:
    """Snapshot the tree rooted at ``root_id`` into a :class:`QueryMirror`.

    Walks the directory levels and the leaves through
    :meth:`~repro.storage.buffer.BufferPool.peek_node` (uncounted; serves
    dirty in-memory state when present).  The version is captured *before*
    the walk, so a mutation racing the build can only make the mirror
    immediately stale, never silently wrong.
    """
    version = buffer.version
    grid = GRID
    root = buffer.peek_node(root_id)
    dir_rows: List[_DirRow] = []
    if root.is_leaf:
        # A root-only tree has no directory level; the traversal reads
        # the root leaf unconditionally, so mirror an always-hit row.
        inf = float("inf")
        dir_rows.append((-inf, -inf, inf, inf, root_id))
    else:
        stack = [root]
        while stack:
            node = stack.pop()
            entries = node.entries
            first_child = buffer.peek_node(entries[0].child_id)
            if first_child.is_leaf:
                # R-trees are height-balanced: all children of one node
                # live on the same level.
                for entry in entries:
                    r = entry.rect
                    dir_rows.append(
                        (r.xmin, r.ymin, r.xmax, r.ymax, entry.child_id)
                    )
            else:
                stack.append(first_child)
                stack.extend(
                    buffer.peek_node(e.child_id) for e in entries[1:]
                )
    dir_cells: List[List[_DirRow]] = [[] for _ in range(grid * grid)]
    entry_cells: List[List[_EntryRow]] = [[] for _ in range(grid * grid)]
    for dir_row in dir_rows:
        _bucket(dir_cells, grid, dir_row)
    order = 0
    for dir_row in dir_rows:
        leaf = buffer.peek_node(dir_row[4])
        for entry in leaf.entries:
            r = entry.rect
            _bucket(
                entry_cells, grid,
                (r.xmin, r.ymin, r.xmax, r.ymax, order, entry),
            )
            order += 1
    return QueryMirror(
        version, grid, dir_cells, entry_cells,
        n_leaves=len(dir_rows), n_entries=order,
    )
