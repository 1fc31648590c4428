"""Memo-based updates for a grid file (the conclusion's third candidate).

A uniform grid over the unit square with one page chain per cell — the
structure behind LUGrid, the follow-up work by the same group.  As with
the B+-tree extension, the point is that the Update Memo, stamp counter
and garbage cleaner are the RUM-tree's own, unchanged:

* :class:`GridFile` — classic updates: locate the old entry in its cell's
  page chain, remove it, insert the new entry into the new cell;
* :class:`MemoGrid` — memo-based updates: stamp + insert only; the
  :class:`~repro.core.cleaner.GarbageCleaner` inspects one cell chain per
  ``1/ir`` updates; queries filter through CheckStatus.

Pages hold a fixed number of entries derived from the configured page
size (24 B classic, 32 B stamped); the page chains are charged one read
and one write per touched page, mirroring the paper's leaf accounting.
Unlike the R-tree/B+-tree stacks, the grid keeps its pages as in-memory
lists with logical page accounting — the structure is an extension
demonstration, not a re-run of the storage substrate.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.cleaner import MemoHost
from repro.storage.iostats import IOStats

CLASSIC_ENTRY_BYTES = 24  # x, y (float64) + oid (int64)
MEMO_ENTRY_BYTES = 32     # + stamp
PAGE_HEADER_BYTES = 16


class _Cell:
    """One grid cell: a chain of fixed-capacity pages."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages: List[List[Tuple[float, float, int, int]]] = [[]]


class GridFile:
    """Uniform grid over the unit square with classic in-place updates."""

    name = "Grid file"

    def __init__(self, side: int = 16, page_size: int = 2048,
                 stamped: bool = False):
        if side <= 0:
            raise ValueError("grid side must be positive")
        self.side = side
        entry_bytes = MEMO_ENTRY_BYTES if stamped else CLASSIC_ENTRY_BYTES
        self.page_cap = max(2, (page_size - PAGE_HEADER_BYTES) // entry_bytes)
        self.stats = IOStats()
        self._cells = [[_Cell() for _ in range(side)] for _ in range(side)]

    # -- cell addressing ---------------------------------------------------

    def _cell_of(self, x: float, y: float) -> _Cell:
        cx = min(self.side - 1, max(0, int(x * self.side)))
        cy = min(self.side - 1, max(0, int(y * self.side)))
        return self._cells[cy][cx]

    def _charge(self, reads: int = 0, writes: int = 0) -> None:
        self.stats.leaf_reads += reads
        self.stats.leaf_writes += writes

    # -- operations -----------------------------------------------------------

    def _append(self, cell: _Cell, entry: Tuple[float, float, int, int]) -> None:
        """Insert into the first page with room (read it, write it back)."""
        for i, page in enumerate(cell.pages):
            if len(page) < self.page_cap:
                self._charge(reads=i + 1, writes=1)
                page.append(entry)
                return
        self._charge(reads=len(cell.pages), writes=1)
        cell.pages.append([entry])

    def insert_object(self, oid: int, x: float, y: float) -> None:
        self._append(self._cell_of(x, y), (x, y, oid, 0))

    def update_object(
        self,
        oid: int,
        old_pos: Tuple[float, float],
        new_pos: Tuple[float, float],
    ) -> None:
        """Classic update: delete from the old cell, insert into the new."""
        ox, oy = old_pos
        cell = self._cell_of(ox, oy)
        for i, page in enumerate(cell.pages):
            for j, entry in enumerate(page):
                if entry[2] == oid:
                    self._charge(reads=i + 1, writes=1)
                    del page[j]
                    self._append(
                        self._cell_of(*new_pos),
                        (new_pos[0], new_pos[1], oid, 0),
                    )
                    return
        raise KeyError(oid)

    def delete_object(self, oid: int, old_pos: Tuple[float, float]) -> None:
        ox, oy = old_pos
        cell = self._cell_of(ox, oy)
        for i, page in enumerate(cell.pages):
            for j, entry in enumerate(page):
                if entry[2] == oid:
                    self._charge(reads=i + 1, writes=1)
                    del page[j]
                    return
        raise KeyError(oid)

    def _cells_in(self, xmin, ymin, xmax, ymax) -> Iterator[_Cell]:
        cx0 = min(self.side - 1, max(0, int(xmin * self.side)))
        cy0 = min(self.side - 1, max(0, int(ymin * self.side)))
        cx1 = min(self.side - 1, max(0, int(xmax * self.side)))
        cy1 = min(self.side - 1, max(0, int(ymax * self.side)))
        for cy in range(cy0, cy1 + 1):
            for cx in range(cx0, cx1 + 1):
                yield self._cells[cy][cx]

    def range_search(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> List[Tuple[int, float, float]]:
        """All ``(oid, x, y)`` whose point lies in the closed window."""
        rows: List[tuple] = []
        for cell in self._cells_in(xmin, ymin, xmax, ymax):
            self._charge(reads=len(cell.pages))
            for page in cell.pages:
                rows.extend(
                    entry for entry in page
                    if xmin <= entry[0] <= xmax and ymin <= entry[1] <= ymax
                )
        return [(oid, x, y) for x, y, oid, _stamp in self._latest(rows)]

    def _latest(self, rows: List[tuple]) -> List[tuple]:
        """Hook: the memo variant hides obsolete entries from queries."""
        return rows

    # -- metrics ------------------------------------------------------------------

    def num_entries(self) -> int:
        return sum(
            len(page)
            for row in self._cells
            for cell in row
            for page in cell.pages
        )

    def num_pages(self) -> int:
        return sum(
            len(cell.pages) for row in self._cells for cell in row
        )


class MemoGrid(MemoHost, GridFile):
    """Grid file with memo-based updates.

    A :class:`~repro.core.cleaner.MemoHost` with the trivial ring: the
    cells in row-major order.  Cells neither split nor dissolve, so the
    grid has no structural event to report to the cleaner.
    """

    name = "Memo-grid"

    def __init__(
        self,
        side: int = 16,
        page_size: int = 2048,
        inspection_ratio: float = 0.2,
        clean_upon_touch: bool = True,
    ):
        super().__init__(side, page_size, stamped=True)
        self._wire_memo(inspection_ratio, clean_upon_touch)

    # -- memo-based operations ---------------------------------------------------

    def insert_object(self, oid: int, x: float, y: float) -> None:
        """Inserts and updates are the same operation."""
        stamp = self.stamps.next()
        self.memo.record_update(oid, stamp)
        cell = self._cell_of(x, y)
        if self.clean_upon_touch:
            # The chain is being read for the insertion anyway.
            self.cleaner.note_removed(self._sweep(cell)[0])
        self._append(cell, (x, y, oid, stamp))
        self._after_update()

    def update_object(self, oid: int, old_pos, new_pos) -> None:
        """One insertion — the old entry goes stale wherever it lies."""
        self.insert_object(oid, *new_pos)

    # -- the cleaner's host -----------------------------------------------------------

    def _sweep(self, cell: _Cell) -> Tuple[int, int]:
        """Drop the obsolete entries of the cell's chain; returns
        ``(entries removed, pages they were on)``."""
        removed = dirty_pages = 0
        for page in cell.pages:
            dead = self.memo.sweep_obsolete(
                [entry[2] for entry in page],
                [entry[3] for entry in page],
                len(page),
            )
            if dead:
                for slot in reversed(dead):
                    del page[slot]
                removed += len(dead)
                dirty_pages += 1
        # Drop emptied overflow pages (keep one page per cell).
        cell.pages = [p for p in cell.pages if p] or [[]]
        return removed, dirty_pages

    def leaf_ring(self) -> List[int]:
        return list(range(self.side * self.side))

    def clean_at(self, position: int) -> Tuple[int, int]:
        row, col = divmod(position, self.side)
        cell = self._cells[row][col]
        removed, dirty_pages = self._sweep(cell)
        self._charge(reads=len(cell.pages), writes=dirty_pages)
        return (position + 1) % (self.side * self.side), removed

    def _stored_ids(self) -> Iterator[Tuple[int, int]]:
        for row in self._cells:
            for cell in row:
                for page in cell.pages:
                    for _x, _y, oid, stamp in page:
                        yield oid, stamp
