"""Columnar batch kernels for MBR predicates, split scans, and page decode.

The per-entry interpreter overhead of ``Rect`` method calls is the cost
ceiling of the simulator's hot paths (one Python call per entry per node
visited).  This module replaces those inner loops with *batch* kernels that
operate on a node's coordinates as four parallel columns — a **coordinate
column block** — so one call tests, measures, or scans a whole node.

A column block is ``(n, xs1, ys1, xs2, ys2)``: four plain lists of floats.
It is an opaque value — construct it with :func:`block_from_entries` (from
live entries) or :func:`block_from_buffer` (straight off a page image: one
contiguous ``memoryview.cast('d')`` plus four strided ``tolist()`` slices,
no per-entry ``struct`` calls) and pass it back to the kernels.  The two
births of the same rectangles are the same value, so no kernel can tell
them apart.  No kernel edits a block — see ``docs/KERNELS.md`` for the
invalidation rules (`Node.coord_block` caches one per node; ``mark_dirty``
drops it after any edit but one child entry's, which ``_set_child`` patches).

Every kernel evaluates the IEEE-754 expressions of the ``Rect`` method it
batches, in the same order (sequential sums, stable sorts, first-occurrence
maxima): split decisions, ChooseSubtree decisions and kNN orderings feed
back into tree *shape*, so an ulp of divergence would move the counted I/O.
``tests/test_kernels.py`` holds each kernel to the ``Rect`` definitions
property-wise across random and degenerate geometry.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Sequence, Tuple

#: The one implementation (plain Python loops); observability reports and
#: the benchmark record it.
BACKEND = "python"

#: (n, xs1, ys1, xs2, ys2) — four parallel coordinate columns.
Block = Tuple[int, List[float], List[float], List[float], List[float]]


# -- construction -----------------------------------------------------------


def block_from_entries(entries: Sequence[Any]) -> Block:
    """Column block of the MBRs of ``entries`` (anything with ``.rect``)."""
    rects = [e.rect for e in entries]
    return (
        len(rects),
        [r.xmin for r in rects],
        [r.ymin for r in rects],
        [r.xmax for r in rects],
        [r.ymax for r in rects],
    )


def block_from_buffer(
    data: bytes, offset: int, count: int, stride: int
) -> Block:
    """Column block straight off a page image's entry region.

    ``stride`` is the on-disk entry size in bytes; the four float64 MBR
    coordinates must sit at the start of each entry (they do, in every
    layout of :mod:`repro.storage.codec`).  The id/stamp words between
    coordinates are skipped by the strided slices and never decoded.
    """
    step = stride // 8
    view = memoryview(data)[offset:offset + count * stride].cast("d")
    return (
        count,
        view[0::step].tolist(),
        view[1::step].tolist(),
        view[2::step].tolist(),
        view[3::step].tolist(),
    )


def block_get(block: Block, i: int) -> Tuple[float, float, float, float]:
    """The ``i``-th rectangle of the block as a coordinate tuple."""
    return (block[1][i], block[2][i], block[3][i], block[4][i])


def block_rows(block: Block) -> List[Tuple[float, float, float, float]]:
    """All rectangles as a list of ``(xmin, ymin, xmax, ymax)`` rows."""
    return list(zip(block[1], block[2], block[3], block[4]))


# -- bulk measures and predicate masks --------------------------------------


def bounds(block: Block) -> Tuple[float, float, float, float]:
    """The MBR of a non-empty block, as ``Rect.union_all`` computes it:
    ``min``/``max`` keep the first of equal values, ``-0.0`` included."""
    return min(block[1]), min(block[2]), max(block[3]), max(block[4])


def areas(block: Block) -> List[float]:
    """Per-rectangle areas."""
    return [
        (x2 - x1) * (y2 - y1)
        for x1, y1, x2, y2 in zip(block[1], block[2], block[3], block[4])
    ]


def intersect_indices(
    block: Block, wx1: float, wy1: float, wx2: float, wy2: float
) -> List[int]:
    """Indices of rectangles intersecting the closed query window."""
    out: List[int] = []
    append = out.append
    i = 0
    for x1, y1, x2, y2 in zip(block[1], block[2], block[3], block[4]):
        if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2:
            append(i)
        i += 1
    return out


def contain_indices(
    block: Block, qx1: float, qy1: float, qx2: float, qy2: float
) -> List[int]:
    """Indices of rectangles that fully contain the query rectangle."""
    out: List[int] = []
    append = out.append
    i = 0
    for x1, y1, x2, y2 in zip(block[1], block[2], block[3], block[4]):
        if x1 <= qx1 and y1 <= qy1 and qx2 <= x2 and qy2 <= y2:
            append(i)
        i += 1
    return out


def min_dist_sq(block: Block, x: float, y: float) -> List[float]:
    """Squared MINDIST from the point to every rectangle.

    Squared distances order identically to Euclidean ones and avoid the
    per-entry ``hypot`` call.
    """
    out: List[float] = []
    append = out.append
    for x1, y1, x2, y2 in zip(block[1], block[2], block[3], block[4]):
        dx = x1 - x
        t = x - x2
        if t > dx:
            dx = t
        if dx < 0.0:
            dx = 0.0
        dy = y1 - y
        t = y - y2
        if t > dy:
            dy = t
        if dy < 0.0:
            dy = 0.0
        append(dx * dx + dy * dy)
    return out


def enlargements(
    block: Block, rx1: float, ry1: float, rx2: float, ry2: float
) -> Tuple[List[float], List[float]]:
    """Per-rectangle (area enlargement to cover the rect, current area)."""
    enl: List[float] = []
    area_out: List[float] = []
    ea = enl.append
    aa = area_out.append
    for ex1, ey1, ex2, ey2 in zip(block[1], block[2], block[3], block[4]):
        ux1 = ex1 if ex1 < rx1 else rx1
        uy1 = ey1 if ey1 < ry1 else ry1
        ux2 = ex2 if ex2 > rx2 else rx2
        uy2 = ey2 if ey2 > ry2 else ry2
        area = (ex2 - ex1) * (ey2 - ey1)
        ea((ux2 - ux1) * (uy2 - uy1) - area)
        aa(area)
    return enl, area_out


#: One rectangle of a block as :func:`area_rows` lists it:
#: ``(area, index, xmin, ymin, xmax, ymax)``.
AreaRow = Tuple[float, int, float, float, float, float]


def area_rows(block: Block) -> List[AreaRow]:
    """The block's rectangles as rows in ascending ``(area, index)`` order
    (a stable sort on area) — what :func:`least_enlargement` scans."""
    rows: List[AreaRow] = []
    append = rows.append
    i = 0
    for x1, y1, x2, y2 in zip(block[1], block[2], block[3], block[4]):
        append(((x2 - x1) * (y2 - y1), i, x1, y1, x2, y2))
        i += 1
    rows.sort(key=itemgetter(0))
    return rows


def least_enlargement(
    rows: Sequence[AreaRow], rx1: float, ry1: float, rx2: float, ry2: float
) -> Tuple[float, float, int]:
    """``(enlargement, area, index)`` of the child ChooseSubtree picks.

    Bit-identical to ``min(zip(*enlargements(block, ...), range(n)))`` —
    least enlargement, ties by least area, then by lowest index — over
    the :func:`area_rows` of ``block``.  An enlargement is never negative
    (docs/KERNELS.md), so in ascending ``(area, index)`` order the first
    that reads ``0.0`` is the minimum and ends the scan; otherwise the
    first strict minimum of the enlargement alone is.
    """
    best_enl = best_area = 0.0
    best = -1
    for area, i, ex1, ey1, ex2, ey2 in rows:
        enl = (
            ((ex2 if ex2 > rx2 else rx2) - (ex1 if ex1 < rx1 else rx1))
            * ((ey2 if ey2 > ry2 else ry2) - (ey1 if ey1 < ry1 else ry1))
            - area
        )
        if enl == 0.0:
            return enl, area, i
        if best < 0 or enl < best_enl:
            best_enl, best_area, best = enl, area, i
    if best < 0:
        raise ValueError("least_enlargement() of an empty block")
    return best_enl, best_area, best


def overlap_delta(
    block: Block, i: int, nx1: float, ny1: float, nx2: float, ny2: float
) -> float:
    """R* overlap enlargement of growing rectangle ``i`` to ``n*``.

    Sums, over all other rectangles, the overlap with the enlarged
    rectangle minus the overlap with the original — the quantity the R*
    ChooseSubtree minimises at the leaf-parent level.  The accumulation is
    strictly interleaved (+new, −old per sibling, in index order).
    """
    ex1 = block[1][i]
    ey1 = block[2][i]
    ex2 = block[3][i]
    ey2 = block[4][i]
    delta = 0.0
    j = 0
    for ox1, oy1, ox2, oy2 in zip(block[1], block[2], block[3], block[4]):
        if j == i:
            j += 1
            continue
        j += 1
        w = (nx2 if nx2 < ox2 else ox2) - (nx1 if nx1 > ox1 else ox1)
        if w > 0.0:
            h = (ny2 if ny2 < oy2 else oy2) - (ny1 if ny1 > oy1 else oy1)
            if h > 0.0:
                delta += w * h
        w = (ex2 if ex2 < ox2 else ox2) - (ex1 if ex1 > ox1 else ox1)
        if w > 0.0:
            h = (ey2 if ey2 < oy2 else oy2) - (ey1 if ey1 > oy1 else oy1)
            if h > 0.0:
                delta -= w * h
    return delta


# -- split scans ------------------------------------------------------------


def argsort(block: Block, dim: int) -> List[int]:
    """Stable ascending index sort by one coordinate column (0..3)."""
    return sorted(range(block[0]), key=block[dim + 1].__getitem__)


def split_tables(
    block: Block, order: Sequence[int], min_entries: int
) -> Tuple[float, Any, Any]:
    """R* margin sum plus prefix/suffix running bounds along ``order``.

    Returns ``(margin_sum, prefix, suffix)``; the bounds tables are opaque
    values to be passed to :func:`distribution_scan`.
    """
    n = block[0]
    xs1, ys1, xs2, ys2 = block[1], block[2], block[3], block[4]
    px1 = [0.0] * n
    py1 = [0.0] * n
    px2 = [0.0] * n
    py2 = [0.0] * n
    i = order[0]
    x1, y1, x2, y2 = xs1[i], ys1[i], xs2[i], ys2[i]
    px1[0], py1[0], px2[0], py2[0] = x1, y1, x2, y2
    for k in range(1, n):
        i = order[k]
        v = xs1[i]
        if v < x1:
            x1 = v
        v = ys1[i]
        if v < y1:
            y1 = v
        v = xs2[i]
        if v > x2:
            x2 = v
        v = ys2[i]
        if v > y2:
            y2 = v
        px1[k], py1[k], px2[k], py2[k] = x1, y1, x2, y2
    qx1 = [0.0] * n
    qy1 = [0.0] * n
    qx2 = [0.0] * n
    qy2 = [0.0] * n
    i = order[n - 1]
    x1, y1, x2, y2 = xs1[i], ys1[i], xs2[i], ys2[i]
    qx1[n - 1], qy1[n - 1], qx2[n - 1], qy2[n - 1] = x1, y1, x2, y2
    for k in range(n - 2, -1, -1):
        i = order[k]
        v = xs1[i]
        if v < x1:
            x1 = v
        v = ys1[i]
        if v < y1:
            y1 = v
        v = xs2[i]
        if v > x2:
            x2 = v
        v = ys2[i]
        if v > y2:
            y2 = v
        qx1[k], qy1[k], qx2[k], qy2[k] = x1, y1, x2, y2
    margin = 0.0
    for k in range(min_entries, n - min_entries + 1):
        margin += (
            (px2[k - 1] - px1[k - 1])
            + (py2[k - 1] - py1[k - 1])
            + (qx2[k] - qx1[k])
            + (qy2[k] - qy1[k])
        )
    return margin, (px1, py1, px2, py2), (qx1, qy1, qx2, qy2)


def distribution_scan(
    prefix: Any, suffix: Any, min_entries: int
) -> Tuple[List[float], List[float]]:
    """Overlap and combined area of every legal split distribution.

    Entry ``j`` describes the distribution putting the first
    ``min_entries + j`` sorted entries into the left group.
    """
    px1, py1, px2, py2 = prefix
    qx1, qy1, qx2, qy2 = suffix
    n = len(px1)
    overlaps: List[float] = []
    areas_out: List[float] = []
    oa = overlaps.append
    aa = areas_out.append
    for k in range(min_entries, n - min_entries + 1):
        ax1, ay1, ax2, ay2 = px1[k - 1], py1[k - 1], px2[k - 1], py2[k - 1]
        bx1, by1, bx2, by2 = qx1[k], qy1[k], qx2[k], qy2[k]
        overlap = 0.0
        w = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
        if w > 0.0:
            h = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
            if h > 0.0:
                overlap = w * h
        oa(overlap)
        aa((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1))
    return overlaps, areas_out


def quadratic_seeds(block: Block) -> Tuple[int, int]:
    """Guttman seed pair: the two rectangles wasting the most dead space.

    First-occurrence semantics in row-major ``(i, j)`` scan order with the
    original ``waste > -1.0`` threshold (an all-ties degenerate input keeps
    the historical ``(0, 0)`` answer).
    """
    n = block[0]
    xs1, ys1, xs2, ys2 = block[1], block[2], block[3], block[4]
    area = areas(block)
    worst = -1.0
    seed_a = seed_b = 0
    for i in range(n):
        ax1, ay1, ax2, ay2 = xs1[i], ys1[i], xs2[i], ys2[i]
        area_i = area[i]
        for j in range(i + 1, n):
            bx1, by1, bx2, by2 = xs1[j], ys1[j], xs2[j], ys2[j]
            waste = (
                ((ax2 if ax2 > bx2 else bx2) - (ax1 if ax1 < bx1 else bx1))
                * ((ay2 if ay2 > by2 else by2) - (ay1 if ay1 < by1 else by1))
                - area_i
                - area[j]
            )
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j
    return seed_a, seed_b


__all__ = [
    "BACKEND",
    "block_from_entries",
    "block_from_buffer",
    "block_get",
    "block_rows",
    "areas",
    "bounds",
    "intersect_indices",
    "contain_indices",
    "min_dist_sq",
    "enlargements",
    "area_rows",
    "least_enlargement",
    "overlap_delta",
    "argsort",
    "split_tables",
    "distribution_scan",
    "quadratic_seeds",
]
