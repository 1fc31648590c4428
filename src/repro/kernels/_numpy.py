"""Vectorised kernel backend over numpy arrays.

Mirror of :mod:`repro.kernels._python` — see that module and the package
docstring for the API and the bit-identical contract.  Every vectorised
expression here is arranged to evaluate the *same IEEE-754 operation
sequence* as the scalar reference:

* elementwise min/max/multiply/subtract chains are associated exactly as
  the scalar code associates them (no reassociation, no fused reductions);
* sums that the scalar backend accumulates sequentially use
  ``np.add.accumulate`` / ``sum(arr.tolist(), 0.0)`` — never ``np.sum``,
  whose pairwise reduction rounds differently;
* sorts use ``kind="stable"`` so ties keep ascending-index order like
  ``sorted(range(n), key=...)``;
* argmax selections rely on numpy's first-occurrence guarantee, matching
  the scalar strict-``>`` scan.

**Adaptive representation.**  Blocks carry their provenance in their
column type, and every kernel dispatches on it:

* *buffer-born* blocks (:func:`block_from_buffer`) hold zero-copy
  ``np.frombuffer`` column views over the page image — the id/stamp words
  of the 8-byte-aligned entry layouts are skipped by striding.  These are
  decoded whole pages (tens to hundreds of rows), where vectorisation
  pays for its dispatch overhead.
* *entry-born* blocks (:func:`block_from_entries`) hold plain list
  columns, shared with the scalar backend.  They come from freshly
  mutated nodes on the insert/split paths, where building an ndarray
  would cost more than the scan it feeds; kernels run the scalar
  reference code on them unless the input is large enough that
  converting and vectorising wins (``_VECTORIZE_MIN`` rows for the
  linear split scans, ``_SEEDS_VECTORIZE_MIN`` for the quadratic seed
  search, whose O(n^2) waste matrix vectorises profitably much earlier).

Both representations produce bit-identical results — the cutoffs are pure
performance knobs, and ``tests/test_kernels.py`` pins the equivalence.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from . import _python as _py

BACKEND = "numpy"

#: (n, xs1, ys1, xs2, ys2) — four parallel columns: float64 array views
#: (buffer-born) or plain lists (entry-born, shared with ``_python``).
Block = Tuple[int, Any, Any, Any, Any]

#: Entry-born blocks at least this long vectorise the linear split scans
#: (argsort / split_tables): four ``np.asarray`` conversions cost ~n/16
#: comparisons' worth of work, so small scans stay scalar.
_VECTORIZE_MIN = 64

#: Entry-born blocks at least this long vectorise the O(n^2) quadratic
#: seed search; the crossover is far lower than for the linear scans.
_SEEDS_VECTORIZE_MIN = 16

_EMPTY_COL = np.empty(0, dtype=np.float64)
_EMPTY: Block = (0, _EMPTY_COL, _EMPTY_COL, _EMPTY_COL, _EMPTY_COL)


def _is_scalar(block: Block) -> bool:
    """True for entry-born (list-column) blocks."""
    return type(block[1]) is list


def _lift(block: Block) -> Block:
    """Array-column copy of an entry-born block (for vectorised scans)."""
    return (
        block[0],
        np.asarray(block[1], dtype=np.float64),
        np.asarray(block[2], dtype=np.float64),
        np.asarray(block[3], dtype=np.float64),
        np.asarray(block[4], dtype=np.float64),
    )


# -- construction -----------------------------------------------------------

#: Entry-born blocks are built by the scalar reference (list columns).
block_from_entries = _py.block_from_entries


def block_from_buffer(
    data: bytes, offset: int, count: int, stride: int
) -> Block:
    """Zero-copy column block over a page image's entry region."""
    if not count:
        return _EMPTY
    step = stride // 8
    m = np.frombuffer(
        data, dtype=np.float64, count=count * step, offset=offset
    ).reshape(count, step)
    return (count, m[:, 0], m[:, 1], m[:, 2], m[:, 3])


def block_get(block: Block, i: int) -> Tuple[float, float, float, float]:
    """The ``i``-th rectangle of the block as a plain-float tuple."""
    return (
        float(block[1][i]),
        float(block[2][i]),
        float(block[3][i]),
        float(block[4][i]),
    )


def block_rows(block: Block) -> List[Any]:
    """All rectangles as ``[xmin, ymin, xmax, ymax]`` rows."""
    if _is_scalar(block):
        return _py.block_rows(block)
    if not block[0]:
        return []
    return np.column_stack(block[1:5]).tolist()


# -- bulk measures and predicate masks --------------------------------------


def bounds(block: Block) -> Tuple[float, float, float, float]:
    """The MBR of a non-empty block; the columns go through lists so that
    equal values (``-0.0``) resolve as in the scalar backend."""
    if _is_scalar(block):
        return _py.bounds(block)
    _n, x1, y1, x2, y2 = block
    return (
        min(x1.tolist()), min(y1.tolist()),
        max(x2.tolist()), max(y2.tolist()),
    )


def areas(block: Block) -> List[float]:
    """Per-rectangle areas."""
    if _is_scalar(block):
        return _py.areas(block)
    _n, x1, y1, x2, y2 = block
    return ((x2 - x1) * (y2 - y1)).tolist()


def intersect_indices(
    block: Block, wx1: float, wy1: float, wx2: float, wy2: float
) -> List[int]:
    """Indices of rectangles intersecting the closed query window."""
    if _is_scalar(block):
        return _py.intersect_indices(block, wx1, wy1, wx2, wy2)
    _n, x1, y1, x2, y2 = block
    mask = x1 <= wx2
    mask &= wx1 <= x2
    mask &= y1 <= wy2
    mask &= wy1 <= y2
    return np.flatnonzero(mask).tolist()


def contain_indices(
    block: Block, qx1: float, qy1: float, qx2: float, qy2: float
) -> List[int]:
    """Indices of rectangles that fully contain the query rectangle."""
    if _is_scalar(block):
        return _py.contain_indices(block, qx1, qy1, qx2, qy2)
    _n, x1, y1, x2, y2 = block
    mask = x1 <= qx1
    mask &= y1 <= qy1
    mask &= qx2 <= x2
    mask &= qy2 <= y2
    return np.flatnonzero(mask).tolist()


def min_dist_sq(block: Block, x: float, y: float) -> List[float]:
    """Squared MINDIST from the point to every rectangle."""
    if _is_scalar(block):
        return _py.min_dist_sq(block, x, y)
    _n, x1, y1, x2, y2 = block
    dx = np.maximum(x1 - x, x - x2)
    np.maximum(dx, 0.0, out=dx)
    dy = np.maximum(y1 - y, y - y2)
    np.maximum(dy, 0.0, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx.tolist()


def enlargements(
    block: Block, rx1: float, ry1: float, rx2: float, ry2: float
) -> Tuple[List[float], List[float]]:
    """Per-rectangle (area enlargement to cover the rect, current area)."""
    if _is_scalar(block):
        return _py.enlargements(block, rx1, ry1, rx2, ry2)
    _n, x1, y1, x2, y2 = block
    ux1 = np.minimum(x1, rx1)
    uy1 = np.minimum(y1, ry1)
    ux2 = np.maximum(x2, rx2)
    uy2 = np.maximum(y2, ry2)
    area = (x2 - x1) * (y2 - y1)
    enl = (ux2 - ux1) * (uy2 - uy1) - area
    return enl.tolist(), area.tolist()


def least_enlargement(
    block: Block, rx1: float, ry1: float, rx2: float, ry2: float
) -> Tuple[float, float, int]:
    """``(enlargement, area, index)`` of the child ChooseSubtree picks;
    array columns keep the tuple ``min`` for its tie and ``-0.0`` rules."""
    if _is_scalar(block):
        return _py.least_enlargement(block, rx1, ry1, rx2, ry2)
    enl, area = enlargements(block, rx1, ry1, rx2, ry2)
    return min(zip(enl, area, range(block[0])))


def overlap_delta(
    block: Block, i: int, nx1: float, ny1: float, nx2: float, ny2: float
) -> float:
    """R* overlap enlargement of growing rectangle ``i`` to ``n*``.

    The scalar reference interleaves ``+new_overlap[j]``,
    ``-old_overlap[j]`` per sibling; an interleaved ``np.add.accumulate``
    replays the identical addition sequence (subtraction is addition of
    the exact negation).
    """
    if _is_scalar(block):
        return _py.overlap_delta(block, i, nx1, ny1, nx2, ny2)
    n, x1, y1, x2, y2 = block
    ex1, ey1, ex2, ey2 = block_get(block, i)
    nw = np.minimum(nx2, x2) - np.maximum(nx1, x1)
    nh = np.minimum(ny2, y2) - np.maximum(ny1, y1)
    new_ov = np.where((nw > 0.0) & (nh > 0.0), nw * nh, 0.0)
    ow = np.minimum(ex2, x2) - np.maximum(ex1, x1)
    oh = np.minimum(ey2, y2) - np.maximum(ey1, y1)
    old_ov = np.where((ow > 0.0) & (oh > 0.0), ow * oh, 0.0)
    new_ov[i] = 0.0
    old_ov[i] = 0.0
    terms = np.empty(2 * n, dtype=np.float64)
    terms[0::2] = new_ov
    terms[1::2] = old_ov
    t = terms[1::2]
    np.negative(t, out=t)
    return float(np.add.accumulate(terms)[-1])


# -- split scans ------------------------------------------------------------


def argsort(block: Block, dim: int) -> List[int]:
    """Stable ascending index sort by one coordinate column (0..3)."""
    if _is_scalar(block) and block[0] < _VECTORIZE_MIN:
        return _py.argsort(block, dim)
    return np.argsort(block[dim + 1], kind="stable").tolist()


def split_tables(
    block: Block, order: Sequence[int], min_entries: int
) -> Tuple[float, Any, Any]:
    """R* margin sum plus prefix/suffix running bounds along ``order``."""
    if _is_scalar(block):
        if block[0] < _VECTORIZE_MIN:
            return _py.split_tables(block, order, min_entries)
        block = _lift(block)
    n = block[0]
    idx = np.asarray(order, dtype=np.intp)
    sx1 = block[1][idx]
    sy1 = block[2][idx]
    sx2 = block[3][idx]
    sy2 = block[4][idx]
    px1 = np.minimum.accumulate(sx1)
    py1 = np.minimum.accumulate(sy1)
    px2 = np.maximum.accumulate(sx2)
    py2 = np.maximum.accumulate(sy2)
    qx1 = np.minimum.accumulate(sx1[::-1])[::-1]
    qy1 = np.minimum.accumulate(sy1[::-1])[::-1]
    qx2 = np.maximum.accumulate(sx2[::-1])[::-1]
    qy2 = np.maximum.accumulate(sy2[::-1])[::-1]
    lo = min_entries
    hi = n - min_entries + 1
    a = slice(lo - 1, hi - 1)
    b = slice(lo, hi)
    t = px2[a] - px1[a]
    t = t + (py2[a] - py1[a])
    t = t + (qx2[b] - qx1[b])
    t = t + (qy2[b] - qy1[b])
    margin = sum(t.tolist(), 0.0)
    return margin, (px1, py1, px2, py2), (qx1, qy1, qx2, qy2)


def distribution_scan(
    prefix: Any, suffix: Any, min_entries: int
) -> Tuple[List[float], List[float]]:
    """Overlap and combined area of every legal split distribution."""
    if type(prefix[0]) is list:
        return _py.distribution_scan(prefix, suffix, min_entries)
    px1, py1, px2, py2 = prefix
    qx1, qy1, qx2, qy2 = suffix
    n = len(px1)
    a = slice(min_entries - 1, n - min_entries)
    b = slice(min_entries, n - min_entries + 1)
    ax1, ay1, ax2, ay2 = px1[a], py1[a], px2[a], py2[a]
    bx1, by1, bx2, by2 = qx1[b], qy1[b], qx2[b], qy2[b]
    w = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    h = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    overlap = np.where((w > 0.0) & (h > 0.0), w * h, 0.0)
    area = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1)
    return overlap.tolist(), area.tolist()


def quadratic_seeds(block: Block) -> Tuple[int, int]:
    """Guttman seed pair via a masked first-occurrence argmax.

    Row-major argmax over the strict upper triangle reproduces the scalar
    ``(i, j)`` scan order and its strict-``>`` first-max retention; the
    ``> -1.0`` threshold keeps the historical ``(0, 0)`` answer on the
    all-ties degenerate input.
    """
    if _is_scalar(block):
        if block[0] < _SEEDS_VECTORIZE_MIN:
            return _py.quadratic_seeds(block)
        block = _lift(block)
    n, x1, y1, x2, y2 = block
    if n < 2:
        return 0, 0
    area = (x2 - x1) * (y2 - y1)
    waste = (
        (np.maximum.outer(x2, x2) - np.minimum.outer(x1, x1))
        * (np.maximum.outer(y2, y2) - np.minimum.outer(y1, y1))
        - area[:, None]
        - area[None, :]
    )
    waste[np.tril_indices(n)] = -np.inf
    flat = int(np.argmax(waste))
    if waste.flat[flat] > -1.0:
        return flat // n, flat % n
    return 0, 0


def morton_keys(
    cxs: Sequence[float], cys: Sequence[float]
) -> List[int]:
    """Bulk Morton codes: vectorised quantise + bit-spread + interleave.

    ``np.uint32`` truncation after the clamp matches ``int()`` on the
    scalar path (both round toward zero on non-negative input), and the
    mask cascade is the same expression tree, so keys are bit-identical
    to :func:`repro.kernels._python.morton_keys`.
    """
    if len(cxs) < 32:  # spreading 2x4 masked ops doesn't pay under ~32
        return _py.morton_keys(cxs, cys)
    # nan_to_num first: np.clip propagates NaN, whose uint32 cast is
    # undefined; the scalar path sends NaN to the origin cell.
    qx = (np.clip(np.nan_to_num(np.asarray(cxs, dtype=np.float64)),
                  0.0, 1.0) * 0xFFFF).astype(np.uint32)
    qy = (np.clip(np.nan_to_num(np.asarray(cys, dtype=np.float64)),
                  0.0, 1.0) * 0xFFFF).astype(np.uint32)

    def spread(v: Any) -> Any:
        v = (v | (v << np.uint32(8))) & np.uint32(0x00FF00FF)
        v = (v | (v << np.uint32(4))) & np.uint32(0x0F0F0F0F)
        v = (v | (v << np.uint32(2))) & np.uint32(0x33333333)
        v = (v | (v << np.uint32(1))) & np.uint32(0x55555555)
        return v

    return [int(k) for k in spread(qx) | (spread(qy) << np.uint32(1))]
