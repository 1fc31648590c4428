"""Node-splitting and forced-reinsertion policies.

The paper builds on the R*-tree [1] for all trees ("the new value is
inserted into the RUM-tree using the standard R-tree insert algorithm [1]"),
so the default split is the R* topological split: choose the split axis by
minimum total margin, then the distribution by minimum overlap (ties broken
by minimum combined area).  Guttman's quadratic split is provided as well,
both for the ablation benchmarks and as a reference implementation.

All functions are pure: they take a list of entries (anything with a
``.rect`` attribute) and return two lists.

Splits happen on the insert hot path (every page overflow pays one), so the
scans run as batch kernels over a coordinate column block of the entries
(:mod:`repro.kernels`): the per-axis stable sorts, the prefix/suffix
running-bound tables with their margin sums, the distribution overlap/area
scan, and the quadratic seed search are each one kernel call.  Only the
O(candidates) selection loops and Guttman's inherently sequential greedy
assignment stay in this module.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

from repro import kernels

from .geometry import Rect

E = TypeVar("E")  # any entry type exposing .rect


def rstar_split(
    entries: Sequence[E], min_entries: int
) -> Tuple[List[E], List[E]]:
    """The R*-tree split of Beckmann et al. [1].

    1. For each axis, sort the entries by lower then by upper coordinate
       and accumulate the margin sums of every legal distribution; choose
       the axis with the minimum total margin.
    2. Along the chosen axis, pick the distribution with minimum overlap
       between the two group MBRs, breaking ties by minimum combined area.
    """
    n = len(entries)
    if n < 2 * min_entries:
        raise ValueError(
            f"cannot split {n} entries with minimum {min_entries}"
        )

    # Evaluate each sort order's margin sum exactly once; ties resolve in
    # sort-order precedence (x before y, lower before upper coordinate),
    # matching nested min() over (by_low, by_high) per axis then axes.
    # Column dims: 0=xmin, 1=ymin, 2=xmax, 3=ymax.
    block = kernels.block_from_entries(entries)
    best = None
    for dim in (0, 2, 1, 3):
        order = kernels.argsort(block, dim)
        margin, prefix, suffix = kernels.split_tables(
            block, order, min_entries
        )
        if best is None or margin < best[0]:
            best = (margin, order, prefix, suffix)
    _margin, order, prefix, suffix = best

    overlaps, areas = kernels.distribution_scan(prefix, suffix, min_entries)
    best_k = min_entries
    best_overlap = best_area = None
    for j, k in enumerate(range(min_entries, n - min_entries + 1)):
        overlap = overlaps[j]
        area = areas[j]
        if (
            best_overlap is None
            or overlap < best_overlap
            or (overlap == best_overlap and area < best_area)
        ):
            best_overlap = overlap
            best_area = area
            best_k = k
    axis_entries = [entries[i] for i in order]
    return axis_entries[:best_k], axis_entries[best_k:]


def quadratic_split(
    entries: Sequence[E], min_entries: int
) -> Tuple[List[E], List[E]]:
    """Guttman's quadratic split (the original R-tree [6]).

    Seeds are the pair wasting the most area if grouped together (an
    O(n^2) kernel scan); remaining entries are assigned greedily by
    largest preference difference.
    """
    n = len(entries)
    if n < 2 * min_entries:
        raise ValueError(
            f"cannot split {n} entries with minimum {min_entries}"
        )
    pool = list(entries)
    block = kernels.block_from_entries(pool)
    coords = kernels.block_rows(block)
    areas = kernels.areas(block)
    seed_a, seed_b = kernels.quadratic_seeds(block)
    left = [pool[seed_a]]
    right = [pool[seed_b]]
    rest = [
        (e, *coords[k]) for k, e in enumerate(pool) if k not in (seed_a, seed_b)
    ]
    lx1, ly1, lx2, ly2 = coords[seed_a]
    rx1, ry1, rx2, ry2 = coords[seed_b]
    l_area = areas[seed_a]
    r_area = areas[seed_b]

    while rest:
        # Honour the minimum-fill guarantee first.
        if len(left) + len(rest) == min_entries:
            left.extend(item[0] for item in rest)
            break
        if len(right) + len(rest) == min_entries:
            right.extend(item[0] for item in rest)
            break
        # Choose the entry with the strongest group preference.
        best_idx = 0
        best_diff = -1.0
        best_d_left = best_d_right = 0.0
        for k, (_, ex1, ey1, ex2, ey2) in enumerate(rest):
            d_left = (
                ((lx2 if lx2 > ex2 else ex2) - (lx1 if lx1 < ex1 else ex1))
                * ((ly2 if ly2 > ey2 else ey2) - (ly1 if ly1 < ey1 else ey1))
                - l_area
            )
            d_right = (
                ((rx2 if rx2 > ex2 else ex2) - (rx1 if rx1 < ex1 else ex1))
                * ((ry2 if ry2 > ey2 else ey2) - (ry1 if ry1 < ey1 else ey1))
                - r_area
            )
            diff = d_left - d_right
            if diff < 0.0:
                diff = -diff
            if diff > best_diff:
                best_diff = diff
                best_idx = k
                best_d_left = d_left
                best_d_right = d_right
        e, ex1, ey1, ex2, ey2 = rest.pop(best_idx)
        if best_d_left < best_d_right or (
            best_d_left == best_d_right and len(left) <= len(right)
        ):
            left.append(e)
            if ex1 < lx1:
                lx1 = ex1
            if ey1 < ly1:
                ly1 = ey1
            if ex2 > lx2:
                lx2 = ex2
            if ey2 > ly2:
                ly2 = ey2
            l_area = (lx2 - lx1) * (ly2 - ly1)
        else:
            right.append(e)
            if ex1 < rx1:
                rx1 = ex1
            if ey1 < ry1:
                ry1 = ey1
            if ex2 > rx2:
                rx2 = ex2
            if ey2 > ry2:
                ry2 = ey2
            r_area = (rx2 - rx1) * (ry2 - ry1)
    return left, right


#: Fraction of entries evicted by an R* forced reinsert (the paper's source,
#: Beckmann et al., found 30% to work best).
REINSERT_FRACTION = 0.3


def choose_reinsert_entries(
    entries: Sequence[E], fraction: float = REINSERT_FRACTION
) -> Tuple[List[E], List[E]]:
    """Partition an overflowing node for R* forced reinsertion.

    Returns ``(keep, reinsert)`` where ``reinsert`` holds the ``fraction``
    of entries whose centres lie farthest from the node MBR's centre,
    ordered farthest-first (the R* "far reinsert" variant).  Stays scalar:
    one pass over the entries with a sort — no distribution tables for a
    kernel to amortise.
    """
    if not entries:
        raise ValueError("cannot reinsert from an empty node")
    node_mbr = Rect.union_all(e.rect for e in entries)
    ncx = (node_mbr.xmin + node_mbr.xmax) * 0.5
    ncy = (node_mbr.ymin + node_mbr.ymax) * 0.5

    def center_dist_sq(e: E) -> float:
        # Squared distance skips the per-entry sqrt/function-call overhead
        # and orders like math.hypot except on exact ties, which it breaks
        # by last-bit rounding where hypot keeps node order (EXPERIMENTS.md,
        # Figure 11).
        r = e.rect
        dx = (r.xmin + r.xmax) * 0.5 - ncx
        dy = (r.ymin + r.ymax) * 0.5 - ncy
        return dx * dx + dy * dy

    ranked = sorted(entries, key=center_dist_sq, reverse=True)
    count = max(1, int(round(len(entries) * fraction)))
    return ranked[count:], ranked[:count]
