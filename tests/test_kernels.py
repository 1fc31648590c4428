"""Property tests pinning the kernel backends' bit-identical contract.

The numpy backend must reproduce the scalar reference exactly — same
indices, same floats to the last bit — across random geometry and the
degenerate shapes R-trees actually produce (points, zero-width and
zero-height segments, rectangles sharing edges).  Both input
representations are exercised: *entry-born* list-column blocks and
*buffer-born* blocks decoded from a packed page image, including sizes on
both sides of the numpy backend's vectorisation cutoffs (below them the
numpy backend delegates to the scalar code; above them it must vectorise
to the identical answer).

Floats are compared by their IEEE-754 bit patterns (``struct.pack``), not
``==``: the contract is bit-identity, and ``==`` would let ``-0.0`` pass
for ``0.0``.

The final test pins the query mirror (:mod:`repro.rtree.mirror`) to the
tree traversal it replaces: identical result multisets *and* identical
counted leaf I/O on randomised update/query workloads.
"""

from __future__ import annotations

import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
import repro.kernels._python as pyk
from repro.factory import build_rstar_tree
from repro.rtree.geometry import Rect
from repro.rtree.node import IndexEntry, LeafEntry, Node

try:
    import repro.kernels._numpy as npk
except ImportError:  # numpy not installed: only the mirror tests run
    npk = None

needs_numpy = pytest.mark.skipif(
    npk is None, reason="numpy backend not importable"
)

# Shared coordinate pool so touching edges, shared corners, and exact
# duplicates occur constantly, mixed with arbitrary finite floats.
_COORD = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


def _ordered(t):
    """Four drawn coordinates as a valid (xmin, ymin, xmax, ymax)."""
    return (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))


#: (xmin, ymin, xmax, ymax); degenerate (point/segment) rects included.
_RECT = st.tuples(_COORD, _COORD, _COORD, _COORD).map(_ordered)

# Sizes straddle the numpy backend's vectorisation cutoffs (64 for the
# linear split scans, 16 for the quadratic seed search).
_RECTS = st.lists(_RECT, min_size=1, max_size=80)

_HEADER = 32
_STRIDE = 56  # RUM leaf layout: 4 float64 coords + id/stamp words


def _entries(rects):
    return [
        LeafEntry(Rect(x1, y1, x2, y2), oid=i, stamp=i)
        for i, (x1, y1, x2, y2) in enumerate(rects)
    ]


def _page_image(rects) -> bytes:
    """A packed entry region shaped like a real RUM leaf page."""
    parts = [b"\x00" * _HEADER]
    pad = b"\x00" * (_STRIDE - 32)
    for x1, y1, x2, y2 in rects:
        parts.append(struct.pack("<4d", x1, y1, x2, y2) + pad)
    return b"".join(parts)


def _blocks(rects):
    """Every (backend, block) pair that must agree on ``rects``."""
    page = _page_image(rects)
    n = len(rects)
    pairs = [
        (pyk, pyk.block_from_entries(_entries(rects))),
        (pyk, pyk.block_from_buffer(page, _HEADER, n, _STRIDE)),
    ]
    if npk is not None:
        pairs.append((npk, npk.block_from_entries(_entries(rects))))
        pairs.append((npk, npk.block_from_buffer(page, _HEADER, n, _STRIDE)))
    return pairs


def _bits(values):
    """Bit-pattern image of a float list (exact comparison, -0.0 != 0.0)."""
    return [struct.pack("<d", v) for v in values]


def _assert_all_equal(results, label):
    reference = results[0]
    for other in results[1:]:
        assert other == reference, label


@needs_numpy
@given(rects=_RECTS)
@settings(max_examples=60, deadline=None)
def test_block_rows_and_areas_identical(rects):
    rows = [
        [tuple(r) for r in impl.block_rows(block)]
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(rows, "block_rows")
    gets = [
        [impl.block_get(block, i) for i in range(len(rects))]
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(gets, "block_get")
    area_bits = [
        _bits(impl.areas(block)) for impl, block in _blocks(rects)
    ]
    _assert_all_equal(area_bits, "areas")


@needs_numpy
@given(rects=_RECTS, window=_RECT)
@settings(max_examples=60, deadline=None)
def test_predicate_masks_identical(rects, window):
    wx1, wy1, wx2, wy2 = window
    inter = [
        impl.intersect_indices(block, wx1, wy1, wx2, wy2)
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(inter, "intersect_indices")
    contain = [
        impl.contain_indices(block, wx1, wy1, wx2, wy2)
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(contain, "contain_indices")


@needs_numpy
@given(rects=_RECTS, point=st.tuples(_COORD, _COORD))
@settings(max_examples=60, deadline=None)
def test_min_dist_sq_identical(rects, point):
    x, y = point
    dists = [
        _bits(impl.min_dist_sq(block, x, y))
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(dists, "min_dist_sq")


@needs_numpy
@given(rects=_RECTS, new=_RECT, data=st.data())
@settings(max_examples=60, deadline=None)
def test_enlargements_and_overlap_delta_identical(rects, new, data):
    rx1, ry1, rx2, ry2 = new
    enl = []
    for impl, block in _blocks(rects):
        e, a = impl.enlargements(block, rx1, ry1, rx2, ry2)
        enl.append((_bits(e), _bits(a)))
    _assert_all_equal(enl, "enlargements")
    i = data.draw(st.integers(min_value=0, max_value=len(rects) - 1))
    ex1, ey1, ex2, ey2 = rects[i]
    nx1, ny1 = min(ex1, rx1), min(ey1, ry1)
    nx2, ny2 = max(ex2, rx2), max(ey2, ry2)
    deltas = [
        _bits([impl.overlap_delta(block, i, nx1, ny1, nx2, ny2)])
        for impl, block in _blocks(rects)
    ]
    _assert_all_equal(deltas, "overlap_delta")


def _least_bits(result):
    enl, area, index = result
    return (_bits([enl, area]), index)


@given(rects=_RECTS, new=_RECT)
@settings(max_examples=100, deadline=None)
def test_least_enlargement_is_min_of_enlargements(rects, new):
    # The single pass must pick what ChooseSubtree picked before it
    # existed — min over (enlargement, area, index) — on every backend
    # and both block births, sign of zero included.
    for impl, block in _blocks(rects):
        enl, area = impl.enlargements(block, *new)
        want = min(zip(enl, area, range(len(rects))))
        got = impl.least_enlargement(block, *new)
        assert _least_bits(got) == _least_bits(want)
        assert type(got[2]) is int


@pytest.mark.parametrize(
    "rects, new, want_index",
    [
        # Collinear road-network points: every MBR is a zero-area segment
        # on y = 0.5 and so is its union with a point on the same road —
        # enlargement 0.0 without containment; ties go to least area,
        # then to the lowest index.
        ([(0.1, 0.5, 0.2, 0.5), (0.3, 0.5, 0.4, 0.5)], (0.9, 0.5, 0.9, 0.5), 0),
        # Exact ties on enlargement: the smaller area wins ...
        ([(0.0, 0.0, 1.0, 1.0), (0.25, 0.25, 0.75, 0.75)], (0.5, 0.5, 0.5, 0.5), 1),
        # ... and exact ties on both keep the first.
        ([(0.0, 0.0, 1.0, 1.0)] * 3, (0.5, 0.5, 0.5, 0.5), 0),
        # -0.0 == 0.0: the pair ties on enlargement and falls to area.
        ([(-0.0, -0.0, 1.0, 2.0), (0.0, 0.0, 1.0, 1.0)], (0.0, -0.0, 0.5, 0.5), 1),
    ],
)
def test_least_enlargement_degenerate_cases(rects, new, want_index):
    for impl, block in _blocks(rects):
        enl, area = impl.enlargements(block, *new)
        want = min(zip(enl, area, range(len(rects))))
        got = impl.least_enlargement(block, *new)
        assert _least_bits(got) == _least_bits(want)
        assert got[2] == want_index


def test_least_enlargement_rejects_an_empty_block():
    for impl, block in _blocks([]):
        with pytest.raises(ValueError):
            impl.least_enlargement(block, 0.0, 0.0, 1.0, 1.0)


@given(rects=_RECTS)
@settings(max_examples=100, deadline=None)
def test_bounds_is_union_all(rects):
    want = Rect.union_all(e.rect for e in _entries(rects))
    for impl, block in _blocks(rects):
        got = impl.bounds(block)
        assert all(type(v) is float for v in got)
        assert _bits(got) == _bits(want.as_tuple())


def test_bounds_keeps_the_first_zero_and_rejects_an_empty_block():
    # -0.0 == 0.0: like Rect.union_all, the first of equal values stays.
    rects = [(-0.0, 0.0, 0.0, -0.0), (0.0, -0.0, -0.0, 0.0)]
    for impl, block in _blocks(rects):
        assert _bits(impl.bounds(block)) == _bits(rects[0])
    for impl, block in _blocks([]):
        with pytest.raises(ValueError):
            impl.bounds(block)


# ---------------------------------------------------------------------------
# ChooseSubtree at the leaf parents: the early return is exact
# ---------------------------------------------------------------------------

_CHOOSE_KERNELS = (
    "least_enlargement", "enlargements", "overlap_delta", "block_get",
)

# Coordinates off a coarse grid only: abutting, nested, identical,
# zero-area and collinear children, and exact ties on every key.
_GRID_COORD = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
_GRID_RECT = st.tuples(
    _GRID_COORD, _GRID_COORD, _GRID_COORD, _GRID_COORD
).map(_ordered)
_CHILDREN = st.one_of(
    st.lists(_GRID_RECT, min_size=2, max_size=50),
    st.lists(_RECT, min_size=2, max_size=50),
)
# Points beside the grid: every child has to grow, most into a sibling,
# so the ranking is decided deep in the candidate list.
_BESIDE = st.sampled_from([-1.5, 0.125, 0.625, 1.25, 1.5])
_NEW = st.one_of(
    _GRID_RECT, _RECT,
    st.tuples(_BESIDE, _BESIDE).map(lambda p: (p[0], p[1], p[0], p[1])),
)


def _grown(impl, block, i, new):
    """Child ``i`` grown to cover ``new`` — what ChooseSubtree hands to
    ``overlap_delta``."""
    ex1, ey1, ex2, ey2 = impl.block_get(block, i)
    rx1, ry1, rx2, ry2 = new
    return (
        ex1 if ex1 < rx1 else rx1,
        ey1 if ey1 < ry1 else ry1,
        ex2 if ex2 > rx2 else rx2,
        ey2 if ey2 > ry2 else ry2,
    )


def _exhaustive_choice(impl, block, n, new, n_candidates=8):
    """The reference: ChooseSubtree at the leaf parents as it ran before
    the early return — every one of the least-enlargement candidates is
    ranked by (overlap delta, enlargement, area)."""
    least = impl.least_enlargement(block, *new)
    if least[0] == 0.0:
        return least[2]
    enls, node_areas = impl.enlargements(block, *new)
    ranked = sorted(zip(enls, node_areas, range(n)))
    candidates = ranked[:n_candidates]
    best_idx = candidates[0][2]
    best_key = None
    for enlargement, area, i in candidates:
        overlap_delta = impl.overlap_delta(
            block, i, *_grown(impl, block, i, new)
        )
        key = (overlap_delta, enlargement, area)
        if best_key is None or key < best_key:
            best_key = key
            best_idx = i
    return best_idx


def _choose(impl, block, rects, new, calls=None):
    """``RTreeBase._choose_child_index`` over ``block`` on backend
    ``impl``; ``calls`` counts the kernel calls it made."""
    tree = build_rstar_tree(node_size=512)
    node = Node(
        7, False,
        [IndexEntry(Rect(*r), 100 + i) for i, r in enumerate(rects)],
    )
    node.columns = block

    def counted(name):
        kernel = getattr(impl, name)
        if calls is None:
            return kernel

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)

        return wrapper

    with mock.patch.multiple(
        repro.kernels, **{name: counted(name) for name in _CHOOSE_KERNELS}
    ):
        return tree._choose_child_index(node, Rect(*new), True)


@given(rects=_CHILDREN, new=_NEW, data=st.data())
@settings(max_examples=200, deadline=None)
def test_choose_subtree_early_return_is_the_exhaustive_ranking(
    rects, new, data
):
    covered_by = data.draw(st.integers(min_value=-1, max_value=len(rects) - 1))
    if covered_by >= 0:
        # A corner of one child: at least that child needs no enlargement.
        x, y = rects[covered_by][:2]
        new = (x, y, x, y)
    for impl, block in _blocks(rects):
        want = _exhaustive_choice(impl, block, len(rects), new)
        calls = {}
        assert _choose(impl, block, rects, new, calls) == want
        if calls.get("overlap_delta", 0) > 1:
            assert calls["enlargements"] == 1
        else:
            assert "enlargements" not in calls
        # The contract the early return rests on: growing a rectangle
        # never yields a negative overlap delta, nor a negative zero.
        for i in range(len(rects)):
            delta = impl.overlap_delta(block, i, *_grown(impl, block, i, new))
            assert delta >= 0.0 and math.copysign(1.0, delta) > 0


def test_choose_subtree_ranks_until_the_first_zero_overlap_candidate():
    # Rising enlargement for the point (0, 0): A (2), B (3), C (4), then
    # X and Y (25.05 each) and D (120).  Growing A swallows a strip of X
    # and growing B a strip of Y; growing C only abuts A and B.
    a, b, c = (1.0, -1.0, 2.0, 1.0), (-2.0, -1.5, -1.0, 1.5), (-1.0, 2.0, 1.0, 4.0)
    x, y = (0.5, -50.0, 0.625, -0.5), (-0.625, -50.0, -0.5, -0.5)
    d = (10.0, 10.0, 11.0, 11.0)
    rects = [d, x, c, y, a, b]
    new = (0.0, 0.0, 0.0, 0.0)
    for impl, block in _blocks(rects):
        ranked = sorted(zip(*impl.enlargements(block, *new), range(6)))
        assert [i for _enl, _area, i in ranked] == [4, 5, 2, 1, 3, 0]
        deltas = [
            impl.overlap_delta(block, i, *_grown(impl, block, i, new))
            for i in (4, 5, 2)
        ]
        assert deltas[0] > 0.0 and deltas[1] > 0.0 and deltas[2] == 0.0
        calls = {}
        assert _choose(impl, block, rects, new, calls) == 2
        assert _exhaustive_choice(impl, block, 6, new) == 2
        # It ranked (the head added overlap) and stopped at the third.
        assert calls["enlargements"] == 1
        assert calls["overlap_delta"] == 3

    # The head of the order reads 0.0: nothing is ranked at all.
    rects = [d, c]
    for impl, block in _blocks(rects):
        calls = {}
        assert _choose(impl, block, rects, new, calls) == 1
        assert calls == {
            "least_enlargement": 1, "block_get": 1, "overlap_delta": 1,
        }


@needs_numpy
@given(rects=st.lists(_RECT, min_size=2, max_size=80), data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_scans_identical(rects, data):
    n = len(rects)
    min_entries = data.draw(st.integers(min_value=1, max_value=n // 2))
    dim = data.draw(st.integers(min_value=0, max_value=3))
    orders = [
        impl.argsort(block, dim) for impl, block in _blocks(rects)
    ]
    _assert_all_equal(orders, "argsort")
    order = orders[0]
    outcomes = []
    for impl, block in _blocks(rects):
        margin, prefix, suffix = impl.split_tables(
            block, order, min_entries
        )
        overlaps, combined = impl.distribution_scan(
            prefix, suffix, min_entries
        )
        outcomes.append(
            (_bits([margin]), _bits(overlaps), _bits(combined))
        )
    _assert_all_equal(outcomes, "split_tables/distribution_scan")


@needs_numpy
@given(rects=st.lists(_RECT, min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_quadratic_seeds_identical(rects):
    seeds = [
        impl.quadratic_seeds(block) for impl, block in _blocks(rects)
    ]
    _assert_all_equal(seeds, "quadratic_seeds")


@needs_numpy
def test_all_ties_degenerate_keeps_historical_seeds():
    # Identical rectangles everywhere: every pairing wastes the same
    # (negative) area, the scalar threshold never fires, and both
    # backends must answer (0, 0) — on both representations, above and
    # below the vectorisation cutoff.
    for n in (3, 32):
        rects = [(0.0, 0.0, 1.0, 1.0)] * n
        for impl, block in _blocks(rects):
            assert impl.quadratic_seeds(block) == (0, 0)


# ---------------------------------------------------------------------------
# Query mirror vs. tree traversal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 88])
def test_mirror_matches_traversal_results_and_io(seed):
    """The grid mirror must return the same entries as a tree walk and
    charge exactly the same counted leaf reads, query by query."""
    from repro.experiments.harness import make_tree
    from repro.rtree.base import MIRROR_QUERY_STREAK

    rng = random.Random(seed)
    tree = make_tree("rum_touch", node_size=2048)
    rects = {}
    for oid in range(800):
        x, y = rng.random() * 0.99, rng.random() * 0.99
        rects[oid] = Rect(x, y, x + 0.004, y + 0.004)
        tree.insert_object(oid, rects[oid])
    for oid in range(0, 800, 5):
        x, y = rng.random() * 0.99, rng.random() * 0.99
        new = Rect(x, y, x + 0.004, y + 0.004)
        tree.update_object(oid, rects[oid], new)
        rects[oid] = new

    side = 0.02
    windows = [
        Rect(x, y, x + side, y + side)
        for x, y in (
            (rng.random() * (1 - side), rng.random() * (1 - side))
            for _ in range(40)
        )
    ]
    stats = tree.buffer.stats

    def measure(window):
        before = stats.leaf_reads
        found = tree.search(window)
        return sorted(found), stats.leaf_reads - before

    truth = []
    for window in windows:
        tree._mirror = None
        tree._mirror_streak = 0
        tree._mirror_streak_version = -1
        truth.append(measure(window))

    tree._mirror = None
    tree._mirror_streak = 0
    tree._mirror_streak_version = -1
    for window in windows[:MIRROR_QUERY_STREAK]:
        tree.search(window)
    assert tree._mirror is not None, "mirror not built after streak"
    for window, (expect_results, expect_io) in zip(windows, truth):
        got_results, got_io = measure(window)
        assert got_results == expect_results
        assert got_io == expect_io
        assert tree._mirror is not None

    # Any mutation must invalidate the mirror before the next search.
    oid = 1
    x, y = rng.random() * 0.99, rng.random() * 0.99
    tree.update_object(oid, rects[oid], Rect(x, y, x + 0.004, y + 0.004))
    assert tree._mirror.version != tree.buffer.version
    tree.search(windows[0])
    assert tree._mirror is None
