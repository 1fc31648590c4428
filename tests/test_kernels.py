"""Property tests holding every kernel to the scalar ``Rect`` definitions.

Each kernel of :mod:`repro.kernels` is compared with what the ``Rect``
methods (or a brute-force loop over them) say about the same rectangles —
same indices, same floats to the last bit — across random geometry and
the degenerate shapes R-trees actually produce (points, zero-width and
zero-height segments, rectangles sharing edges).  Both block births are
exercised: *entry-born* blocks and *buffer-born* blocks decoded from a
packed page image, which must be the same value.

Floats are compared by their IEEE-754 bit patterns (``struct.pack``), not
``==``: the contract is bit-identity, and ``==`` would let ``-0.0`` pass
for ``0.0``.  ``min_dist_sq`` alone is held to ``Rect.min_dist`` within
the rounding of the ``hypot`` the latter takes.

The final test pins the query mirror (:mod:`repro.rtree.mirror`) to the
tree traversal it replaces: identical result multisets *and* identical
counted leaf I/O on randomised update/query workloads.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.factory import build_rstar_tree
from repro.rtree.geometry import Rect
from repro.rtree.node import IndexEntry, LeafEntry, Node

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

_RECTS = st.lists(_RECT, min_size=1, max_size=80)

_HEADER = 32
_STRIDE = 56  # RUM leaf layout: 4 float64 coords + id/stamp words


def _rects(rects):
    return [Rect(*r) for r in rects]


def _entries(rects):
    return [LeafEntry(r, oid=i, stamp=i) for i, r in enumerate(_rects(rects))]


def _page_image(rects) -> bytes:
    """A packed entry region shaped like a real RUM leaf page."""
    pad = bytes(_STRIDE - 32)
    return bytes(_HEADER) + b"".join(
        struct.pack("<4d", *r) + pad for r in rects
    )


def _blocks(rects):
    """Both births of the block of ``rects``: entry-born, buffer-born."""
    return [
        kernels.block_from_entries(_entries(rects)),
        kernels.block_from_buffer(
            _page_image(rects), _HEADER, len(rects), _STRIDE
        ),
    ]


def _bits(values):
    """Bit-pattern image of a float list (exact comparison, -0.0 != 0.0)."""
    return [struct.pack("<d", v) for v in values]


@given(rects=_RECTS)
@settings(max_examples=60, deadline=None)
def test_block_rows_and_areas_identical(rects):
    want_rows = [_bits(r) for r in rects]
    want_area = _bits([r.area() for r in _rects(rects)])
    for block in _blocks(rects):
        assert [_bits(r) for r in kernels.block_rows(block)] == want_rows
        gets = [kernels.block_get(block, i) for i in range(len(rects))]
        assert [_bits(r) for r in gets] == want_rows
        assert _bits(kernels.areas(block)) == want_area


@given(rects=_RECTS, window=_RECT)
@settings(max_examples=60, deadline=None)
def test_predicate_masks_identical(rects, window):
    w = Rect(*window)
    rs = _rects(rects)
    inter = [i for i, r in enumerate(rs) if r.intersects(w)]
    contain = [i for i, r in enumerate(rs) if r.contains(w)]
    for block in _blocks(rects):
        assert kernels.intersect_indices(block, *window) == inter
        assert kernels.contain_indices(block, *window) == contain


#: Below this distance the square is subnormal and loses digits.
_SQRT_TINY = math.sqrt(sys.float_info.min)


@given(rects=_RECTS, point=st.tuples(_COORD, _COORD))
@settings(max_examples=60, deadline=None)
def test_min_dist_sq_identical(rects, point):
    want = [r.min_dist(*point) for r in _rects(rects)]
    for block in _blocks(rects):
        got = kernels.min_dist_sq(block, *point)
        assert all(math.copysign(1.0, d) > 0 for d in got)
        for d_sq, d in zip(got, want):
            assert math.isclose(
                math.sqrt(d_sq), d,
                rel_tol=4 * sys.float_info.epsilon, abs_tol=_SQRT_TINY,
            )


@given(rects=_RECTS, new=_RECT, data=st.data())
@settings(max_examples=60, deadline=None)
def test_enlargements_and_overlap_delta_identical(rects, new, data):
    rs = _rects(rects)
    want_enl = _bits([r.enlargement(Rect(*new)) for r in rs])
    want_area = _bits([r.area() for r in rs])
    i = data.draw(st.integers(min_value=0, max_value=len(rects) - 1))
    grown = rs[i].union(Rect(*new))
    # Strictly interleaved, in index order: + overlap with the grown
    # rectangle, - overlap with the original, per sibling.
    want_delta = 0.0
    for j, other in enumerate(rs):
        if j != i:
            want_delta += grown.overlap_area(other)
            want_delta -= rs[i].overlap_area(other)
    for block in _blocks(rects):
        enl, area = kernels.enlargements(block, *new)
        assert (_bits(enl), _bits(area)) == (want_enl, want_area)
        delta = kernels.overlap_delta(block, i, *grown)
        assert _bits([delta]) == _bits([want_delta])


def _least_by_index(block, rx1, ry1, rx2, ry2):
    """The reference: ``least_enlargement`` as it scanned before the area
    order — every child in index order, keeping the minimum of
    (enlargement, area, index)."""
    best_enl = best_area = 0.0
    best = -1
    i = 0
    for ex1, ey1, ex2, ey2 in zip(block[1], block[2], block[3], block[4]):
        area = (ex2 - ex1) * (ey2 - ey1)
        enl = (
            ((ex2 if ex2 > rx2 else rx2) - (ex1 if ex1 < rx1 else rx1))
            * ((ey2 if ey2 > ry2 else ry2) - (ey1 if ey1 < ry1 else ry1))
            - area
        )
        if (
            best < 0
            or enl < best_enl
            or (enl == best_enl and area < best_area)
        ):
            best_enl, best_area, best = enl, area, i
        i += 1
    return best_enl, best_area, best


def _least_index(rects, new):
    """The area-ordered scan must pick what the index-order loop picked —
    min over (enlargement, area, index) — on both block births, sign of
    zero included."""
    for block in _blocks(rects):
        enl, area = kernels.enlargements(block, *new)
        want = min(zip(enl, area, range(len(rects))))
        assert _least_by_index(block, *new) == want
        rows = kernels.area_rows(block)
        assert [row[:2] for row in rows] == sorted(zip(area, range(len(rects))))
        got = kernels.least_enlargement(rows, *new)
        assert (_bits(got[:2]), got[2]) == (_bits(want[:2]), want[2])
        assert type(got[2]) is int
        # What the early return rests on: no enlargement is negative.
        assert min(enl) >= 0.0
    return got[2]


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
        # Covered by three children, the two smallest tied on area.
        ([(0.0, 0.0, 1.0, 1.0), (0.25, 0.25, 0.75, 0.75), (0.0, 0.0, 0.5, 0.5)],
         (0.3, 0.3, 0.3, 0.3), 1),
        # Nothing covers it: the least enlargement is the last child, the
        # largest area — the scan runs to the end of the order.
        ([(0.0, 0.0, 0.1, 0.1), (0.5, 0.5, 0.6, 0.6), (0.0, 0.8, 1.0, 1.0)],
         (0.9, 0.79, 0.9, 0.79), 2),
    ],
)
def test_least_enlargement_degenerate_cases(rects, new, want_index):
    assert _least_index(rects, new) == want_index


def test_least_enlargement_rejects_an_empty_block():
    for block in _blocks([]):
        with pytest.raises(ValueError):
            kernels.least_enlargement(
                kernels.area_rows(block), 0.0, 0.0, 1.0, 1.0
            )


@given(rects=_RECTS)
@settings(max_examples=100, deadline=None)
def test_bounds_is_union_all(rects):
    want = Rect.union_all(_rects(rects))
    for block in _blocks(rects):
        got = kernels.bounds(block)
        assert all(type(v) is float for v in got)
        assert _bits(got) == _bits(want.as_tuple())


def test_bounds_keeps_the_first_zero_and_rejects_an_empty_block():
    # -0.0 == 0.0: like Rect.union_all, the first of equal values stays.
    rects = [(-0.0, 0.0, 0.0, -0.0), (0.0, -0.0, -0.0, 0.0)]
    for block in _blocks(rects):
        assert _bits(kernels.bounds(block)) == _bits(rects[0])
    for block in _blocks([]):
        with pytest.raises(ValueError):
            kernels.bounds(block)


# ---------------------------------------------------------------------------
# ChooseSubtree at the leaf parents: the early return is exact
# ---------------------------------------------------------------------------

_CHOOSE_KERNELS = (
    "area_rows", "least_enlargement", "enlargements", "overlap_delta",
    "block_get",
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


def _grown(block, i, new):
    """Child ``i`` grown to cover ``new`` — what ChooseSubtree hands to
    ``overlap_delta``."""
    return Rect(*kernels.block_get(block, i)).union(Rect(*new))


def _exhaustive_choice(block, n, new, n_candidates=8):
    """The reference: ChooseSubtree at the leaf parents as it ran before
    the early return — every one of the least-enlargement candidates is
    ranked by (overlap delta, enlargement, area)."""
    least = _least_by_index(block, *new)
    if least[0] == 0.0:
        return least[2]
    enls, node_areas = kernels.enlargements(block, *new)
    ranked = sorted(zip(enls, node_areas, range(n)))

    def key(candidate):
        enlargement, area, i = candidate
        delta = kernels.overlap_delta(block, i, *_grown(block, i, new))
        return (delta, enlargement, area)

    return min(ranked[:n_candidates], key=key)[2]  # the first of equals


def _choose(block, rects, new, calls):
    """``RTreeBase._choose_child_index`` over ``block``; ``calls`` counts
    the kernel calls it made."""
    tree = build_rstar_tree(node_size=512)
    node = Node(
        7, False,
        [IndexEntry(Rect(*r), 100 + i) for i, r in enumerate(rects)],
    )
    node.columns = block

    def counted(name):
        kernel = getattr(kernels, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)

        return wrapper

    with mock.patch.multiple(
        kernels, **{name: counted(name) for name in _CHOOSE_KERNELS}
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
    for block in _blocks(rects):
        want = _exhaustive_choice(block, len(rects), new)
        calls = {}
        assert _choose(block, rects, new, calls) == want
        if calls.get("overlap_delta", 0) > 1:
            assert calls["enlargements"] == 1
        else:
            assert "enlargements" not in calls
        # The contract the early return rests on: growing a rectangle
        # never yields a negative overlap delta, nor a negative zero.
        for i in range(len(rects)):
            delta = kernels.overlap_delta(block, i, *_grown(block, i, new))
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
    for block in _blocks(rects):
        ranked = sorted(zip(*kernels.enlargements(block, *new), range(6)))
        assert [i for _enl, _area, i in ranked] == [4, 5, 2, 1, 3, 0]
        deltas = [
            kernels.overlap_delta(block, i, *_grown(block, i, new))
            for i in (4, 5, 2)
        ]
        assert deltas[0] > 0.0 and deltas[1] > 0.0 and deltas[2] == 0.0
        calls = {}
        assert _choose(block, rects, new, calls) == 2
        assert _exhaustive_choice(block, 6, new) == 2
        # One area order built and scanned once; it ranked (the head
        # added overlap) and stopped at the third.
        assert calls["area_rows"] == calls["least_enlargement"] == 1
        assert calls["enlargements"] == 1
        assert calls["overlap_delta"] == 3

    # The head of the order reads 0.0: nothing is ranked at all.
    rects = [d, c]
    for block in _blocks(rects):
        calls = {}
        assert _choose(block, rects, new, calls) == 1
        assert calls == {
            "area_rows": 1, "least_enlargement": 1, "block_get": 1,
            "overlap_delta": 1,
        }


# Zero-area segments on one road (y = 0.5), and points on it: the union of
# two collinear segments is a segment, so every enlargement reads 0.0.
_ROAD_X = st.tuples(_GRID_COORD, _GRID_COORD).map(sorted)
_ROAD = st.lists(
    _ROAD_X.map(lambda x: (x[0], 0.5, x[1], 0.5)), min_size=1, max_size=50
)


@given(
    rects=st.one_of(
        _RECTS,
        st.lists(_GRID_RECT, min_size=1, max_size=50),
        st.lists(_RECT, min_size=1, max_size=50),
        _ROAD,
    ),
    new=st.one_of(_NEW, _GRID_COORD.map(lambda x: (x, 0.5, x, 0.5))),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_least_enlargement_is_min_of_enlargements(rects, new, data):
    # Repeat a prefix: identical children, exact ties on every key.
    twins = data.draw(st.integers(0, max(0, min(len(rects), 50 - len(rects)))))
    rects = rects + rects[:twins]
    covered_by = data.draw(st.integers(min_value=-1, max_value=len(rects) - 1))
    if covered_by >= 0:
        # A corner of one child: covered by it, often by several.
        x, y = rects[covered_by][:2]
        new = (x, y, x, y)
    _least_index(rects, new)


def test_choose_subtree_decides_a_dirtied_node_from_fresh_rows():
    """The area order is cached on the directory node beside its
    coordinate block and dropped with it, so a node ``mark_dirty`` has
    touched is decided from its new entries."""
    tree = build_rstar_tree(node_size=512)
    buffer = tree.buffer
    with buffer.operation():
        node = buffer.new_node(is_leaf=False)
    low, high = Rect(0.0, 0.0, 1.0, 1.0), Rect(2.0, 2.0, 3.0, 4.0)
    point = Rect.from_point(2.5, 2.5)  # inside ``high`` only
    built = []
    area_rows = kernels.area_rows

    def counted(block):
        built.append(block)
        return area_rows(block)

    with mock.patch.object(kernels, "area_rows", counted):
        for entries, want, n_built in (
            ([low, high], 1, 1),
            ([low, high], 1, 1),    # same block: the rows are reused
            ([high, low], 0, 2),    # same page, new block: fresh rows
        ):
            if [e.rect for e in node.entries] != entries:
                node.entries = [
                    IndexEntry(r, 100 + i) for i, r in enumerate(entries)
                ]
                buffer.mark_dirty(node)
            for leaf_children in (False, True):
                assert tree._choose_child_index(
                    node, point, leaf_children
                ) == want
            assert len(built) == n_built


# One edit of a directory node: replace a child's rectangle, append a
# child, or copy another child's rectangle over one (identical children).
_EDIT = st.tuples(
    st.sampled_from(["replace", "append", "copy"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
    st.one_of(_GRID_RECT, _RECT, _ROAD_X.map(lambda x: (x[0], 0.5, x[1], 0.5))),
)


def _row_bits(rows):
    return [(_bits([r[0]]), r[1], _bits(r[2:])) for r in rows]


@given(
    rects=st.one_of(
        st.lists(_GRID_RECT, min_size=1, max_size=40),
        st.lists(_RECT, min_size=1, max_size=40),
        _ROAD,
    ),
    edits=st.lists(_EDIT, min_size=1, max_size=12),
    probes=st.lists(
        st.one_of(_NEW, _GRID_COORD.map(lambda x: (x, 0.5, x, 0.5))),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_set_child_patches_block_and_rows_to_what_a_rebuild_gives(
    rects, edits, probes
):
    """``RTreeBase._set_child`` edits a directory node's cached block and
    area rows in place; after every edit both are what a rebuild from the
    entries gives, bit for bit, and ChooseSubtree at either level picks
    what it picks over a freshly built node."""
    tree = build_rstar_tree(node_size=512)
    with tree.buffer.operation():
        node = tree.buffer.new_node(is_leaf=False)
    node.entries = [IndexEntry(Rect(*r), 100 + i) for i, r in enumerate(rects)]
    tree.buffer.mark_dirty(node)
    for kind, at, source, rect in edits:
        n = len(node.entries)
        # Decide once so the node holds a block and its rows to patch.
        tree._choose_child_index(node, Rect(*probes[0]), False)
        held = node.area_rows
        if kind == "append":
            idx = n
        else:
            idx = at % n
            if kind == "copy":
                rect = node.entries[source % n].rect.as_tuple()
        tree._set_child(node, idx, IndexEntry(Rect(*rect), 100 + idx))
        block = node.columns
        fresh = kernels.block_from_entries(node.entries)
        if held is not None:
            assert block is not None and _bits(
                [v for col in block[1:] for v in col]
            ) == _bits([v for col in fresh[1:] for v in col])
            assert block[0] == len(node.entries)
            assert node.area_rows is held
            assert _row_bits(held) == _row_bits(kernels.area_rows(fresh))
        reference = build_rstar_tree(node_size=512)
        rebuilt = Node(node.page_id, False, list(node.entries))
        for probe in probes:
            for leaf_children in (False, True):
                assert tree._choose_child_index(
                    node, Rect(*probe), leaf_children
                ) == reference._choose_child_index(
                    rebuilt, Rect(*probe), leaf_children
                )


@given(rects=st.lists(_RECT, min_size=2, max_size=80), data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_scans_identical(rects, data):
    n = len(rects)
    min_entries = data.draw(st.integers(min_value=1, max_value=n // 2))
    dim = data.draw(st.integers(min_value=0, max_value=3))
    rs = _rects(rects)
    order = sorted(range(n), key=lambda i: rects[i][dim])
    # Every legal distribution, by brute force.  The suffix table folds
    # from the far end (the last of equal zeros stays), and the margin
    # adds the right group's two sides one at a time.
    margin = 0.0
    overlaps, combined = [], []
    for k in range(min_entries, n - min_entries + 1):
        left = Rect.union_all(rs[i] for i in order[:k])
        right = Rect.union_all(rs[i] for i in reversed(order[k:]))
        margin += left.margin() + right.width + right.height
        overlaps.append(left.overlap_area(right))
        combined.append(left.area() + right.area())
    want = (_bits([margin]), _bits(overlaps), _bits(combined))
    for block in _blocks(rects):
        assert kernels.argsort(block, dim) == order
        got_margin, prefix, suffix = kernels.split_tables(
            block, order, min_entries
        )
        got = kernels.distribution_scan(prefix, suffix, min_entries)
        assert (_bits([got_margin]), _bits(got[0]), _bits(got[1])) == want


@given(rects=st.lists(_RECT, min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_quadratic_seeds_identical(rects):
    # Guttman's PickSeeds as written: the first pair, in (i, j) scan
    # order, wasting the most area.
    rs = _rects(rects)
    worst, want = -1.0, (0, 0)
    for i, a in enumerate(rs):
        for j in range(i + 1, len(rs)):
            waste = a.union(rs[j]).area() - a.area() - rs[j].area()
            if waste > worst:
                worst, want = waste, (i, j)
    for block in _blocks(rects):
        assert kernels.quadratic_seeds(block) == want


def test_all_ties_degenerate_keeps_historical_seeds():
    # Identical rectangles everywhere: every pairing wastes the same
    # (negative) area, the ``> -1.0`` threshold never fires, and the
    # answer stays (0, 0).
    for n in (3, 32):
        for block in _blocks([(0.0, 0.0, 1.0, 1.0)] * n):
            assert kernels.quadratic_seeds(block) == (0, 0)


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
