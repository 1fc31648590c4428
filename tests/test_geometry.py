"""Unit and property tests for the rectangle algebra."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtree.geometry import (
    Rect,
    UNIT_SQUARE,
    clamp_to_unit,
    containment_probability,
    rects_mbr,
)

coords = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw) -> Rect:
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_basic_fields(self):
        r = Rect(0.1, 0.2, 0.3, 0.4)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.1, 0.2, 0.3, 0.4)

    def test_invalid_extent_raises(self):
        with pytest.raises(ValueError):
            Rect(0.5, 0.0, 0.4, 1.0)
        with pytest.raises(ValueError):
            Rect(0.0, 0.5, 1.0, 0.4)

    def test_from_point_is_degenerate(self):
        r = Rect.from_point(0.5, 0.7)
        assert r.area() == 0.0
        assert r.xmin == r.xmax == 0.5
        assert r.ymin == r.ymax == 0.7

    def test_from_center(self):
        r = Rect.from_center(0.5, 0.5, 0.2)
        assert r.xmin == pytest.approx(0.4)
        assert r.xmax == pytest.approx(0.6)
        assert r.width == pytest.approx(0.2)
        assert r.height == pytest.approx(0.2)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_all([])

    def test_union_all_single(self):
        r = Rect(0.1, 0.1, 0.2, 0.2)
        assert Rect.union_all([r]) == r

    def test_rects_mbr_alias(self):
        a = Rect(0.0, 0.0, 0.1, 0.1)
        b = Rect(0.5, 0.5, 0.9, 0.9)
        assert rects_mbr([a, b]) == Rect(0.0, 0.0, 0.9, 0.9)


class TestMeasures:
    def test_area_and_margin(self):
        r = Rect(0.0, 0.0, 0.5, 0.25)
        assert r.area() == pytest.approx(0.125)
        assert r.margin() == pytest.approx(0.75)

    def test_center(self):
        assert Rect(0.0, 0.0, 1.0, 0.5).center() == (0.5, 0.25)

    def test_center_distance(self):
        a = Rect.from_point(0.0, 0.0)
        b = Rect.from_point(0.3, 0.4)
        assert a.center_distance(b) == pytest.approx(0.5)


class TestPredicates:
    def test_intersects_touching_edges(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.5, 0.0, 1.0, 0.5)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_disjoint(self):
        a = Rect(0.0, 0.0, 0.4, 0.4)
        b = Rect(0.5, 0.5, 1.0, 1.0)
        assert not a.intersects(b)

    def test_contains(self):
        outer = Rect(0.0, 0.0, 1.0, 1.0)
        inner = Rect(0.2, 0.2, 0.8, 0.8)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_contains_point(self):
        r = Rect(0.25, 0.25, 0.75, 0.75)
        assert r.contains_point(0.5, 0.5)
        assert r.contains_point(0.25, 0.75)  # border inclusive
        assert not r.contains_point(0.1, 0.5)


class TestCombinations:
    def test_union(self):
        a = Rect(0.0, 0.0, 0.3, 0.3)
        b = Rect(0.2, 0.2, 0.8, 0.6)
        assert a.union(b) == Rect(0.0, 0.0, 0.8, 0.6)

    def test_union_keeps_its_own_coordinate_on_ties(self):
        # ``union`` is the incremental step of ``union_all``: the first of
        # equals stays, which only the sign of a zero can show.
        own = Rect(-0.0, 0.0, 0.0, -0.0)
        other = Rect(0.0, -0.0, 1.0, 0.0)
        signs = [math.copysign(1.0, c) for c in own.union(other)]
        assert signs == [-1.0, 1.0, 1.0, -1.0]
        folded = Rect.union_all([own, other])
        assert signs == [math.copysign(1.0, c) for c in folded]
        assert [math.copysign(1.0, c) for c in other.union(own)] == [
            math.copysign(1.0, c) for c in Rect.union_all([other, own])
        ]

    def test_union_is_identity_on_cover(self):
        outer = Rect(0.0, 0.0, 1.0, 1.0)
        assert outer.union(Rect(0.2, 0.2, 0.4, 0.4)) is outer
        assert outer.union(Rect(0.0, 0.5, 1.0, 1.0)) is outer  # on the edge
        assert outer.union(Rect(-0.0, 0.0, 1.0, 1.0)) is outer
        assert outer.union(outer) is outer
        grown = outer.union(Rect(0.5, 0.5, 1.5, 0.6))
        assert grown is not outer and grown == Rect(0.0, 0.0, 1.5, 1.0)

    def test_enlargement_zero_when_contained(self):
        outer = Rect(0.0, 0.0, 1.0, 1.0)
        inner = Rect(0.2, 0.2, 0.4, 0.4)
        assert outer.enlargement(inner) == pytest.approx(0.0)

    def test_enlargement_positive(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.6, 0.6, 1.0, 1.0)
        assert a.enlargement(b) == pytest.approx(1.0 - 0.25)

    def test_overlap_area(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.25, 0.25, 0.75, 0.75)
        assert a.overlap_area(b) == pytest.approx(0.0625)
        c = Rect(0.6, 0.6, 1.0, 1.0)
        assert a.overlap_area(c) == 0.0

    def test_expanded(self):
        r = Rect(0.4, 0.4, 0.6, 0.6).expanded(0.1)
        assert r.as_tuple() == pytest.approx((0.3, 0.3, 0.7, 0.7))
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 1.0, 1.0).expanded(-0.1)


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Rect(0.1, 0.2, 0.3, 0.4)
        b = Rect(0.1, 0.2, 0.3, 0.4)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_iter_and_tuple(self):
        r = Rect(0.1, 0.2, 0.3, 0.4)
        assert tuple(r) == r.as_tuple() == (0.1, 0.2, 0.3, 0.4)

    def test_not_equal_other_type(self):
        assert Rect(0, 0, 1, 1) != "rect"


class TestProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a)
        assert u.contains(b)

    @given(rects(), rects())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rects(), rects())
    def test_union_is_union_all_of_the_pair(self, a, b):
        assert a.union(b) == Rect.union_all([a, b])
        assert (a.union(b) is a) == a.contains(b)

    @given(rects(), rects())
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= -1e-12

    @given(rects(), rects())
    def test_overlap_symmetric_and_bounded(self, a, b):
        o1 = a.overlap_area(b)
        o2 = b.overlap_area(a)
        assert o1 == pytest.approx(o2)
        assert o1 <= min(a.area(), b.area()) + 1e-12

    @given(rects(), rects())
    def test_contains_implies_intersects(self, a, b):
        if a.contains(b):
            assert a.intersects(b)

    @given(rects())
    def test_union_with_self_identity(self, a):
        assert a.union(a) == a

    @given(rects(), rects())
    def test_overlap_positive_iff_interior_intersection(self, a, b):
        if a.overlap_area(b) > 0:
            assert a.intersects(b)


class TestLemma2:
    def test_formula_cases(self):
        # Outer 0.5x0.5 containing a point: probability 0.25.
        assert containment_probability(0.5, 0.5, 0.0, 0.0) == pytest.approx(
            0.25
        )
        # Inner larger than outer on one axis: zero.
        assert containment_probability(0.5, 0.5, 0.6, 0.1) == 0.0
        assert containment_probability(0.3, 0.3, 0.3, 0.3) == 0.0

    def test_monte_carlo_agreement(self):
        """Lemma 2 against direct simulation in the unit square."""
        rng = random.Random(123)
        w_out, h_out, w_in, h_in = 0.4, 0.3, 0.1, 0.05
        trials = 20000
        hits = 0
        for _ in range(trials):
            ox = rng.uniform(0, 1 - w_out)
            oy = rng.uniform(0, 1 - h_out)
            ix = rng.uniform(0, 1 - w_in)
            iy = rng.uniform(0, 1 - h_in)
            outer = Rect(ox, oy, ox + w_out, oy + h_out)
            inner = Rect(ix, iy, ix + w_in, iy + h_in)
            if outer.contains(inner):
                hits += 1
        expected = containment_probability(w_out, h_out, w_in, h_in)
        assert hits / trials == pytest.approx(expected, abs=0.02)


def test_clamp_to_unit():
    assert clamp_to_unit(-0.5, 1.7) == (0.0, 1.0)
    assert clamp_to_unit(0.3, 0.6) == (0.3, 0.6)


def test_unit_square_constant():
    assert UNIT_SQUARE.area() == 1.0
    assert UNIT_SQUARE.contains(Rect(0.2, 0.2, 0.8, 0.8))


def test_width_height():
    r = Rect(0.1, 0.2, 0.4, 0.8)
    assert r.width == pytest.approx(0.3)
    assert r.height == pytest.approx(0.6)
    assert math.isclose(r.margin(), r.width + r.height)
