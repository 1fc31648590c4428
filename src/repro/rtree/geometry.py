"""Axis-aligned rectangle algebra for R-tree MBRs.

The paper works in a unit-square data space with two-dimensional minimum
bounding rectangles (MBRs).  :class:`Rect` is the single geometric value type
used across the whole code base: leaf-entry MBRs, directory-entry MBRs,
query windows, and the windows of Lemma 2 in the cost analysis.

Rectangles are closed, immutable, and represented by their two corners
``(xmin, ymin, xmax, ymax)``.  Degenerate rectangles (points, segments) are
valid: the paper's default workload indexes point objects (extent 0).

``Rect`` methods are the *scalar* forms of these operations, used for
one-off geometry (query construction, invariant checks, cost model).  The
hot paths — range/kNN search, ChooseSubtree, splits, page decode — apply
the same predicates to whole nodes at a time through the batch kernels in
:mod:`repro.kernels`, which evaluate the identical IEEE-754 expressions
over coordinate columns.  Changing a formula here without updating its
kernel (and vice versa) breaks that equivalence; see ``docs/KERNELS.md``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple


class Rect:
    """A 2-D axis-aligned rectangle, treated as an immutable value.

    Supports the MBR operations needed by R-tree algorithms: area, margin,
    union, intersection tests, containment tests, enlargement, and overlap
    area.  Instances compare by value and are hashable, so they can be used
    in sets and as dictionary keys in tests.

    Rectangles sit on the hottest paths of the simulator, so the class is
    deliberately plain: no frozen-dataclass machinery, just slots.  By
    convention nothing in the code base mutates a ``Rect`` after creation.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        if xmax < xmin or ymax < ymin:
            raise ValueError(
                f"invalid rectangle: ({xmin}, {ymin}, {xmax}, {ymax})"
            )
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, x: float, y: float) -> "Rect":
        """A degenerate rectangle covering a single point."""
        return cls(x, y, x, y)

    @classmethod
    def from_center(cls, x: float, y: float, extent: float) -> "Rect":
        """A square of side ``extent`` centred on ``(x, y)``.

        This is how the workload generator materialises an object with the
        paper's *object extent* parameter; ``extent == 0`` yields a point.
        """
        half = extent / 2.0
        return cls(x - half, y - half, x + half, y + half)

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_all() of an empty collection") from None
        xmin, ymin = first.xmin, first.ymin
        xmax, ymax = first.xmax, first.ymax
        for r in it:
            if r.xmin < xmin:
                xmin = r.xmin
            if r.ymin < ymin:
                ymin = r.ymin
            if r.xmax > xmax:
                xmax = r.xmax
            if r.ymax > ymax:
                ymax = r.ymax
        return cls(xmin, ymin, xmax, ymax)

    # -- scalar measures ---------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        """The area of the rectangle (zero for points and segments)."""
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def margin(self) -> float:
        """Half-perimeter, the R* split criterion calls this the margin."""
        return (self.xmax - self.xmin) + (self.ymax - self.ymin)

    def center(self) -> Tuple[float, float]:
        return (
            (self.xmin + self.xmax) / 2.0,
            (self.ymin + self.ymax) / 2.0,
        )

    def center_distance(self, other: "Rect") -> float:
        """Euclidean distance between the two rectangle centres (R* uses
        this to pick the entries to force-reinsert)."""
        cx1, cy1 = self.center()
        cx2, cy2 = other.center()
        return math.hypot(cx1 - cx2, cy1 - cy2)

    # -- predicates ----------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies fully inside this rectangle.

        This is the predicate of Lemma 2: a top-down deletion only needs to
        descend into nodes whose MBR *fully contains* the MBR of the entry
        being deleted.
        """
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    # -- combinations --------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """The MBR of the two rectangles, as :meth:`union_all` folds it:
        the first of equal coordinates stays (``0.0`` against ``-0.0``).
        Returns ``self`` when it already covers ``other``."""
        x1, y1, x2, y2 = self.xmin, self.ymin, self.xmax, self.ymax
        ox1, oy1, ox2, oy2 = other.xmin, other.ymin, other.xmax, other.ymax
        if ox1 < x1 or oy1 < y1 or ox2 > x2 or oy2 > y2:
            return Rect(
                ox1 if ox1 < x1 else x1,
                oy1 if oy1 < y1 else y1,
                ox2 if ox2 > x2 else x2,
                oy2 if oy2 > y2 else y2,
            )
        return self

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this rectangle to also cover ``other``.

        Guttman's ChooseLeaf and the R* ChooseSubtree both minimise this.
        """
        exmin = self.xmin if self.xmin < other.xmin else other.xmin
        eymin = self.ymin if self.ymin < other.ymin else other.ymin
        exmax = self.xmax if self.xmax > other.xmax else other.xmax
        eymax = self.ymax if self.ymax > other.ymax else other.ymax
        return (exmax - exmin) * (eymax - eymin) - self.area()

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (zero when disjoint)."""
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        if w <= 0.0:
            return 0.0
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if h <= 0.0:
            return 0.0
        return w * h

    def min_dist(self, x: float, y: float) -> float:
        """Euclidean distance from a point to this rectangle (0 inside).

        The MINDIST bound of best-first nearest-neighbour search over
        R-trees: no object inside the rectangle can be closer than this.
        """
        dx = 0.0
        if x < self.xmin:
            dx = self.xmin - x
        elif x > self.xmax:
            dx = x - self.xmax
        dy = 0.0
        if y < self.ymin:
            dy = self.ymin - y
        elif y > self.ymax:
            dy = y - self.ymax
        return math.hypot(dx, dy)

    def expanded(self, delta: float) -> "Rect":
        """This rectangle grown by ``delta`` on every side (clamped at 0).

        The FUR-tree uses an expanded leaf MBR to decide whether an updated
        entry may stay in its original leaf node.
        """
        if delta < 0:
            raise ValueError("delta must be non-negative")
        return Rect(
            self.xmin - delta,
            self.ymin - delta,
            self.xmax + delta,
            self.ymax + delta,
        )

    # -- value semantics ------------------------------------------------------

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return (
            f"Rect({self.xmin:g}, {self.ymin:g}, "
            f"{self.xmax:g}, {self.ymax:g})"
        )


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


def containment_probability(
    outer_w: float, outer_h: float, inner_w: float, inner_h: float
) -> float:
    """Lemma 2 of the paper.

    In a unit square, the probability that a randomly placed window of size
    ``outer_w x outer_h`` fully contains a randomly placed window of size
    ``inner_w x inner_h`` is ``max(outer_w - inner_w, 0) *
    max(outer_h - inner_h, 0)``.

    The cost model (Section 4.2.1) sums this over all leaf MBRs to predict
    the search cost of a top-down deletion.
    """
    return max(outer_w - inner_w, 0.0) * max(outer_h - inner_h, 0.0)


def clamp_to_unit(x: float, y: float) -> Tuple[float, float]:
    """Clamp a point into the unit square used as the normalised data space."""
    return (min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))


def rects_mbr(rects: Sequence[Rect]) -> Rect:
    """Convenience alias of :meth:`Rect.union_all` for sequences."""
    return Rect.union_all(rects)
