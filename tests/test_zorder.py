"""Tests for the Z-order partitioning module (``repro.rtree.zorder``).

The serving layer's correctness hangs on two properties checked here:
shard regions tile the unit square exactly, and ``shards_for_window``
never misses the shard a point inside the window routes to — including
at the quantisation-skew boundaries (the grid multiplies by 65535, not
65536, so nominal cell edges are up to ``QUANT_SLACK`` off).
"""

import math
import random

import pytest

from repro.rtree.geometry import Rect
from repro.rtree.zorder import (
    KEY_BITS,
    QUANT_SLACK,
    morton_key,
    shard_bits,
    shard_for_key,
    shard_for_point,
    shard_region,
    shards_for_window,
    zorder_key,
    zorder_keys,
)


class TestMortonKey:
    def test_origin_and_corner(self):
        assert morton_key(0.0, 0.0) == 0
        assert morton_key(1.0, 1.0) == (1 << KEY_BITS) - 1

    def test_bit_interleaving(self):
        # x fills the even bit positions, y the odd (higher) ones.
        from repro.rtree.zorder import _part1by1

        assert _part1by1(0b1) == 0b01
        assert _part1by1(0b11) == 0b0101
        assert morton_key(1.0, 0.0) == 0x55555555  # all even bits
        assert morton_key(0.0, 1.0) == 0xAAAAAAAA  # all odd bits

    def test_y_owns_the_top_bit(self):
        # The top key bit comes from y, so the first Z-order split is
        # horizontal — shard_region relies on this orientation.
        assert morton_key(1.0, 0.0) >> (KEY_BITS - 1) == 0
        assert morton_key(0.0, 1.0) >> (KEY_BITS - 1) == 1

    def test_key_fits_in_32_bits(self):
        rng = random.Random(7)
        for _ in range(200):
            key = morton_key(rng.random(), rng.random())
            assert 0 <= key < (1 << KEY_BITS)


class TestZorderKeyEdges:
    """The quantiser must cope with every float a workload can produce."""

    def test_exact_zero(self):
        assert zorder_key(Rect(0.0, 0.0, 0.0, 0.0)) == 0

    def test_exact_one(self):
        full = (1 << KEY_BITS) - 1
        assert zorder_key(Rect(1.0, 1.0, 1.0, 1.0)) == full

    def test_denormal_is_clamped_to_zero_cell(self):
        tiny = 5e-324  # smallest positive denormal
        assert zorder_key(Rect(tiny, tiny, tiny, tiny)) == 0

    def test_out_of_range_coordinates_clamp(self):
        full = (1 << KEY_BITS) - 1
        assert zorder_key(Rect(-3.0, -3.0, -3.0, -3.0)) == 0
        assert zorder_key(Rect(2.0, 2.0, 2.0, 2.0)) == full

    def test_nan_does_not_crash(self):
        nan = float("nan")
        key = zorder_key(Rect(nan, nan, nan, nan))
        assert 0 <= key < (1 << KEY_BITS)

    def test_key_uses_rect_centre(self):
        a = zorder_key(Rect(0.2, 0.2, 0.4, 0.4))
        b = zorder_key(Rect(0.3, 0.3, 0.3, 0.3))
        assert a == b


class TestBulkEncoder:
    def _random_rects(self, n, rng):
        rects = []
        for _ in range(n):
            x = rng.uniform(-0.1, 1.1)
            y = rng.uniform(-0.1, 1.1)
            rects.append(Rect(x, y, x + rng.uniform(0, 0.05), y))
        return rects

    def test_bulk_matches_scalar(self):
        rng = random.Random(11)
        rects = self._random_rects(500, rng)
        bulk = zorder_keys(rects)
        assert bulk == [zorder_key(r) for r in rects]

    def test_bulk_matches_pure_python_kernel(self):
        # Element by element, the bulk form is the one point encoder.
        rng = random.Random(13)
        rects = self._random_rects(300, rng)
        assert zorder_keys(rects) == [
            morton_key((r.xmin + r.xmax) * 0.5, (r.ymin + r.ymax) * 0.5)
            for r in rects
        ]

    def test_edge_values_in_bulk(self):
        edge = [0.0, 1.0, 5e-324, -1.0, 2.0]
        keys = zorder_keys([Rect(v, v, v, v) for v in edge])
        full = (1 << KEY_BITS) - 1
        assert keys == [0, full, 0, 0, full]

    def test_edge_values_in_large_bulk(self):
        # NaN and out-of-range centres in a long (> 32) input.
        edge = [0.0, 1.0, 5e-324, -1.0, 2.0, float("nan")]
        cxs = edge * 8
        cys = list(reversed(edge)) * 8
        assert zorder_keys(
            [Rect(cx, cy, cx, cy) for cx, cy in zip(cxs, cys)]
        ) == [morton_key(cx, cy) for cx, cy in zip(cxs, cys)]

    def test_empty_input(self):
        assert zorder_keys([]) == []


class TestShardBits:
    def test_powers_of_two(self):
        assert shard_bits(1) == 0
        assert shard_bits(2) == 1
        assert shard_bits(4) == 2
        assert shard_bits(8) == 3
        assert shard_bits(16) == 4

    @pytest.mark.parametrize("bad", [0, -1, 3, 6, 12])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ValueError):
            shard_bits(bad)


class TestShardRegions:
    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 4])
    def test_regions_tile_the_unit_square(self, bits):
        n = 1 << bits
        regions = [shard_region(i, bits) for i in range(n)]
        # Total area is exactly 1 and no two regions overlap (open
        # interiors), so the cells tile the square.
        area = sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in regions)
        assert area == pytest.approx(1.0)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = regions[i], regions[j]
                disjoint = (
                    a[2] <= b[0] or b[2] <= a[0]
                    or a[3] <= b[1] or b[3] <= a[1]
                )
                assert disjoint, (i, j, a, b)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_interior_points_route_to_their_region(self, bits):
        # Sample well inside each cell (clear of quantisation slack):
        # the shard the point routes to must be the cell's own index.
        n = 1 << bits
        for i in range(n):
            x1, y1, x2, y2 = shard_region(i, bits)
            cx, cy = (x1 + x2) * 0.5, (y1 + y2) * 0.5
            assert shard_for_point(cx, cy, bits) == i

    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 4, 5, 6, 31, KEY_BITS])
    def test_shard_for_point_is_the_prefix_of_the_full_key(self, bits):
        # ``shard_for_point`` interleaves only the bits it needs; the full
        # key is the reference, at every place the two could disagree: the
        # quantised cell edges k / 65535 and their float neighbours, the
        # clamp, NaN, the infinities and the signed zeros.
        rng = random.Random(bits)
        edges = [k / 65535 for k in range(0, 65536, 1 << max(4, 10 - bits))]
        values = [
            math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -0.5, 1.5,
            5e-324, 1e308, -1e308, 0.5,
        ]
        for edge in edges:
            values += [
                edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)
            ]
        values += [rng.uniform(-0.2, 1.2) for _ in range(500)]
        for x in values:
            y = rng.choice(values)
            for cx, cy in ((x, y), (y, x)):
                assert shard_for_point(cx, cy, bits) == shard_for_key(
                    morton_key(cx, cy), bits
                ), (cx, cy, bits)

    def test_shard_for_key_takes_top_bits(self):
        key = 0b1011 << (KEY_BITS - 4)
        assert shard_for_key(key, 2) == 0b10
        assert shard_for_key(key, 4) == 0b1011
        assert shard_for_key(key, 0) == 0


class TestShardsForWindow:
    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 4])
    def test_point_in_window_never_missed(self, bits):
        """The fan-out safety property: any point inside a window routes
        to a shard the window's fan-out set contains — sampled across
        the quantisation-skew boundaries and out-of-range coordinates.
        """
        rng = random.Random(100 + bits)
        for _ in range(2000):
            x = rng.uniform(-0.2, 1.2)
            y = rng.uniform(-0.2, 1.2)
            side = rng.uniform(0.0, 0.3)
            window = Rect(x, y, x + side, y + side)
            targets = shards_for_window(window, bits)
            # The point itself and the window corners must be covered.
            for px, py in [
                (x, y),
                (x + side, y + side),
                (rng.uniform(x, x + side), rng.uniform(y, y + side)),
            ]:
                assert shard_for_point(px, py, bits) in targets

    def test_cell_boundary_neighbourhood(self):
        # Points within QUANT_SLACK of a nominal boundary are the
        # delicate case: the true quantised edge sits at k/65535-scaled
        # positions, not k/2^16.
        bits = 2
        for k in (1, 2, 3):
            edge = k / 4.0
            for eps in (-QUANT_SLACK, 0.0, QUANT_SLACK):
                p = edge + eps
                window = Rect(p, p, p, p)
                targets = shards_for_window(window, bits)
                assert shard_for_point(p, p, bits) in targets

    def test_whole_square_hits_every_shard(self):
        assert shards_for_window(Rect(0, 0, 1, 1), 2) == [0, 1, 2, 3]

    def test_tiny_window_usually_one_shard(self):
        targets = shards_for_window(Rect(0.1, 0.1, 0.12, 0.12), 2)
        assert targets == [0]

    def test_degenerate_and_inverted_windows(self):
        assert shards_for_window(Rect(0.5, 0.5, 0.5, 0.5), 2)
        # A window entirely outside the square clamps to the border.
        targets = shards_for_window(Rect(1.5, 1.5, 2.0, 2.0), 2)
        assert shard_for_point(1.5, 1.5, 2) in targets
