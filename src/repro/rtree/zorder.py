"""Morton (Z-order) encoding over the unit square.

One 32-bit key per point: each coordinate is quantised to
:data:`ZORDER_BITS` bits and the two bit strings are interleaved, x in
the even positions and y in the odd (higher) positions.  Two properties
make the code load-bearing well beyond batch ordering:

* **Locality** — points close in space share long key prefixes, so
  sorting by key clusters spatially adjacent work (batch ingestion,
  :func:`repro.core.batch.plan_batch`).
* **Prefix regions are rectangles** — fixing the top ``b`` bits of a key
  fixes ``ceil(b/2)`` leading bits of y and ``floor(b/2)`` leading bits
  of x, so the set of points whose keys share a ``b``-bit prefix is an
  axis-aligned cell of a regular grid.  The sharded serving layer
  (:mod:`repro.serving`) exploits this: shard ``i`` of ``2**b`` is
  exactly the prefix cell :func:`shard_region` returns, which lets the
  router prune query fan-out with plain rectangle intersection.

Keys are total over arbitrary coordinates: anything outside ``[0, 1]``
clamps to the border cell.  The scalar functions are the single source
of truth; :func:`zorder_keys` loops them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .geometry import Rect

#: Quantisation resolution of the Z-order key (bits per dimension).
ZORDER_BITS = 16

#: Total key width: two interleaved :data:`ZORDER_BITS` coordinates.
KEY_BITS = 2 * ZORDER_BITS

_ZMAX = (1 << ZORDER_BITS) - 1


def _part1by1(v: int) -> int:
    """Spread the low 16 bits of ``v`` into the even bit positions."""
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def morton_key(cx: float, cy: float) -> int:
    """Morton code of the point ``(cx, cy)``, clamped to the unit square.

    Total over arbitrary floats: out-of-range values clamp to the
    border cell and NaN routes to the origin cell.
    """
    if cx != cx:  # NaN
        cx = 0.0
    if cy != cy:
        cy = 0.0
    qx = int(min(max(cx, 0.0), 1.0) * _ZMAX)
    qy = int(min(max(cy, 0.0), 1.0) * _ZMAX)
    return _part1by1(qx) | (_part1by1(qy) << 1)


def zorder_key(rect: "Rect") -> int:
    """Morton code of ``rect``'s centre, quantised to the unit square.

    Coordinates outside ``[0, 1]`` clamp to the border cell, so the key
    is total over arbitrary rectangles; equal keys simply tie.
    """
    return morton_key(
        (rect.xmin + rect.xmax) * 0.5, (rect.ymin + rect.ymax) * 0.5
    )


def zorder_keys(rects: Sequence["Rect"]) -> List[int]:
    """:func:`zorder_key` of every rectangle, in order."""
    return [zorder_key(r) for r in rects]


# ---------------------------------------------------------------------------
# Prefix regions (the sharding partition)
# ---------------------------------------------------------------------------


def shard_bits(n_shards: int) -> int:
    """Number of leading key bits that select among ``n_shards`` shards.

    ``n_shards`` must be a power of two no finer than the key's
    resolution; 1 shard means 0 bits (everything routes to shard 0).
    """
    if n_shards < 1 or n_shards & (n_shards - 1):
        raise ValueError(
            f"n_shards must be a power of two, got {n_shards}"
        )
    bits = n_shards.bit_length() - 1
    if bits > KEY_BITS:
        raise ValueError(
            f"n_shards {n_shards} exceeds the key resolution "
            f"(max {1 << KEY_BITS})"
        )
    return bits


def shard_for_key(key: int, bits: int) -> int:
    """Shard index of ``key``: its top ``bits`` bits."""
    if bits == 0:
        return 0
    return key >> (KEY_BITS - bits)


def shard_for_point(cx: float, cy: float, bits: int) -> int:
    """Shard index of the point ``(cx, cy)`` under a ``2**bits`` split:
    ``shard_for_key(morton_key(cx, cy), bits)`` — same clamp, NaN to the
    origin cell — from the top ``ceil(bits / 2)`` bits of each quantised
    coordinate alone, in one frame (the router calls it per update)."""
    qx = int(cx * _ZMAX) if 0.0 < cx < 1.0 else _ZMAX if cx >= 1.0 else 0
    qy = int(cy * _ZMAX) if 0.0 < cy < 1.0 else _ZMAX if cy >= 1.0 else 0
    index = 0
    for level in range(ZORDER_BITS - 1, ZORDER_BITS - 1 - (bits + 1) // 2, -1):
        index = index << 2 | (qy >> level & 1) << 1 | qx >> level & 1
    # An odd prefix ends on a y bit: the last x bit taken is not in it.
    return index >> 1 if bits & 1 else index


def shard_region(index: int, bits: int) -> Tuple[float, float, float, float]:
    """The axis-aligned cell of shard ``index`` under a ``2**bits`` split.

    Returns ``(xmin, ymin, xmax, ymax)`` in unit-square coordinates.
    The key interleaves y into the odd (higher) positions, so the
    leading prefix bits split the square alternately by y then x: 2
    shards are horizontal halves, 4 shards quadrants, 8 shards a 2x4
    grid, and so on.  Cells tile the square exactly; each cell is
    closed on its low edges and (conceptually) open on its high edges,
    except the border cells, which absorb the clamp overflow.
    """
    if bits < 0 or bits > KEY_BITS:
        raise ValueError(f"bits must be within [0, {KEY_BITS}]")
    if not 0 <= index < (1 << bits):
        raise ValueError(
            f"shard index {index} out of range for {1 << bits} shards"
        )
    y_bits = (bits + 1) // 2  # odd positions are consumed first
    x_bits = bits // 2
    # Deinterleave the prefix: reading the index MSB-first alternates
    # y, x, y, x, ...
    yi = 0
    xi = 0
    for b in range(bits):
        bit = (index >> (bits - 1 - b)) & 1
        if b % 2 == 0:
            yi = (yi << 1) | bit
        else:
            xi = (xi << 1) | bit
    x_span = 1.0 / (1 << x_bits)
    y_span = 1.0 / (1 << y_bits)
    return (xi * x_span, yi * y_span, (xi + 1) * x_span, (yi + 1) * y_span)


#: Worst-case skew between a cell's nominal boundary (``k * 2**-b``)
#: and its true quantised boundary: quantisation multiplies by ``_ZMAX``
#: (= 2**16 - 1), so the real edge sits at ``k * 2**(16-b) / _ZMAX``,
#: at most ``1 / _ZMAX`` to the right of the nominal one.
QUANT_SLACK = 1.0 / _ZMAX


def shards_for_window(window: "Rect", bits: int) -> List[int]:
    """All shard indices whose cell may hold a centre inside ``window``.

    Used by the query fan-out.  The test is deliberately one-sided safe
    (it may over-cover, never under-cover):

    * the window is clamped into the unit square first, mirroring the
      clamp :func:`morton_key` applies to every centre, so a window
      hanging past the border still selects the border cells that
      absorbed the clamped centres;
    * each cell is grown by :data:`QUANT_SLACK` to absorb the skew
      between nominal and quantised cell boundaries.

    Callers whose objects have spatial extent must grow ``window`` by
    the largest object half-extent before calling: an object is routed
    by its *centre*, but its rectangle can overlap a window from an
    adjacent cell.
    """
    wx1 = min(max(window.xmin, 0.0), 1.0)
    wy1 = min(max(window.ymin, 0.0), 1.0)
    wx2 = min(max(window.xmax, 0.0), 1.0)
    wy2 = min(max(window.ymax, 0.0), 1.0)
    hits: List[int] = []
    for index in range(1 << bits):
        xmin, ymin, xmax, ymax = shard_region(index, bits)
        if (
            wx1 <= xmax + QUANT_SLACK
            and xmin - QUANT_SLACK <= wx2
            and wy1 <= ymax + QUANT_SLACK
            and ymin - QUANT_SLACK <= wy2
        ):
            hits.append(index)
    return hits
