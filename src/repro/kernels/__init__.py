"""Columnar batch kernels for MBR predicates, split scans, and page decode.

The per-entry interpreter overhead of ``Rect`` method calls is the cost
ceiling of the simulator's hot paths (one Python call per entry per node
visited).  This package replaces those inner loops with *batch* kernels that
operate on a node's coordinates as four parallel columns — a **coordinate
column block** — so one call tests, measures, or scans a whole node.

Two interchangeable backends implement the same module-level API:

* :mod:`repro.kernels._numpy` — vectorised over ``numpy`` arrays; column
  blocks are zero-copy strided views into the raw page bytes wherever the
  coordinates come straight off a page image;
* :mod:`repro.kernels._python` — dependency-free scalar fallback over
  ``memoryview``/list columns, used automatically when numpy is not
  installed.

The backend is chosen **once, at import time**, from the ``REPRO_KERNELS``
environment variable:

``auto`` (or unset)
    numpy when importable, otherwise the scalar fallback.
``numpy``
    require numpy (``ImportError`` if missing).
``python``
    force the scalar fallback even when numpy is installed (the CI A/B leg
    uses this to prove the fallback is load-bearing).

Bit-identical contract
----------------------

Both backends are required to return **bit-identical** results for every
kernel: identical indices, and floats produced by the *same IEEE-754
expression tree evaluated in the same order* (sequential sums, stable
sorts, first-occurrence argmax).  This is not best-effort — split decisions,
ChooseSubtree decisions, and kNN orderings feed back into tree *shape*, so
any ulp of divergence would make experiment results depend on which backend
happened to be installed.  ``tests/test_kernels.py`` enforces the contract
property-wise across random and degenerate geometry.

A column block is an opaque value: construct it with
:func:`block_from_entries` / :func:`block_from_buffer` and pass it back to
the kernels.  Blocks are immutable snapshots — see ``docs/KERNELS.md`` for
the invalidation rules (`Node.coord_block` caches one per node; any entry
mutation must go through ``BufferPool.mark_dirty``, which drops it).
"""

from __future__ import annotations

import os

_requested = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"

if _requested == "auto":
    try:
        from . import _numpy as _impl
    except ImportError:  # numpy not installed: scalar fallback
        from . import _python as _impl  # type: ignore[no-redef]
elif _requested == "numpy":
    from . import _numpy as _impl  # type: ignore[no-redef]
elif _requested == "python":
    from . import _python as _impl  # type: ignore[no-redef]
else:
    raise RuntimeError(
        f"REPRO_KERNELS={_requested!r}: expected 'auto', 'numpy' or 'python'"
    )

#: Name of the active backend: ``"numpy"`` or ``"python"``.
BACKEND: str = _impl.BACKEND

# Column-block construction -------------------------------------------------
block_from_entries = _impl.block_from_entries
block_from_buffer = _impl.block_from_buffer
block_get = _impl.block_get
block_rows = _impl.block_rows

# Bulk measures and predicate masks ----------------------------------------
areas = _impl.areas
bounds = _impl.bounds
intersect_indices = _impl.intersect_indices
contain_indices = _impl.contain_indices
min_dist_sq = _impl.min_dist_sq
enlargements = _impl.enlargements
least_enlargement = _impl.least_enlargement
overlap_delta = _impl.overlap_delta

# Bulk encoders -------------------------------------------------------------
morton_keys = _impl.morton_keys

# Split scans ---------------------------------------------------------------
argsort = _impl.argsort
split_tables = _impl.split_tables
distribution_scan = _impl.distribution_scan
quadratic_seeds = _impl.quadratic_seeds

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
    "least_enlargement",
    "overlap_delta",
    "morton_keys",
    "argsort",
    "split_tables",
    "distribution_scan",
    "quadratic_seeds",
]
