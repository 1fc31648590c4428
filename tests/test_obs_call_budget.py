"""Observability's overhead as an exact call budget.

Timing cannot resolve a few per cent on a shared host: six runs of
identical code read the ``metrics`` overhead anywhere from -1.4 to
+13.4 %.  So the contract is stated in work instead: how many Python
calls into functions under ``src/repro`` observability adds per update
and per query, counted with ``sys.setprofile`` over one seeded segment
after a warm one.  At ``trace`` every operation is captured, so its
count is exact and pinned; ``metrics`` samples by wall time, so it is
only bounded by ``trace``.  Comprehension frames are left out: Python
3.12 inlines them (PEP 709), so counting them would make the figure
depend on the interpreter.  A change that moves a pinned count
re-records it here and says why.
"""

import os
import sys

import pytest

import repro
from repro.factory import build_rum_tree
from repro.obs import Observability
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

_SRC = os.path.dirname(repro.__file__) + os.sep
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}

#: Operations per measured segment.
OPS = 200

#: Calls ``trace`` adds over one segment (6.045 per update, 7.0 per
#: query).
TRACE_ADDS = {"update": 1209, "query": 1400}


def _calls(body):
    n = 0

    def profile(frame, event, _arg):
        nonlocal n
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(_SRC)
                and code.co_name not in _INLINED
            ):
                n += 1

    sys.setprofile(profile)
    try:
        body()
    finally:
        sys.setprofile(None)
    return n


def _calls_per_segment(level):
    """``{"update": calls, "query": calls}`` over one segment of each,
    after an unmeasured segment of each."""
    obs = None if level is None else Observability(level=level)
    tree = build_rum_tree(node_size=2048, obs=obs)
    workload = default_network_workload(1000, moving_distance=0.01, seed=11)
    for oid, rect in workload.initial():
        tree.insert_object(oid, rect)
    updates = iter(workload.updates(2 * OPS))
    queries = iter(RangeQueryGenerator(seed=2).queries(2 * OPS))

    def update():
        for _ in range(OPS):
            tree.update_object(*next(updates))

    def query():
        for _ in range(OPS):
            tree.search(next(queries))

    update()
    query()
    return {"update": _calls(update), "query": _calls(query)}


@pytest.fixture(scope="module")
def plain():
    return _calls_per_segment(None)


def _added(level, plain):
    counted = _calls_per_segment(level)
    return {op: counted[op] - plain[op] for op in counted}


def test_trace_adds_a_pinned_number_of_calls(plain):
    assert _added("trace", plain) == TRACE_ADDS


def test_metrics_adds_no_more_calls_than_trace(plain):
    added = _added("metrics", plain)
    assert all(0 <= added[op] <= TRACE_ADDS[op] for op in added)
