"""In-memory span recorder for the traced pass of ``bench_stack``.

The recorder wraps the calls that cross a layer boundary *from outside the
program*: an instance attribute on a live object, or a module/class
attribute in the namespace where the caller looks the callee up.  Nothing
under ``src/`` knows it exists, and :meth:`Recorder.restore` puts every
patched attribute back.

A span is six integers — ``(index, name id, parent index, request id,
start ns, end ns)`` — appended to a per-thread ``array('q')`` when the
call returns.  Indices are per thread and handed out at call entry, so a
child knows its parent while the parent is still open.  The request id is
the index of the operation the load generator has in flight; the
benchmark has one closed-loop caller, so one global integer is exact even
for spans recorded on server threads.

:meth:`Recorder.fold` turns the rows of one segment into per-name totals
with numpy.  A span's *self time* is its duration minus the part its
children cover: the sum of same-thread children (they cannot overlap) plus
the union of the children that ran on other threads (fan-out jobs do
overlap).
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROW = 6  # integers per span row
_IDX, _NAME, _PARENT, _REQ, _T0, _T1 = range(ROW)

#: Spans of these layers may cause work on another thread (a socket round
#: trip, a pool job); a thread-root span is attached to the innermost of
#: them, from another thread, that was open when it started.
CROSS_THREAD_PARENTS = "serving."


class _ThreadLog:
    __slots__ = ("rows", "stack", "next_index")

    def __init__(self) -> None:
        self.rows = array("q")
        self.stack: List[int] = []
        self.next_index = 0


@dataclass
class Fold:
    """Totals of one folded segment, indexed ``[name id, op class]``."""

    names: List[str]
    self_ns: np.ndarray       # summed self time
    calls: np.ndarray         # spans recorded
    children: np.ndarray      # direct child spans (for the overhead model)
    max_ns: np.ndarray        # longest single span, children included
    under: Dict[Tuple[str, str], int]  # (child name, parent name) -> count
    root_ns: int              # summed duration of the caller thread's roots
    spans: int

    def name_id(self, name: str) -> Optional[int]:
        try:
            return self.names.index(name)
        except ValueError:
            return None


class Recorder:
    """Wraps boundary calls and keeps their spans in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._tls = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: Index of the operation in flight; the load generator sets it.
        self.req = 0
        #: Raw rows of folded segments, kept only for ``--trace-out``.
        self.keep_rows = False
        self.kept: List[np.ndarray] = []
        self.empty_in_ns = 0.0   # tracer time inside an empty span
        self.empty_out_ns = 0.0  # tracer time a span adds to its parent

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _log(self) -> _ThreadLog:
        log = _ThreadLog()
        with self._logs_lock:
            self._logs.append(log)
        self._tls.log = log
        return log

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tally: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``tally`` receives the return value after the span has closed; it
        is how a boundary *count* that depends on the result (did this
        sweep remove anything?) is taken where the work happens.
        """
        nid = self._name_id(name)
        tls = self._tls
        new_log = self._log
        now = time.perf_counter_ns
        rec = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                log = tls.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            index = log.next_index
            log.next_index = index + 1
            stack.append(index)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                log.rows.extend(
                    (index, nid, stack[-1] if stack else -1, rec.req, t0, t1)
                )
            if tally is not None:
                tally(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        tally: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with its traced form until restore()."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, original, tally))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, own_value = self._patches.pop()
            if had_own:
                setattr(owner, attr, own_value)
            else:
                delattr(owner, attr)

    # -- calibration -------------------------------------------------------

    def calibrate(self, rounds: int = 20000) -> None:
        """Measure what one empty span costs, inside and outside itself."""

        def noop() -> None:
            return None

        traced_noop = self.wrap("trace.calibration.child", noop)

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(rounds):
                fn()

        traced_loop = self.wrap("trace.calibration.parent", loop)
        now = time.perf_counter_ns
        best_in = best_out = float("inf")
        for _ in range(5):
            t0 = now()
            loop(noop)
            bare = (now() - t0) / rounds
            self._drain()
            traced_loop(traced_noop)
            rows = self._drain()[0][1]
            durations = rows[:, _T1] - rows[:, _T0]
            child = durations[rows[:, _PARENT] >= 0]
            parent = durations[rows[:, _PARENT] < 0]
            inside = float(child.mean())
            outside = float(parent.sum()) / rounds - inside
            best_in = min(best_in, max(0.0, inside - bare))
            best_out = min(best_out, max(0.0, outside))
        self.empty_in_ns = best_in
        self.empty_out_ns = best_out

    # -- folding -----------------------------------------------------------

    def _drain(self) -> List[Tuple[int, np.ndarray]]:
        """Take every thread's rows; ``(thread number, rows)`` pairs."""
        out = []
        with self._logs_lock:
            logs = list(self._logs)
        for number, log in enumerate(logs):
            if log.stack:
                raise RuntimeError("fold() while a span is still open")
            rows = np.frombuffer(log.rows, dtype=np.int64).reshape(-1, ROW)
            if len(rows):
                out.append((number, rows.copy()))
            log.rows = array("q")
            log.next_index = 0
        return out

    def fold(self, op_class: Sequence[int], n_classes: int = 2) -> Fold:
        """Aggregate and clear the spans recorded since the last fold.

        ``op_class[req]`` is the class (0 update, 1 query) of request
        ``req``.  Call between operations, from the caller's thread.
        """
        caller = getattr(self._tls, "log", None)
        parts = self._drain()
        n_names = len(self.names)
        shape = (n_names, n_classes)
        if not parts:
            zeros = np.zeros(shape, dtype=np.int64)
            return Fold(list(self.names), zeros, zeros.copy(), zeros.copy(),
                        zeros.copy(), {}, 0, 0)
        with self._logs_lock:
            caller_number = (
                self._logs.index(caller) if caller is not None else -1
            )
        # One global table: rows sorted by per-thread index, so a span's
        # global id is its thread's offset plus its index.
        tables = []
        threads = []
        offset = 0
        for number, rows in parts:
            rows = rows[np.argsort(rows[:, _IDX], kind="stable")]
            has_parent = rows[:, _PARENT] >= 0
            rows[has_parent, _PARENT] += offset
            rows[:, _IDX] += offset
            offset += len(rows)
            tables.append(rows)
            threads.append(np.full(len(rows), number, dtype=np.int64))
        table = np.concatenate(tables)
        thread = np.concatenate(threads)
        name = table[:, _NAME]
        parent = table[:, _PARENT].copy()
        req = table[:, _REQ]
        t0 = table[:, _T0]
        t1 = table[:, _T1]
        duration = t1 - t0
        n = len(table)

        covered = np.zeros(n, dtype=np.int64)
        cross = self._adopt_thread_roots(
            name, parent, req, t0, t1, thread, caller_number
        )
        if self.keep_rows:
            kept = np.column_stack((table, thread))
            kept[:, _PARENT] = parent
            self.kept.append(kept)
        same = (parent >= 0)
        same[cross] = False
        np.add.at(covered, parent[same], duration[same])
        # Children on other threads may overlap each other: their cover is
        # the union of their intervals, clipped to the parent's.
        by_parent: Dict[int, List[Tuple[int, int]]] = {}
        for i in cross:
            p = int(parent[i])
            lo = max(int(t0[i]), int(t0[p]))
            hi = min(int(t1[i]), int(t1[p]))
            if hi > lo:
                by_parent.setdefault(p, []).append((lo, hi))
        for p, intervals in by_parent.items():
            intervals.sort()
            total = 0
            end = intervals[0][0]
            for lo, hi in intervals:
                if hi > end:
                    total += hi - max(lo, end)
                    end = hi
            covered[p] += total
        self_ns = duration - covered

        klass = np.asarray(op_class, dtype=np.int64)[req]
        key = name * n_classes + klass
        size = n_names * n_classes
        has_parent = parent >= 0
        fold_self = np.bincount(key, weights=self_ns, minlength=size)
        fold_calls = np.bincount(key, minlength=size)
        fold_children = np.bincount(key[parent[has_parent]], minlength=size)
        fold_max = np.zeros(size, dtype=np.int64)
        np.maximum.at(fold_max, key, duration)
        under: Dict[Tuple[str, str], int] = {}
        pairs = name[has_parent] * n_names + name[parent[has_parent]]
        for pair, count in zip(*np.unique(pairs, return_counts=True)):
            child_name = self.names[int(pair) // n_names]
            parent_name = self.names[int(pair) % n_names]
            under[(child_name, parent_name)] = int(count)
        roots = (table[:, _PARENT] < 0) & (thread == caller_number)
        return Fold(
            names=list(self.names),
            self_ns=np.rint(fold_self).astype(np.int64).reshape(shape),
            calls=fold_calls.reshape(shape),
            children=fold_children.reshape(shape),
            max_ns=fold_max.reshape(shape),
            under=under,
            root_ns=int(duration[roots].sum()),
            spans=n,
        )

    def _adopt_thread_roots(
        self,
        name: np.ndarray,
        parent: np.ndarray,
        req: np.ndarray,
        t0: np.ndarray,
        t1: np.ndarray,
        thread: np.ndarray,
        caller_number: int,
    ) -> np.ndarray:
        """Give every root span of a non-caller thread the span that
        caused it; returns the adopted rows and fills ``parent``."""
        orphans = np.flatnonzero((parent < 0) & (thread != caller_number))
        if not len(orphans):
            return orphans
        causes = [
            nid for nid, text in enumerate(self.names)
            if text.startswith(CROSS_THREAD_PARENTS)
        ]
        by_req: Dict[int, List[int]] = {}
        for i in np.flatnonzero(np.isin(name, causes)):
            by_req.setdefault(int(req[i]), []).append(int(i))
        adopted = []
        for i in orphans:
            best = -1
            for c in by_req.get(int(req[i]), ()):
                if (
                    thread[c] != thread[i]
                    and t0[c] <= t0[i]
                    and t1[c] >= t1[i]
                    and (best < 0 or t0[c] > t0[best])
                ):
                    best = c
            if best >= 0:
                parent[i] = best
                adopted.append(i)
        return np.asarray(adopted, dtype=np.int64)

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write the kept spans, one JSON object per line."""
        import json

        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for segment, rows in enumerate(self.kept):
                for idx, nid, par, req, t0, t1, thr in rows.tolist():
                    out.write(json.dumps({
                        "segment": segment, "span": idx,
                        "name": self.names[nid], "parent": par,
                        "request": req, "thread": thr,
                        "start_ns": t0, "end_ns": t1,
                    }) + "\n")
                    written += 1
        return written
