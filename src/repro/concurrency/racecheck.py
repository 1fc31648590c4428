"""Eraser-style dynamic data-race detector (lockset + happens-before).

The static rules in :mod:`repro.lint.concurrency` prove lock *discipline*
— pairing, ordering, guarded-by — but a discipline check cannot tell
whether the lock a thread actually held at runtime was the *right* one.
This module closes that gap with the classic Eraser algorithm
(Savage et al., SOSP '97) refined by per-thread vector clocks:

* every shared location (an ``(object, field)`` pair reported through
  :meth:`RaceChecker.access`) carries a **candidate lockset** — the
  intersection of the locks held at every access since the location
  became shared.  A write with an empty candidate set is a race: no
  single lock protected every access.
* the raw Eraser state machine (virgin → exclusive → shared →
  shared-modified) misreports the fork/join idiom — a parent
  initialises an object without locks, hands it to workers, and reads
  it back after ``join()``.  Per-thread **vector clocks**, advanced on
  :meth:`note_fork`/:meth:`note_join`, let the checker discard
  accessors whose last access *happens-before* the current one; when
  every earlier accessor is ordered before the current thread the
  location collapses back to exclusive ownership instead of raising a
  false alarm.
* read/write locks are mode-aware: a read access is protected by any
  held lock, a write access only by locks held in ``write`` (or plain
  mutex ``exclusive``) mode — two threads sharing a read lock do not
  exclude each other's writes.

Activation is explicit and global: ``REPRO_RACECHECK=1`` in the
environment (checked by :func:`from_env`, which the router, the lock
policy and the load driver call) or a direct :func:`activate`.
:data:`ACTIVE` is the one switch: every probe (field access, lock event,
fork, join) reads it at the call, so a stack built before activation
reports from the moment of activation, and when no checker is active a
site pays one module-attribute load and ``None`` check (see
``benchmarks/bench_micro.py``'s racecheck A/B leg).  Only lock
*construction* looks earlier: :func:`~repro.concurrency.primitives.make_lock`
returns a :class:`TrackedLock` only while detection is on, so activate
before you build — locks built while it was off stay invisible, and
every access they guard looks unlocked.

Races are *collected*, not raised: each one becomes a
:class:`RaceReport` carrying both access sites' stack traces, rendered
in the linter's ``path:line: RCxxx message`` diagnostic style, and is
counted on the ``racecheck.races`` counter when an
:class:`~repro.obs.Observability` is attached.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from dataclasses import dataclass
from types import FrameType
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Lock modes understood by :meth:`RaceChecker.note_acquire`.
READ_MODE = "read"
WRITE_MODE = "write"
EXCLUSIVE_MODE = "exclusive"

_MODES = (READ_MODE, WRITE_MODE, EXCLUSIVE_MODE)

#: Innermost stack frames captured per access site (racecheck's own
#: frames are filtered out afterwards).
_STACK_LIMIT = 16


#: This module's own source file, filtered from captured stacks (an
#: exact match — ``endswith`` would also eat e.g. ``test_racecheck.py``).
_SELF_FILE = __file__


def _capture_site(write: bool) -> "AccessSite":
    thread = threading.current_thread()
    frames = traceback.extract_stack(limit=_STACK_LIMIT)
    stack = [
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in frames
        if frame.filename != _SELF_FILE
    ]
    return AccessSite(thread=thread.name, write=write, stack=stack)


def _cheap_site(write: bool) -> "AccessSite":
    """Single-frame access site for hot-path bookkeeping.

    ``traceback.extract_stack`` costs more than the guarded operation
    itself, so recording a full stack on *every* access would dominate
    the detector's overhead (measured ~35x on the update path).  The
    prior-access side of a race report only needs to point at the code,
    so the hot path walks raw frames to the nearest caller outside this
    module; the full stack is captured only for the racing access
    itself, at report time.
    """
    frame: Optional[FrameType] = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _SELF_FILE:
        frame = frame.f_back
    stack = (
        []
        if frame is None
        else [
            f"{frame.f_code.co_filename}:{frame.f_lineno}"
            f" in {frame.f_code.co_name}"
        ]
    )
    return AccessSite(
        thread=threading.current_thread().name, write=write, stack=stack
    )


@dataclass
class AccessSite:
    """One recorded access: the thread and its (trimmed) call stack."""

    thread: str
    write: bool
    stack: List[str]

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        lines = [f"{kind} by thread {self.thread!r}:"]
        lines.extend(f"    {frame}" for frame in self.stack)
        return "\n".join(lines)


@dataclass
class RaceReport:
    """A location reached shared-modified state with an empty lockset."""

    class_name: str
    field: str
    lockset: Tuple[str, ...]
    current: AccessSite
    prior: Optional[AccessSite]

    @property
    def location(self) -> str:
        return f"{self.class_name}.{self.field}"

    def render(self) -> str:
        """Multi-line report in the linter's diagnostic style."""
        anchor = self.current.stack[-1] if self.current.stack else "<unknown>"
        lines = [
            f"{anchor}: RC001 data race on {self.location}: no common "
            f"lock protects all accesses (candidate lockset is empty)",
            "  " + self.current.describe().replace("\n", "\n  "),
        ]
        if self.prior is not None:
            lines.append("  previous " + self.prior.describe().replace("\n", "\n  "))
        return "\n".join(lines)


class _FieldState:
    """Eraser per-location state.

    ``accessors`` maps each thread (by ident) that has touched the
    location — and is not yet ordered before a later access by
    happens-before — to its clock value at its last access.  While the
    map holds at most the current thread the location is *exclusive*
    and the lockset is not refined (single-threaded phases need no
    locks); once two unordered threads appear, ``lockset`` refines by
    intersection on every access.
    """

    __slots__ = ("accessors", "lockset", "wrote", "last_site", "reported")

    def __init__(self) -> None:
        self.accessors: Dict[int, int] = {}
        self.lockset: Optional[FrozenSet[int]] = None
        self.wrote = False
        self.last_site: Optional[AccessSite] = None
        self.reported = False


class RaceChecker:
    """Collects lock-held sets, vector clocks, and per-field locksets.

    All note/access entry points are safe to call from any thread; the
    checker serialises its own state behind one internal mutex (held
    only for the bookkeeping, never while running user code).
    """

    def __init__(self) -> None:
        # Internal primitives are constructed directly: this module *is*
        # part of repro.concurrency, the one place REP015 allows it.
        self._mu = threading.Lock()
        self._held = threading.local()
        # Thread identity tokens.  ``threading.get_ident()`` values are
        # recycled once a thread exits, which would let a later worker
        # inherit a dead thread's clock (and silently merge their
        # accesses).  A token is handed out once per OS thread and
        # lives in thread-local storage, so it can never be reused.
        self._tid_mu = threading.Lock()
        self._tid_local = threading.local()
        self._tid_count = 0
        self._fields: Dict[Tuple[int, str], _FieldState] = {}
        self._class_names: Dict[Tuple[int, str], str] = {}
        self._lock_names: Dict[int, str] = {}
        self._clocks: Dict[int, Dict[int, int]] = {}
        self._thread_tids: Dict[threading.Thread, int] = {}
        self._pending_forks: Dict[threading.Thread, Dict[int, int]] = {}
        self.races: List[RaceReport] = []
        self._obs_races: Optional[Any] = None

    # -- observability -------------------------------------------------

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Bind the ``racecheck.races`` counter (mirrors ``attach_obs``
        everywhere else: ``None`` or metrics-off detaches)."""
        if obs is None or not obs.metrics_on:
            self._obs_races = None
            return
        self._obs_races = obs.registry.counter("racecheck.races")

    # -- thread identity -----------------------------------------------

    def _tid(self) -> int:
        """A unique, never-recycled token for the calling thread."""
        tid = getattr(self._tid_local, "value", None)
        if tid is None:
            with self._tid_mu:
                self._tid_count += 1
                tid = self._tid_count
            self._tid_local.value = tid
        result: int = tid
        return result

    # -- held-lock tracking (thread-local) -----------------------------

    def _held_list(self) -> List[Tuple[int, str]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        result: List[Tuple[int, str]] = stack
        return result

    def note_acquire(
        self, lock: object, mode: str = EXCLUSIVE_MODE, name: Optional[str] = None
    ) -> None:
        """The calling thread now holds ``lock`` in ``mode``."""
        if mode not in _MODES:
            raise ValueError(f"unknown lock mode {mode!r}")
        lid = id(lock)
        if lid not in self._lock_names:
            label = name if name is not None else type(lock).__name__
            self._lock_names[lid] = f"{label}@{lid:#x}"
        self._held_list().append((lid, mode))

    def note_release(self, lock: object) -> None:
        """The calling thread released ``lock`` (latest matching hold)."""
        stack = self._held_list()
        lid = id(lock)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == lid:
                del stack[i]
                return
        # A release this thread never acquired: tolerated (locks may be
        # handed across threads by user code); nothing to unwind.

    def held_locks(self) -> List[str]:
        """Names of locks the calling thread currently holds (debugging)."""
        return [self._lock_names[lid] for lid, _mode in self._held_list()]

    # -- vector clocks (fork/join happens-before) ----------------------

    def _ensure_clock(self, tid: int) -> Dict[int, int]:
        vc = self._clocks.get(tid)
        if vc is None:
            vc = {tid: 1}
            current = threading.current_thread()
            snapshot = self._pending_forks.pop(current, None)
            if snapshot is not None:
                for other, clk in snapshot.items():
                    if vc.get(other, 0) < clk:
                        vc[other] = clk
            self._thread_tids[current] = tid
            self._clocks[tid] = vc
        return vc

    def note_fork(self, thread: threading.Thread) -> None:
        """Parent is about to ``thread.start()``: everything the parent
        did so far happens-before everything ``thread`` will do."""
        parent = self._tid()
        with self._mu:
            vc = self._ensure_clock(parent)
            self._pending_forks[thread] = dict(vc)
            vc[parent] = vc.get(parent, 0) + 1

    def note_join(self, thread: threading.Thread) -> None:
        """Parent returned from ``thread.join()``: everything ``thread``
        did happens-before everything the parent does next."""
        parent = self._tid()
        with self._mu:
            self._pending_forks.pop(thread, None)
            child_tid = self._thread_tids.pop(thread, None)
            if child_tid is None:
                return  # the child never touched the checker
            child_vc = self._clocks.get(child_tid, {})
            vc = self._ensure_clock(parent)
            for other, clk in child_vc.items():
                if vc.get(other, 0) < clk:
                    vc[other] = clk
            vc[parent] = vc.get(parent, 0) + 1

    # -- the Eraser state machine --------------------------------------

    def access(self, obj: object, field: str, write: bool) -> None:
        """Record one read/write of ``obj.field`` by the calling thread."""
        tid = self._tid()
        held = self._held_list()
        site = _cheap_site(write)
        with self._mu:
            vc = self._ensure_clock(tid)
            key = (id(obj), field)
            state = self._fields.get(key)
            if state is None:
                state = _FieldState()
                self._fields[key] = state
                self._class_names[key] = type(obj).__name__
            # Happens-before pruning: accessors ordered before this
            # access can never race with it.
            for other, clk in list(state.accessors.items()):
                if other != tid and vc.get(other, 0) >= clk:
                    del state.accessors[other]
            own = not state.accessors or set(state.accessors) == {tid}
            if own:
                if tid not in state.accessors:
                    # Fresh exclusive epoch (virgin, or every earlier
                    # accessor is HB-ordered before us): restart.
                    state.wrote = write
                    state.lockset = None
                else:
                    state.wrote = state.wrote or write
            else:
                # Genuinely shared: refine the candidate lockset.  A
                # write is only protected by write/exclusive holds; a
                # read by any hold.
                if write:
                    effective = frozenset(
                        lid for lid, mode in held if mode != READ_MODE
                    )
                else:
                    effective = frozenset(lid for lid, _mode in held)
                state.wrote = state.wrote or write
                state.lockset = (
                    effective
                    if state.lockset is None
                    else state.lockset & effective
                )
                if state.wrote and not state.lockset and not state.reported:
                    state.reported = True
                    # Full stack only here: the racing access is live,
                    # so the expensive capture runs once per report.
                    self._report(key, state, field, _capture_site(write))
            state.accessors[tid] = vc[tid]
            state.last_site = site

    def _report(
        self,
        key: Tuple[int, str],
        state: _FieldState,
        field: str,
        site: AccessSite,
    ) -> None:
        report = RaceReport(
            class_name=self._class_names.get(key, "<object>"),
            field=field,
            lockset=(),
            current=site,
            prior=state.last_site,
        )
        self.races.append(report)
        if self._obs_races is not None:
            self._obs_races.inc()

    # -- reporting -----------------------------------------------------

    @property
    def race_count(self) -> int:
        return len(self.races)

    def report(self) -> str:
        """All collected races rendered as linter-style diagnostics."""
        if not self.races:
            return "racecheck: no data races detected"
        return "\n".join(race.render() for race in self.races)

    def assert_no_races(self) -> None:
        """Raise ``RuntimeError`` with the full report if races exist."""
        if self.races:
            raise RuntimeError(self.report())

    def reset(self) -> None:
        """Forget all state (between independent test phases)."""
        with self._mu:
            self._fields.clear()
            self._class_names.clear()
            self._clocks.clear()
            self._thread_tids.clear()
            self._pending_forks.clear()
            self.races.clear()


class TrackedLock:
    """A mutex whose acquire/release notify the *active* checker.

    Constructed by :func:`repro.concurrency.primitives.make_lock` when
    race checking is (or may become) enabled; behaves exactly like the
    wrapped lock otherwise.  The checker is looked up at call time so a
    lock built before :func:`activate` is still tracked afterwards.
    """

    __slots__ = ("_inner",)

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = bool(self._inner.acquire(blocking, timeout))
        if ok:
            checker = ACTIVE
            if checker is not None:
                checker.note_acquire(self, EXCLUSIVE_MODE)
        return ok

    def release(self) -> None:
        checker = ACTIVE
        if checker is not None:
            checker.note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


#: The process-wide checker, or ``None`` when detection is off.  Read
#: directly on hot paths (one module-attribute load + ``None`` check).
ACTIVE: Optional[RaceChecker] = None

_ENV_FLAG = "REPRO_RACECHECK"


def env_enabled() -> bool:
    """True when ``REPRO_RACECHECK`` requests detection."""
    return os.environ.get(_ENV_FLAG, "") not in ("", "0")


def activate(checker: Optional[RaceChecker] = None) -> RaceChecker:
    """Install (and return) the process-wide checker."""
    global ACTIVE
    ACTIVE = checker if checker is not None else RaceChecker()
    return ACTIVE


def deactivate() -> None:
    """Disable detection (instrumented sites return to the no-op path)."""
    global ACTIVE
    ACTIVE = None


def active() -> Optional[RaceChecker]:
    """The installed checker, if any."""
    return ACTIVE


def from_env() -> Optional[RaceChecker]:
    """Activate from ``REPRO_RACECHECK`` if requested; return the
    active checker either way (``None`` when detection stays off)."""
    if ACTIVE is None and env_enabled():
        return activate()
    return ACTIVE
