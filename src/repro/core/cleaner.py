"""The RUM-tree garbage cleaner (Section 3.3).

Obsolete entries are removed *lazily and in batches* by cleaning tokens:
logical tokens that traverse the circular doubly-linked ring of leaf nodes.
Every ``inspection_interval`` updates each token inspects the leaf it sits
on, deletes the obsolete entries found there, adjusts the ancestors'
MBRs (or reinserts the survivors if the leaf underflows, Figure 8), and
moves to the next leaf in the ring.

With ``m`` tokens of interval ``I`` the *inspection ratio* — leaf nodes
inspected per processed update — is ``ir = m / I`` (Equation 1), the knob
swept in Figure 10.  The cleaner is configured by ``ir`` directly and
realises fractional ratios exactly by accumulating step credit across
updates, stepping its tokens round-robin.

The cleaner also drives **phantom inspection** (Section 3.3.2): the stamp
counter is sampled when a designated token starts a ring cycle, and after
the token completes the cycle every memo entry whose ``S_latest`` precedes
the sample can only be a phantom (Lemma 1) and is purged.  Three guards
keep the purge sound under structural churn: oids whose obsolete entries
were relocated by a leaf split are shielded from the purge for one extra
cycle (``protect_from_purge``); a cycle only counts as complete after the
token has taken at least as many steps as the ring had leaves when the
cycle started; and a cycle whose start page was dissolved mid-cycle is
*tainted* — its completion restarts the marker pipeline instead of
purging, because the re-homed boundary leaf may not have been visited.
``phantom_lag_cycles`` can hold each sample for extra cycles as
additional safety margin.
"""

from __future__ import annotations

import time
from operator import add, sub
from typing import TYPE_CHECKING, List, Optional, Set

from repro.storage.iostats import IO_FIELDS, io_counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability

    from .rum import RUMTree


#: A zero I/O delta in flight-recorder field order.
_NO_IO = (0,) * len(IO_FIELDS)


class CleaningToken:
    """State of one cleaning token walking the leaf ring."""

    __slots__ = (
        "position",
        "cycle_start",
        "pending_markers",
        "steps_in_cycle",
        "min_cycle_steps",
        "tainted",
        "cycle_started_at",
        "cycle_io",
    )

    def __init__(self, position: int, min_cycle_steps: int = 1):
        self.position = position
        self.cycle_start = position
        #: Stamp-counter samples awaiting cycle completions (newest last).
        self.pending_markers: List[int] = []
        #: Set when the cycle-start page is dissolved mid-cycle: the
        #: re-homed boundary leaf is not guaranteed to have been visited,
        #: so a tainted cycle must not drive a phantom purge.
        self.tainted = False
        #: Steps taken since the cycle started and the leaf count observed
        #: at that moment.  A cycle only completes once the token both
        #: returns to its start *and* has taken at least that many steps;
        #: without the step floor, a condensation that re-homes the start
        #: page next to the token would complete a "cycle" after a couple
        #: of steps and fire phantom inspection unsoundly.
        self.steps_in_cycle = 0
        self.min_cycle_steps = max(1, min_cycle_steps)
        #: Wall-clock start of the current ring cycle (telemetry only;
        #: wall time is the meaningful unit because token steps are
        #: interleaved with the update stream that drives them).
        self.cycle_started_at = time.perf_counter()
        #: I/O charged by this token's steps in the current cycle (the
        #: flight recorder's ``IO_FIELDS``), accumulated per step only
        #: while a flight recorder is attached.  Cycle records thus carry
        #: the cleaning cost alone, not the interleaved update stream's.
        self.cycle_io = _NO_IO


class GarbageCleaner:
    """Token-based lazy batch deletion of obsolete entries.

    Parameters
    ----------
    tree:
        The owning RUM-tree.
    n_tokens:
        Number of cleaning tokens working in parallel (Figure 7).
    inspection_ratio:
        ``ir`` — leaf nodes inspected per processed update, in aggregate
        over all tokens (each token's interval is ``n_tokens / ir``).
    phantom_inspection:
        Enable periodic purging of phantom memo entries.
    phantom_lag_cycles:
        How many completed cycles a stamp sample must age before the purge
        uses it (1 = the paper's rule; see module docstring).
    """

    def __init__(
        self,
        tree: "RUMTree",
        n_tokens: int = 1,
        inspection_ratio: float = 0.2,
        phantom_inspection: bool = True,
        phantom_lag_cycles: int = 1,
    ):
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        if inspection_ratio < 0:
            raise ValueError("inspection_ratio must be non-negative")
        if phantom_lag_cycles < 1:
            raise ValueError("phantom_lag_cycles must be at least 1")
        self.tree = tree
        self.n_tokens = n_tokens if inspection_ratio > 0 else 0
        self.inspection_ratio = inspection_ratio if n_tokens > 0 else 0.0
        self.phantom_inspection = phantom_inspection
        self.phantom_lag_cycles = phantom_lag_cycles
        self.tokens: List[CleaningToken] = []
        self._step_credit = 0.0
        self._next_token = 0
        # Oids whose obsolete entries were relocated by a leaf split and
        # may therefore sit behind a token: shielded from phantom purging
        # until a further full cycle has passed over them.
        self._purge_shield_current: Set[int] = set()
        self._purge_shield_previous: Set[int] = set()
        self.updates_seen = 0
        self.leaves_inspected = 0
        self.entries_removed = 0
        self.phantoms_purged = 0
        self.cycles_completed = 0
        self._obs = None
        self._obs_steps = None
        self._obs_removed = None
        self._obs_cycles = None
        self._obs_cycle_ms = None
        self._obs_recorder = None

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Bind telemetry: token steps, entries cleaned, cycle counts and
        wall-clock cycle durations; per-step events at the ``debug``
        level, one ``cleaner.cycle`` event per completed ring pass, and
        one ``cleaner_cycle`` flight-recorder record carrying the cycle's
        own accumulated step I/O."""
        if obs is None or not obs.enabled:
            self._obs = None
            self._obs_steps = self._obs_removed = None
            self._obs_cycles = self._obs_cycle_ms = None
            self._obs_recorder = None
            return
        self._obs = obs
        self._obs_recorder = obs.recorder
        if obs.metrics_on:
            reg = obs.registry
            self._obs_steps = reg.counter("cleaner.token_steps")
            self._obs_removed = reg.counter("cleaner.entries_removed")
            self._obs_cycles = reg.counter("cleaner.cycles")
            self._obs_cycle_ms = reg.histogram(
                "cleaner.cycle_ms",
                (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0),
            )
            reg.gauge("cleaner.tokens").set_function(
                lambda: len(self.tokens)
            )
            reg.gauge("cleaner.updates_seen").set_function(
                lambda: self.updates_seen
            )

    # ------------------------------------------------------------------

    @property
    def inspection_interval(self) -> float:
        """``I`` — updates between two steps of the same token, derived
        from the inspection ratio (Equation 1: ``ir = m / I``)."""
        if self.inspection_ratio <= 0:
            return float("inf")
        return self.n_tokens / self.inspection_ratio

    def on_update(self) -> None:
        """Called by the tree once per processed insert/update/delete.

        Fractional inspection ratios are realised exactly by accumulating
        step credit: ``ir`` leaf inspections are performed per update on
        average, rotating through the tokens round-robin.
        """
        self.on_batch(1)

    def on_batch(self, n_updates: int) -> None:
        """Account ``n_updates`` processed updates in one call.

        Equivalent to ``n_updates`` calls of :meth:`on_update` — the same
        step credit accrues (to within one float rounding: one multiply
        here vs ``n`` additions there) and the same token steps run — but
        the bookkeeping is paid once and the steps execute back to back
        at the end of the batch instead of interleaved with it.  Inside a
        buffer batch scope the steps' page writes then coalesce with the
        batch's own writeback.
        """
        if self.n_tokens == 0 or self.inspection_ratio <= 0 or n_updates <= 0:
            return
        self.updates_seen += n_updates
        self._step_credit += self.inspection_ratio * n_updates
        while self._step_credit >= 1.0:
            self._step_credit -= 1.0
            if not self.tokens:
                self._spawn_tokens()
            token = self.tokens[self._next_token % len(self.tokens)]
            self._next_token += 1
            self._step(token)

    def _spawn_tokens(self) -> None:
        """Place the tokens on the ring, spread as evenly as it allows."""
        ring = self._ring_pages()
        for k in range(self.n_tokens):
            start = ring[(k * len(ring)) // self.n_tokens]
            token = CleaningToken(start, min_cycle_steps=len(ring))
            if self.phantom_inspection and k == 0:
                token.pending_markers.append(self.tree.stamps.current)
            self.tokens.append(token)

    def _ring_pages(self) -> List[int]:
        """Current leaf ring as a page-id list (no I/O charged: the walk
        uses the tree's uncounted introspection path)."""
        first = next(self.tree.iter_leaf_nodes()).page_id
        pages = [first]
        node = self.tree.buffer.peek_node(first)
        while node.next_leaf != first:
            pages.append(node.next_leaf)
            node = self.tree.buffer.peek_node(node.next_leaf)
        return pages

    # ------------------------------------------------------------------

    def _step(self, token: CleaningToken) -> None:
        """Clean the token's current leaf and pass the token on (Figure 8)."""
        tree = self.tree
        rec = self._obs_recorder
        if rec is not None:
            io_before = io_counters(tree.stats)
        with tree.buffer.operation():
            leaf = tree.buffer.get_node(token.position)
            # Advance before mutating the tree: if the cleaning dissolves
            # the successor leaf, the dissolution hook re-homes the token.
            token.position = leaf.next_leaf
            token.steps_in_cycle += 1
            removed = tree.clean_leaf(leaf)
            self.leaves_inspected += 1
            self.entries_removed += removed
            if self._obs_steps is not None:
                self._obs_steps.inc()
                if removed:
                    self._obs_removed.inc(removed)
            if self._obs is not None and self._obs.debug:
                self._obs.event(
                    "cleaner.step",
                    page=leaf.page_id,
                    removed=removed,
                    step=token.steps_in_cycle,
                )
            if removed:
                if (
                    len(leaf) < tree.min_leaf
                    and leaf.page_id != tree.root_id
                ):
                    # Underflow: dissolve the leaf and reinsert the
                    # survivors (step 2 of Figure 8).  The dissolution hook
                    # re-homes any token parked on this page.
                    tree._condense(leaf)
                else:
                    tree._adjust_upward(leaf)
        if rec is not None:
            step_io = map(sub, io_counters(tree.stats), io_before)
            token.cycle_io = tuple(map(add, token.cycle_io, step_io))
        self._check_cycle(token)

    def _check_cycle(self, token: CleaningToken) -> None:
        if (
            token.position != token.cycle_start
            or token.steps_in_cycle < token.min_cycle_steps
        ):
            return
        self.cycles_completed += 1
        cycle_steps = token.steps_in_cycle
        token.steps_in_cycle = 0
        token.min_cycle_steps = max(1, self.tree.num_leaf_nodes())
        tainted = token.tainted
        token.tainted = False
        if self._obs is not None:
            now = time.perf_counter()
            cycle_ms = (now - token.cycle_started_at) * 1000.0
            token.cycle_started_at = now
            if self._obs_cycles is not None:
                self._obs_cycles.inc()
                self._obs_cycle_ms.observe(cycle_ms)
            if self._obs_recorder is not None:
                self._obs_recorder.record(
                    "cleaner_cycle",
                    self.tree.name,
                    cycle_ms / 1000.0,
                    token.cycle_io,
                    0,
                    0,
                    "-",
                )
                token.cycle_io = _NO_IO
            self._obs.event(
                "cleaner.cycle",
                token=self.tokens.index(token),
                steps=cycle_steps,
                dur_ms=cycle_ms,
                tainted=tainted,
                entries_removed_total=self.entries_removed,
                memo_entries=len(self.tree.memo),
            )
        if not self.phantom_inspection or token is not self._marker_token():
            return
        if tainted:
            # The cycle-start page was dissolved mid-cycle; the re-homed
            # boundary leaf may not have been visited, so Lemma 1 does not
            # apply to the pending samples.  Restart the marker pipeline —
            # purging is merely delayed by one clean cycle.
            token.pending_markers = [self.tree.stamps.current]
            return
        token.pending_markers.append(self.tree.stamps.current)
        if len(token.pending_markers) > self.phantom_lag_cycles:
            marker = token.pending_markers.pop(0)
            shielded = self._purge_shield_current | self._purge_shield_previous
            purged = self.tree.memo.purge_phantoms(marker, exclude=shielded)
            self.phantoms_purged += purged
            if self._obs is not None and purged:
                self._obs.event(
                    "cleaner.phantom_purge",
                    marker=marker,
                    purged=purged,
                    shielded=len(shielded),
                )
        # Entries relocated during the completed cycle get swept by the
        # next one; rotating the shields retires them after that.
        self._purge_shield_previous = self._purge_shield_current
        self._purge_shield_current = set()

    def _marker_token(self) -> Optional[CleaningToken]:
        return self.tokens[0] if self.tokens else None

    # ------------------------------------------------------------------

    def on_leaf_dissolved(
        self, page_id: int, successor: int, predecessor: int
    ) -> None:
        """A leaf left the ring: re-home any token state referring to it.

        A token's *position* moves forward (the successor is what it must
        visit next), but a *cycle start* moves backward to the predecessor:
        moving it forward could place it exactly where the token stands and
        complete the cycle after a single step, which would both starve the
        cleaning sweep and fire phantom inspection far too early.
        """
        for token in self.tokens:
            if token.position == page_id:
                token.position = successor
            if token.cycle_start == page_id:
                token.cycle_start = (
                    predecessor if predecessor != page_id else successor
                )
                token.tainted = True

    def run_full_cycle(self) -> int:
        """Force a complete ring pass of token 0 *now* (tests and the
        recovery experiments use this to realise Property 1
        deterministically).  Returns the number of entries removed."""
        if not self.tokens:
            self._spawn_tokens()
        if not self.tokens:
            return 0
        token = self.tokens[0]
        removed_before = self.entries_removed
        token.cycle_start = token.position
        token.steps_in_cycle = 0
        token.min_cycle_steps = max(1, self.tree.num_leaf_nodes())
        completed = self.cycles_completed
        # The ring may shrink or grow while we walk; the guard bounds the
        # walk without affecting the completion condition.
        guard = token.min_cycle_steps * 4 + 16
        for _ in range(guard):
            self._step(token)
            if self.cycles_completed > completed:
                break
        return self.entries_removed - removed_before

    def protect_from_purge(self, oid: int) -> None:
        """Shield ``oid`` from phantom purging for at least one full
        cycle (called when a split relocates one of its obsolete
        entries; see ``RUMTree._on_leaf_split``)."""
        self._purge_shield_current.add(oid)

    def reset(self) -> None:
        """Drop all token state (crash simulation: tokens are volatile)."""
        self.tokens.clear()
        self.updates_seen = 0
        self._step_credit = 0.0
        self._next_token = 0
        self._purge_shield_current = set()
        self._purge_shield_previous = set()
