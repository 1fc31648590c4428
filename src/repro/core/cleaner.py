"""The garbage cleaner of the memo-based update approach (Section 3.3).

Obsolete entries are removed *lazily and in batches* by cleaning tokens:
logical tokens that traverse the circular ring of leaves.  Every
``inspection_interval`` updates each token inspects the leaf it sits on,
has the obsolete entries found there deleted and the structure repaired
(on the RUM-tree: the ancestors' MBRs adjusted, or the survivors
reinserted if the leaf underflows, Figure 8), and moves to the next leaf
in the ring.

This module owns the *policy* — step credit, round-robin tokens, cycle
accounting, phantom inspection and its guards — once, for every index
type that is updated through an Update Memo.  The *mechanism* — which
positions form the ring and what inspecting one of them means — belongs
to the host: :class:`MemoHost` declares that contract and carries what
the hosts (the RUM-tree and its B+-tree, quadtree and grid transplants)
do identically off their update paths.

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
"""

from __future__ import annotations

import time
from operator import add, sub
from typing import (
    TYPE_CHECKING,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs.metrics import UNPUBLISHED, republish
from repro.storage.iostats import IO_FIELDS, IOStats, io_counters

from .memo import UpdateMemo
from .stamp import StampCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Whatever names one leaf of the ring to its host (a page id, a cell
#: number, a node object); the cleaner only stores, compares and returns it.
Position = Hashable


#: A zero I/O delta in flight-recorder field order.
_NO_IO = (0,) * len(IO_FIELDS)

#: Completed cycles a stamp sample ages before the purge uses it (the
#: paper's rule: one).
PHANTOM_LAG_CYCLES = 1


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

    def __init__(self, position: Position, min_cycle_steps: int = 1):
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
        #: while observability is attached.  Cycle records thus carry
        #: the cleaning cost alone, not the interleaved update stream's.
        self.cycle_io = _NO_IO


class GarbageCleaner:
    """Token-based lazy batch deletion of obsolete entries.

    Parameters
    ----------
    host:
        The index being cleaned (see :class:`MemoHost`).
    n_tokens:
        Number of cleaning tokens working in parallel (Figure 7).
    inspection_ratio:
        ``ir`` — leaf nodes inspected per processed update, in aggregate
        over all tokens (each token's interval is ``n_tokens / ir``).
        It gates the per-update credit only: at 0 nothing is ever
        inspected on behalf of an update, and :meth:`run_full_cycle`
        still cleans.
    phantom_inspection:
        Enable periodic purging of phantom memo entries.
    """

    def __init__(
        self,
        host: "MemoHost",
        n_tokens: int = 1,
        inspection_ratio: float = 0.2,
        phantom_inspection: bool = True,
    ):
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        if inspection_ratio < 0:
            raise ValueError("inspection_ratio must be non-negative")
        self.host = host
        self.n_tokens = n_tokens
        self.inspection_ratio = inspection_ratio if n_tokens > 0 else 0.0
        self.phantom_inspection = phantom_inspection
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
        self._obs_published = UNPUBLISHED
        self.attach_obs(None)

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Publish the token steps, entries cleaned and cycles completed
        as counters, bind the wall-clock cycle-duration histogram; per-step
        events at the ``debug`` level, one ``cleaner.cycle`` event per
        completed ring pass, and one ``cleaner_cycle`` flight-recorder
        record (at ``trace`` also a ``span`` event) carrying the cycle's
        own accumulated step I/O."""
        self._obs = obs
        self._obs_published = republish(self._obs_published, obs, {
            "cleaner.token_steps": lambda: self.leaves_inspected,
            "cleaner.entries_removed": lambda: self.entries_removed,
            "cleaner.cycles": lambda: self.cycles_completed,
        }, {
            "cleaner.tokens": lambda: len(self.tokens),
            "cleaner.updates_seen": lambda: self.updates_seen,
        })
        self._obs_cycle_ms = None if obs is None else obs.registry.histogram(
            "cleaner.cycle_ms",
            (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0),
        )

    def note_removed(self, n: int) -> None:
        """Count ``n`` obsolete entries removed from the index — by a
        token step or by clean-upon-touch (Section 3.3.3).  The one
        counting point of ``entries_removed``."""
        self.entries_removed += n

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
        batch scope of the host's storage the steps' page writes then
        coalesce with the batch's own writeback.
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
        ring = self.host.leaf_ring()
        for k in range(self.n_tokens):
            start = ring[(k * len(ring)) // self.n_tokens]
            token = CleaningToken(start, min_cycle_steps=len(ring))
            if self.phantom_inspection and k == 0:
                token.pending_markers.append(self.host.stamps.current)
            self.tokens.append(token)

    # ------------------------------------------------------------------

    def _step(self, token: CleaningToken) -> None:
        """Clean the token's current leaf and pass the token on (Figure 8)."""
        host = self.host
        obs = self._obs
        if obs is not None:
            io_before = io_counters(host.stats)
        position = token.position
        token.position, removed = host.clean_at(position)
        token.steps_in_cycle += 1
        self.leaves_inspected += 1
        self.note_removed(removed)
        if obs is not None:
            if obs.debug:
                obs.event(
                    "cleaner.step",
                    page=position,
                    removed=removed,
                    step=token.steps_in_cycle,
                )
            step_io = map(sub, io_counters(host.stats), io_before)
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
        token.min_cycle_steps = max(1, len(self.host.leaf_ring()))
        tainted = token.tainted
        token.tainted = False
        if self._obs is not None:
            now = time.perf_counter()
            cycle_ms = (now - token.cycle_started_at) * 1000.0
            token.cycle_started_at = now
            self._obs_cycle_ms.observe(cycle_ms)
            self._obs.record(
                "cleaner_cycle", self.host.name, cycle_ms / 1000.0,
                token.cycle_io,
            )
            token.cycle_io = _NO_IO
            self._obs.event(
                "cleaner.cycle",
                token=self.tokens.index(token),
                steps=cycle_steps,
                dur_ms=cycle_ms,
                tainted=tainted,
                entries_removed_total=self.entries_removed,
                memo_entries=len(self.host.memo),
            )
        if not self.phantom_inspection or token is not self.tokens[0]:
            return  # only token 0 carries stamp markers
        if tainted:
            # The cycle-start page was dissolved mid-cycle; the re-homed
            # boundary leaf may not have been visited, so Lemma 1 does not
            # apply to the pending samples.  Restart the marker pipeline —
            # purging is merely delayed by one clean cycle.
            token.pending_markers = [self.host.stamps.current]
            return
        token.pending_markers.append(self.host.stamps.current)
        if len(token.pending_markers) > PHANTOM_LAG_CYCLES:
            marker = token.pending_markers.pop(0)
            shielded = self._purge_shield_current | self._purge_shield_previous
            purged = self.host.memo.purge_phantoms(marker, exclude=shielded)
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

    # ------------------------------------------------------------------

    def on_leaf_dissolved(
        self, position: Position, successor: Position, predecessor: Position
    ) -> None:
        """A leaf left the ring: re-home any token state referring to it.

        A token's *position* moves forward (the successor is what it must
        visit next), but a *cycle start* moves backward to the predecessor:
        moving it forward could place it exactly where the token stands and
        complete the cycle after a single step, which would both starve the
        cleaning sweep and fire phantom inspection far too early.
        """
        for token in self.tokens:
            if token.position == position:
                token.position = successor
            if token.cycle_start == position:
                token.cycle_start = (
                    predecessor if predecessor != position else successor
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
        token.min_cycle_steps = max(1, len(self.host.leaf_ring()))
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
        cycle (called by the host when a split relocates one of its
        obsolete entries; see ``RUMTree._on_leaf_split``)."""
        self._purge_shield_current.add(oid)

    def reset(self) -> None:
        """Drop all token state (crash simulation: tokens are volatile)."""
        self.tokens.clear()
        self.updates_seen = 0
        self._step_credit = 0.0
        self._next_token = 0
        self._purge_shield_current = set()
        self._purge_shield_previous = set()


class MemoHost:
    """An index updated through an Update Memo: what the cleaner asks of
    it, and what every such index does identically off its update path.

    **The host contract.**  :class:`GarbageCleaner` reaches its host
    through four attributes — ``memo`` and ``stamps`` (wired by
    :meth:`_wire_memo`), ``stats`` (the host's I/O counters) and ``name``
    — and two methods:

    ``leaf_ring()``
        The positions of the leaf ring, in ring order, *without charging
        any I/O*.  Tokens are spread over it and its length is the step
        floor of a cycle.
    ``clean_at(position)``
        With the host's usual I/O accounting: read the leaf at
        ``position``, remove its obsolete entries (one
        ``memo.sweep_obsolete`` over its id columns), repair the
        structure, and return ``(next_position, removed)`` — the position
        that follows in the ring *once the repair is done*.

    In return the host reports the two structural events that can falsify
    the Lemma-1 hypothesis (``docs/PHANTOM_INSPECTION.md``): a split that
    relocates an obsolete entry calls ``cleaner.protect_from_purge(oid)``,
    and a position that leaves the ring calls
    ``cleaner.on_leaf_dissolved(position, successor, predecessor)``.

    The metrics below additionally read ``_stored_ids()``: the
    ``(oid, stamp)`` of every stored entry, uncounted.
    """

    name: str
    stats: IOStats
    memo: UpdateMemo
    stamps: StampCounter
    cleaner: GarbageCleaner
    clean_upon_touch: bool

    def _wire_memo(
        self,
        inspection_ratio: float,
        clean_upon_touch: bool,
        memo: Optional[UpdateMemo] = None,
        stamp_counter: Optional[StampCounter] = None,
        **cleaner_options,
    ) -> None:
        """Give the index its Update Memo, stamp counter and cleaner."""
        # An injected memo (e.g. one standing on a run tier, or a reopened
        # instance during crash recovery) replaces the default all-RAM
        # table; every memo touch goes through self.memo, so the index is
        # agnostic to which tier answers.
        self.memo = memo if memo is not None else UpdateMemo()
        # An injected stamp counter lets several trees draw from one
        # totally-ordered stamp stream — the sharded serving layer's
        # cross-shard ordering rule (docs/SHARDING.md) depends on every
        # shard's stamps being globally comparable.  Each tree's own
        # stream stays strictly monotone either way (the counter is a
        # thread-safe monotone source), which is all Lemma 1 needs.
        self.stamps = (
            stamp_counter if stamp_counter is not None else StampCounter()
        )
        self.clean_upon_touch = clean_upon_touch
        self.cleaner = GarbageCleaner(
            self, inspection_ratio=inspection_ratio, **cleaner_options
        )

    def leaf_ring(self) -> List[Position]:
        raise NotImplementedError

    def clean_at(self, position: Position) -> Tuple[Position, int]:
        raise NotImplementedError

    def _stored_ids(self) -> Iterator[Tuple[int, int]]:
        raise NotImplementedError

    # -- memo-only deletion (Figure 5) ---------------------------------

    def delete_object(self, oid: int, old: object = None) -> None:
        """MemoBasedDelete: a deletion never touches the structure — it
        only bumps the memo, so every stored entry of ``oid`` becomes
        obsolete and is garbage-collected later.  ``old`` (the old key or
        position a classic delete needs) is ignored."""
        self.memo.record_update(oid, self.stamps.next())
        self._after_update()

    def _after_update(self) -> None:
        self.cleaner.on_update()

    # -- the Figure-3b filter, over the id columns a host holds --------

    def _latest(self, rows: List[tuple]) -> List[tuple]:
        """Queries report latest entries only: those of ``rows`` (stored
        entries, each ending ``oid, stamp``) that pass CheckStatus."""
        kept = self.memo.filter_latest(
            [row[-2] for row in rows], [row[-1] for row in rows]
        )
        return [rows[pos] for pos in kept]

    def _shield_obsolete(
        self, oids: Sequence[int], stamps: Sequence[int]
    ) -> None:
        """A split moved these entries to another ring position, possibly
        behind a token that has passed (Race 1 of
        docs/PHANTOM_INSPECTION.md): shield what is obsolete among them
        from the next phantom purge."""
        latest = set(self.memo.filter_latest(oids, stamps))
        for pos, oid in enumerate(oids):
            if pos not in latest:
                self.cleaner.protect_from_purge(oid)

    # -- metrics (garbage ratio, memo size) ----------------------------

    def garbage_count(self) -> int:
        """Exact number of obsolete entries currently stored."""
        ids = list(self._stored_ids())
        latest = self.memo.filter_latest(
            [oid for oid, _stamp in ids], [stamp for _oid, stamp in ids]
        )
        return len(ids) - len(latest)

    def garbage_ratio(self, num_objects: int) -> float:
        """Obsolete entries over indexed objects (Section 3.3.1)."""
        if num_objects <= 0:
            return 0.0
        return self.garbage_count() / num_objects

    def memo_size_bytes(self) -> int:
        return self.memo.size_bytes()
