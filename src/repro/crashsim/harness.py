"""Crash–recover–verify harness for the RUM-tree's durability story.

The paper's crash model (Section 3.4) is asymmetric: the tree pages on
disk survive a crash, while the Update Memo, the stamp counter, and any
unforced log tail die with the process.  This harness turns that model
into an executable contract.  One :func:`run_scenario` call

1. builds a RUM-tree over a :class:`FileDiskManager` (wrapped in a
   :class:`~repro.storage.faults.FaultyDisk`) and, for recovery Options
   II/III, a :class:`~repro.storage.wal.WriteAheadLog`, all sharing one
   :class:`~repro.storage.faults.FaultInjector` — with the scenario's
   ``tier``, its memo stands on a run tier of :data:`SPILL_BUDGET` bytes
   of RAM, so run flushes, compactions and manifest swaps happen while
   every other fault fires;
2. loads an object population, then drives a scripted workload of
   updates and deletes, each followed by a full-window range query (a
   write's pages go out when it ends, so the query is what reads them
   back), durability ticks (``buffer.checkpoint()``) and UM
   checkpoints, with the injector armed at one occurrence of one
   registered fault point;
3. when the fault fires, either verifies that the damage it left is
   *detected*, or truncates the log to its durable prefix, reopens the
   store, runs the scenario's recovery option and checks every
   consistency property the paper promises — structural invariants,
   stamp-counter monotonicity, memo/leaf agreement, and the recovered
   live set, including the documented lost-delete semantics of Options
   I and II.

The matrix
----------

:func:`derive_scenarios` lists no fault point by hand.  Per recovery
option, with the tier off and on, it runs the script once unarmed
(:func:`discover`) and takes every fault-point occurrence counted after
the load phase, crossed with every mode the point supports
(:data:`~repro.storage.faults.FAULT_POINTS`), plus the clean shutdown.
A change that moves a fault site moves the matrix with it.

Verdicts
--------

Every scenario ends in one of :data:`OUTCOMES`:

* ``recovered`` — the clean shutdown, or a crash: a crash-mode fault, or
  a torn memo-run write (its file is never named, and the reopen sweeps
  it).  The full recovery oracle holds.  The tree pages follow the
  paper's stable-buffer assumption: after the crash the harness
  completes the outstanding tree-page writes before reopening, which
  also proves the write path is exception-safe mid-flush.
* ``landed`` / ``lost`` — a torn page write whose image is the whole new
  / old page: a write that landed, or was lost, before the crash.  The
  full oracle holds.
* ``healed`` — silent corruption that a later write of the same
  operation replaced (the page rewritten, the manifest rewritten by a
  second spill) before anything read it.  The full oracle holds.
* ``detected`` — damage still in place is found: a read of the workload
  raised :class:`~repro.storage.codec.PageChecksumError` or
  :class:`~repro.core.memo_lsm.MemoCorruptionError`, or, inspected
  exactly as the fault left it, the page fails its crc32 and refuses to
  decode, or the memo tier refuses to reopen.  There is no repairing
  that without page-level redo; the guarantee is that it never passes
  for data.

Oracle
------

The workload runs with the tree's default cleaner (inspection ratio
0.2, clean-upon-touch on), so obsolete entries come and go; the oracle
pins what cleaning cannot change:

* Every *live* object (never deleted) is recovered at exactly its last
  committed position, under every option — its newest entry is never
  obsolete, so no cleaner removes it.
* Option I — completed deletes are lost: a memo-based delete leaves no
  trace, so a deleted object resurrects at whichever of its committed
  positions still has a physical entry (cleaning and insertion-path
  garbage drops may have removed some, or all, of its obsolete entries
  — in the latter case the object happens to stay deleted).
* Option II — deletes recorded in the last *durable* checkpoint stay
  deleted, exactly; later deletes are lost as under Option I.
* Option III — every completed delete is durable (its memo record was
  force-flushed before the operation returned), so the recovered live
  set is exact.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.memo_lsm import (
    MANIFEST_TMP_FILE,
    RUN_SUFFIX,
    MemoCorruptionError,
    SpillingUpdateMemo,
)
from repro.core.recovery import RECOVERY_PROCEDURES
from repro.core.rum import RUMTree
from repro.core.memo import LATEST
from repro.lint.invariants import InvariantViolation, check_tree
from repro.rtree.geometry import Rect
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec, PageChecksumError
from repro.storage.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultyDisk,
    SimulatedCrash,
)
from repro.storage.filedisk import FileDiskManager, META_TMP_FILE
from repro.storage.iostats import IOStats
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: The whole unit square — every workload position lies inside it, so a
#: search with this window returns the complete live set.
FULL_WINDOW = Rect(0.0, 0.0, 1.0, 1.0)

#: RAM budget (bytes) of the tiered memo: small enough that the script
#: spills, folds and swaps manifests many times.
SPILL_BUDGET = 256

#: What a scenario can end in (see the module docstring).
OUTCOMES = ("recovered", "landed", "lost", "healed", "detected")

_ABSENT = object()  # sentinel: "object not in the live set"


class CrashSimError(AssertionError):
    """A durability guarantee was violated in a crash scenario."""


@dataclass(frozen=True)
class CrashScenario:
    """One occurrence of one fault point, in one mode, under one recovery
    option, with the memo's run tier off or on.

    ``point=None`` is the baseline: the workload completes, the process
    "dies" cleanly, and recovery must still restore the option's exact
    semantics (for Options I/II that includes losing the right deletes).
    """

    option: str                  # recovery option: "I" | "II" | "III"
    point: Optional[str] = None  # fault point, None = clean shutdown
    mode: str = "crash"          # "crash" | "torn" | "corrupt"
    skip: int = 0                # fault-point hits to let pass first
    tier: bool = False           # the memo stands on a run tier

    @property
    def cell(self) -> str:
        """The matrix cell — option, tier, point and mode — that every
        occurrence of the point shares.  ``+tier`` marks the tier only
        where the point also runs without one: ``memo.*`` points fire
        only over a tier."""
        where = self.point or "clean-shutdown"
        if self.mode != "crash":
            where += f"/{self.mode}"
        marked = self.tier and not where.startswith("memo.")
        return f"option-{self.option}{'+tier' if marked else ''}@{where}"

    @property
    def name(self) -> str:
        return self.cell if self.point is None else f"{self.cell}#{self.skip}"


@dataclass
class WorkloadConfig:
    """Size and shape of the scripted crash workload."""

    node_size: int = 512
    n_objects: int = 32
    n_updates: int = 90
    delete_every: int = 9       # every k-th op is a (permanent) delete
    tick_every: int = 25        # ops between durability ticks
    checkpoint_every: int = 30  # ops between UM checkpoints (II/III)
    seed: int = 7


@dataclass
class CrashOutcome:
    """What one scenario did and which guarantees were verified."""

    scenario: CrashScenario
    crashed: bool
    kind: str                   # one of OUTCOMES
    pending: Optional[Tuple] = None   # op in flight when the crash hit
    checks: List[str] = field(default_factory=list)
    live_objects: Optional[int] = None
    #: Fault-point occurrences of the mutate phase, up to the fault.
    hits: Dict[str, int] = field(default_factory=dict)


class _WorkloadOracle:
    """Ground truth of committed operations, per recovery option."""

    def __init__(self) -> None:
        self.pos: Dict[int, Rect] = {}
        #: Every committed position per object — a deleted object whose
        #: newest entries were garbage-dropped before the crash can only
        #: resurrect at one of these.
        self.history: Dict[int, List[Rect]] = {}
        self.inserted: set = set()
        self.deleted: set = set()
        #: Deleted-object sets as of each *committed* checkpoint.
        self.ckpt_states: List[FrozenSet[int]] = []
        #: State captured just before the checkpoint currently in
        #: flight; promoted into ckpt_states when the op commits, and
        #: consulted if a crashed checkpoint still became durable
        #: (its record can cross a page boundary before the force).
        self.attempted_ckpt: Optional[FrozenSet[int]] = None

    def commit(self, op: Tuple) -> None:
        kind = op[0]
        if kind == "update":
            self.inserted.add(op[1])
            self.pos[op[1]] = op[2]
            self.history.setdefault(op[1], []).append(op[2])
        elif kind == "delete":
            self.deleted.add(op[1])
        elif kind == "checkpoint":
            self.ckpt_states.append(self.attempted_ckpt)

    def expected_states(
        self, option: str, ckpt_deleted: Optional[FrozenSet[int]]
    ) -> Dict[int, set]:
        """Allowed post-recovery state per object: a set of permitted
        positions, possibly including :data:`_ABSENT`.

        Live objects get a single exact position.  Deleted objects are
        exactly absent where the option recovers the delete (always for
        III, before the durable checkpoint for II); where the delete is
        lost, the object is absent (its entries happened to be
        garbage-dropped pre-crash) or sits at one of its committed
        positions.
        """
        states: Dict[int, set] = {}
        for oid in self.inserted:
            if oid not in self.deleted:
                states[oid] = {self.pos[oid]}
            elif option == "III" or (
                option == "II"
                and ckpt_deleted is not None
                and oid in ckpt_deleted
            ):
                states[oid] = {_ABSENT}
            else:
                # Lost delete (Option I; Option II past the checkpoint,
                # or with no durable checkpoint at all).
                states[oid] = {_ABSENT, *self.history[oid]}
        return states


# ---------------------------------------------------------------------------
# Page verification
# ---------------------------------------------------------------------------


def verify_pages(disk, codec: NodeCodec) -> List[int]:
    """Checksum-verify every allocated page; return the damaged ids."""
    damaged = []
    for page_id in disk.page_ids():
        try:
            codec.verify_page(page_id, disk.peek(page_id))
        except PageChecksumError:
            damaged.append(page_id)
    return damaged


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def _script_ops(config: WorkloadConfig, option: str,
                rng: random.Random) -> List[Tuple]:
    """The deterministic mutate-phase script (same for every scenario of
    one option, so outcomes are reproducible and comparable)."""
    alive = list(range(1, config.n_objects + 1))
    ops: List[Tuple] = []
    # Every write is followed by a read of the whole tree: the write's
    # pages go out when its page scope ends, so only a later operation
    # can read a damaged one back in flight.
    for i in range(config.n_updates):
        if i and i % config.tick_every == 0:
            ops.append(("tick",))
        if option != "I" and i and i % config.checkpoint_every == 0:
            ops.append(("checkpoint",))
        permanent_delete = (
            i % config.delete_every == config.delete_every - 1
            and len(alive) > config.n_objects // 2
        )
        if permanent_delete:
            victim = alive.pop(rng.randrange(len(alive)))
            ops.append(("delete", victim))
        else:
            oid = alive[rng.randrange(len(alive))]
            ops.append(
                ("update", oid, Rect.from_point(rng.random(), rng.random()))
            )
        ops.append(("query",))
    ops.append(("tick",))
    return ops


def _check(condition: bool, message: str,
           checks: List[str], label: str) -> None:
    if not condition:
        raise CrashSimError(message)
    checks.append(label)


def _tiered_memo(
    memo_dir: Optional[Path], stats: Optional[IOStats] = None,
    faults: Optional[FaultInjector] = None,
) -> Optional[SpillingUpdateMemo]:
    """The memo on its run tier at ``memo_dir``; ``None`` (the tree's
    own all-RAM memo) without a tier."""
    if memo_dir is None:
        return None
    return SpillingUpdateMemo(
        memo_dir, spill_budget=SPILL_BUDGET, stats=stats, faults=faults
    )


def _damage_present(damage, inner: FileDiskManager) -> bool:
    """Whether the bytes a fault damaged still lie where it put them."""
    where, image = damage
    if isinstance(where, Path):
        return where.exists() and where.read_bytes() == image
    return inner.is_allocated(where) and bytes(inner.peek(where)) == image


def run_scenario(
    scenario: CrashScenario,
    directory,
    config: Optional[WorkloadConfig] = None,
    obs: Optional["Observability"] = None,
) -> CrashOutcome:
    """Run one crash scenario end to end; raise :class:`CrashSimError`
    (an ``AssertionError``) on any violated guarantee."""
    if scenario.option not in RECOVERY_PROCEDURES:
        raise ValueError(f"unknown recovery option {scenario.option!r}")
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)

    injector = FaultInjector()
    inner = FileDiskManager(config.node_size, directory, faults=injector)
    disk = FaultyDisk(inner, injector)
    codec = NodeCodec(config.node_size, rum_leaves=True, checksums=True)
    stats = IOStats()
    buffer = BufferPool(disk, codec, stats)
    option = scenario.option
    wal = (
        WriteAheadLog(config.node_size, stats, faults=injector)
        if option != "I"
        else None
    )
    # The tiered memo shares the scenario's injector and lands its run
    # I/O on the same stats.
    memo_dir = Path(directory) / "memo" if scenario.tier else None
    tree = RUMTree(
        buffer,
        recovery_option=option,
        wal=wal,
        checkpoint_interval=10**9,  # checkpoints are scripted explicitly
        memo=_tiered_memo(memo_dir, stats, injector),
    )
    # Cascades to the storage stack and its injector; at ``trace`` the
    # operation a fault interrupts still emits its ``span`` event
    # (``error: true``).
    tree.attach_obs(obs)

    oracle = _WorkloadOracle()

    # -- load phase (injector disarmed: the base population is durable) --
    for oid in range(1, config.n_objects + 1):
        rect = Rect.from_point(rng.random(), rng.random())
        tree.insert_object(oid, rect)
        oracle.commit(("update", oid, rect))
    buffer.checkpoint()
    tick_allocs = [frozenset(inner.page_ids())]

    # -- mutate phase, with the fault armed; occurrences count from here --
    injector.hits = {}
    if scenario.point is not None:
        injector.arm(scenario.point, mode=scenario.mode, skip=scenario.skip)

    pending: Optional[Tuple] = None
    caught: Optional[Exception] = None
    damaged = False
    for op in _script_ops(config, option, rng):
        kind = op[0]
        if damaged and kind != "query":
            # Stop before the next write: it could rewrite the damage
            # before it is verified.  A query only reads it.
            break
        try:
            if kind == "update":
                tree.update_object(op[1], None, op[2])
            elif kind == "delete":
                tree.delete_object(op[1])
            elif kind == "query":
                tree.search(FULL_WINDOW)
            elif kind == "tick":
                buffer.checkpoint()
            elif kind == "checkpoint":
                oracle.attempted_ckpt = frozenset(oracle.deleted)
                tree.write_checkpoint()
        except SimulatedCrash:
            pending = op
            break
        except (PageChecksumError, MemoCorruptionError) as exc:
            # A read refused damaged bytes in flight: that *is* the
            # detection guarantee — if silent corruption put them there.
            if scenario.mode != "corrupt" or injector.damage is None:
                raise
            caught = exc
            break
        oracle.commit(op)
        if kind == "tick":
            tick_allocs.append(frozenset(inner.page_ids()))
        damaged = scenario.mode == "corrupt" and injector.fired is not None
    hits = dict(injector.hits)
    crashed = pending is not None
    # The process model ends here.  Its gauges read its memo's runs,
    # which the reopen below may unlink: detaching freezes what it
    # published.
    tree.attach_obs(None)
    if obs is not None and crashed:
        obs.event(
            "crashsim.crash", point=scenario.point, option=option,
            pending=pending[0],
        )

    if scenario.point is not None and injector.fired is None:
        raise CrashSimError(f"{scenario.name}: fault never fired")
    must_crash = scenario.point is not None and scenario.mode != "corrupt"
    if crashed != must_crash:
        raise CrashSimError(
            f"{scenario.name}: a {scenario.mode} fault "
            f"{'crashed' if crashed else 'did not crash'} the writer"
        )
    damage = injector.damage
    if caught is not None or (
        damage is not None and _damage_present(damage, inner)
    ):
        return _verify_detected(
            scenario, crashed, damage, caught, inner, codec, memo_dir,
            hits, obs,
        )
    return _recover_and_verify(
        scenario, injector.tear or ("healed" if damage else "recovered"),
        config, directory, tree, buffer, inner, wal, injector, oracle,
        tick_allocs, pending, memo_dir, hits, obs,
    )


def _verify_detected(
    scenario, crashed, damage, caught, inner, codec, memo_dir, hits, obs,
) -> CrashOutcome:
    """Damage cannot be repaired — it must be *found*: a read of the
    workload refused it, or, inspected exactly as the fault left it (no
    flush first), the page fails its crc32 and refuses to decode, or the
    memo tier refuses to reopen."""
    checks: List[str] = []
    where, _image = damage
    if caught is not None:
        checks.append(f"damage refused in flight ({type(caught).__name__})")
    elif isinstance(where, Path):
        try:
            probe = _tiered_memo(memo_dir)
        except MemoCorruptionError:
            checks.append("damaged memo tier fails its CRC at reopen")
        else:
            probe.close()
            raise CrashSimError(
                f"{scenario.name}: damaged memo tier silently reopened"
            )
    else:
        _check(
            where in verify_pages(inner, codec),
            f"{scenario.name}: damaged page passed checksum verification",
            checks, "damaged page fails crc32",
        )
        try:
            codec.decode(where, inner.peek(where))
        except PageChecksumError:
            checks.append("damaged page refuses to decode")
        else:
            raise CrashSimError(
                f"{scenario.name}: page {where} silently decoded"
            )
    if obs is not None:
        obs.event(
            "crashsim.detected", point=scenario.point, mode=scenario.mode,
            inflight=caught is not None,
        )
    return CrashOutcome(
        scenario=scenario, crashed=crashed, kind="detected", checks=checks,
        hits=hits,
    )


def _recover_and_verify(
    scenario, kind, config, directory, tree, buffer, inner, wal,
    injector, oracle, tick_allocs, pending, memo_dir, hits, obs,
) -> CrashOutcome:
    checks: List[str] = []
    injector.disarm()
    lost = wal.crash_truncate() if wal is not None else 0

    if scenario.point == "disk.meta.tmp":
        _check(
            (inner.directory / META_TMP_FILE).exists(),
            f"{scenario.name}: crash left no temp metadata file",
            checks, "in-flight temp metadata present",
        )
    if scenario.point in ("disk.sync.data", "disk.meta.tmp"):
        # The interrupted sync must have left the *previous complete*
        # metadata: a fresh open sees exactly the last committed tick.
        probe = FileDiskManager.open(directory)
        _check(
            frozenset(probe.page_ids()) == tick_allocs[-1],
            f"{scenario.name}: metadata torn by interrupted sync",
            checks, "metadata atomic across interrupted sync",
        )
        probe._file.close()  # close without sync: read-only probe

    # Paper model (Section 3.4): the tree pages are durable; only the
    # memo, the stamps, and the unforced log tail are lost.  Completing
    # the outstanding page writes here also proves the buffer is
    # exception-safe: a crash mid-flush leaves every dirty page still
    # queued, so the retry loses nothing.
    buffer.flush()
    inner.sync()
    attach = {
        "root_id": tree.root_id,
        "height": tree.height,
        "parent": dict(tree.parent),
    }

    disk2 = FileDiskManager.open(directory)
    codec2 = NodeCodec(config.node_size, rum_leaves=True, checksums=True)
    stats2 = IOStats()
    buffer2 = BufferPool(disk2, codec2, stats2)
    if wal is not None:
        wal.stats = stats2  # recovery I/O lands on the reopened stack

    # The memo's spilled tier survives the crash like the tree pages;
    # only the RAM tier dies.  Reopening must land on the last durable
    # manifest: drop an in-flight manifest temp, validate every named
    # run, sweep orphans (a torn run flush or an un-swapped compaction
    # output is an unnamed file).  The recovery option then *rebuilds*
    # the memo content through this reopened tier, so every oracle check
    # below also exercises the disk-resident memo path.
    if memo_dir is not None and scenario.point == "memo.manifest" and (
        scenario.mode == "crash"
    ):
        _check(
            (memo_dir / MANIFEST_TMP_FILE).exists(),
            f"{scenario.name}: crash left no temp memo manifest",
            checks, "in-flight temp memo manifest present",
        )
    memo2 = _tiered_memo(memo_dir, stats2)
    if memo2 is not None:
        _check(
            not (memo_dir / MANIFEST_TMP_FILE).exists(),
            f"{scenario.name}: memo reopen kept the manifest temp file",
            checks, "memo manifest temp dropped at reopen",
        )
        live_names = {run.path.name for run in memo2.runs}
        on_disk = {p.name for p in memo_dir.glob(f"*{RUN_SUFFIX}")}
        _check(
            on_disk == live_names,
            f"{scenario.name}: orphan memo runs survived reopen "
            f"({sorted(on_disk - live_names)})",
            checks, "memo tier on durable manifest, orphans swept",
        )
        _check(
            not memo2.tier.screen_misses(),
            f"{scenario.name}: reopened presence screen misses run oids",
            checks, "presence screen rebuilt over every live run",
        )

    tree2 = RUMTree(
        buffer2,
        recovery_option=scenario.option,
        wal=wal,
        checkpoint_interval=10**9,
        attach=attach,
        memo=memo2,
    )

    _check(
        not verify_pages(disk2, codec2),
        f"{scenario.name}: a recovered store holds a damaged page",
        checks, "all pages checksum-clean",
    )

    # Which checkpoint is durable?  Normally exactly the committed ones;
    # a crashed checkpoint survives only if its record crossed a page
    # boundary before the force died, in which case the pre-commit
    # snapshot the oracle stashed is the durable state.
    ckpt_deleted = None
    if wal is not None:
        durable = wal.checkpoint_count()
        committed = len(oracle.ckpt_states)
        if durable == committed:
            ckpt_deleted = oracle.ckpt_states[-1] if committed else None
        elif (
            durable == committed + 1
            and pending is not None
            and pending[0] == "checkpoint"
        ):
            ckpt_deleted = oracle.attempted_ckpt
        else:
            raise CrashSimError(
                f"{scenario.name}: {durable} durable checkpoints vs "
                f"{committed} committed"
            )
        checks.append("durable log prefix matches committed checkpoints")

    RECOVERY_PROCEDURES[scenario.option](tree2)
    # Full structural + memo/stamp validation (not just lost/ghost
    # objects): MBR containment, fanout bounds, leaf ring, Lemma-1 memo
    # consistency, stamp monotonicity.
    try:
        check_tree(tree2)
    except InvariantViolation as exc:
        raise CrashSimError(
            f"{scenario.name}: structural invariant violated after "
            f"Option {scenario.option} recovery: {exc}"
        ) from exc
    checks.append("structural and memo invariants hold")

    if memo2 is not None:
        _check(
            memo2.ram_size_bytes() <= SPILL_BUDGET,
            f"{scenario.name}: recovery blew the memo RAM budget "
            f"({memo2.ram_size_bytes()} > {SPILL_BUDGET} bytes)",
            checks, "recovered memo within its RAM budget",
        )
        _check(
            all(n_old >= 1 for _oid, _s, n_old in memo2.snapshot()),
            f"{scenario.name}: recovered memo holds a drained entry",
            checks, "every recovered memo entry counts >= 1 obsolete",
        )
        # Recovery restores absolutes onto an emptied tier and replays
        # updates, never a clean: whatever spilled first, or was merged
        # down to it, has nothing below to mask or add to.  (The reopened
        # tier above admits no such statement: a flush may carry a
        # tombstone a stale screen bit asked for.)
        _check(
            not any(at == 0 for at, _oid in memo2.tier.idle_tombstones()),
            f"{scenario.name}: the recovered memo's oldest run holds a "
            "tombstone or delta with nothing below it",
            checks, "oldest recovered memo run holds absolutes only",
        )

    live = _verify_recovered_state(
        scenario, tree2, oracle, ckpt_deleted, pending, checks
    )
    if obs is not None:
        obs.event(
            "crashsim.recovered", point=scenario.point,
            option=scenario.option, kind=kind, live=len(live),
            lost_log_records=lost,
        )
    return CrashOutcome(
        scenario=scenario, crashed=pending is not None, kind=kind,
        pending=pending, checks=checks, live_objects=len(live), hits=hits,
    )


def _verify_recovered_state(
    scenario, tree2, oracle, ckpt_deleted, pending, checks
) -> Dict[int, Rect]:
    option = scenario.option

    # -- memo / leaf agreement -------------------------------------------
    by_oid: Dict[int, List] = {}
    max_stamp = 0
    for entry in tree2.iter_leaf_entries():
        by_oid.setdefault(entry.oid, []).append(entry)
        max_stamp = max(max_stamp, entry.stamp)
    latest_pos: Dict[int, Rect] = {}
    for oid, entries in by_oid.items():
        latest = [
            e for e in entries
            if tree2.memo.check_status(oid, e.stamp) == LATEST
        ]
        if len(latest) > 1:
            raise CrashSimError(
                f"{scenario.name}: object {oid} has {len(latest)} LATEST "
                "entries after recovery"
            )
        if latest:
            newest = max(entries, key=lambda e: e.stamp)
            if latest[0] is not newest:
                raise CrashSimError(
                    f"{scenario.name}: object {oid}: a stale entry is "
                    "LATEST after recovery"
                )
            latest_pos[oid] = latest[0].rect
        elif option == "I":
            raise CrashSimError(
                f"{scenario.name}: Option I lost object {oid} (it cannot "
                "recover deletes, let alone invent them)"
            )
    checks.append("memo classifies exactly the newest entry as LATEST")

    if not tree2.stamps.current > max_stamp:
        raise CrashSimError(
            f"{scenario.name}: stamp counter {tree2.stamps.current} not "
            f"past the newest leaf stamp {max_stamp}"
        )
    checks.append("stamp counter restored past every leaf stamp")

    # -- query answers == memo-filtered leaf content ---------------------
    results = tree2.search(FULL_WINDOW)
    got = dict(results)
    if len(got) != len(results):
        raise CrashSimError(
            f"{scenario.name}: search returned a duplicate object"
        )
    if got != latest_pos:
        raise CrashSimError(
            f"{scenario.name}: search disagrees with the memo-filtered "
            f"leaf scan ({len(got)} vs {len(latest_pos)} objects)"
        )
    checks.append("search equals memo-filtered leaf content")

    # -- per-option live set (lost-delete semantics included) ------------
    states = oracle.expected_states(option, ckpt_deleted)
    ambiguous = (
        pending[1]
        if pending is not None and pending[0] in ("update", "delete")
        else None
    )
    if ambiguous is not None:
        # The in-flight op may appear applied or not — widen only that
        # one object's set of permitted states.
        allowed = states.setdefault(ambiguous, set())
        allowed.add(_ABSENT)
        allowed.update(oracle.history.get(ambiguous, ()))
        if pending[0] == "update":
            allowed.add(pending[2])
        checks.append("in-flight op confined to applied-or-not")
    extra = sorted(set(got) - set(states))
    if extra:
        raise CrashSimError(
            f"{scenario.name}: recovery invented objects {extra}"
        )
    wrong = sorted(
        oid for oid, allowed in states.items()
        if got.get(oid, _ABSENT) not in allowed
    )
    if wrong:
        detail = {
            oid: (
                "absent"
                if got.get(oid, _ABSENT) is _ABSENT
                else got[oid]
            )
            for oid in wrong[:5]
        }
        raise CrashSimError(
            f"{scenario.name}: recovered state wrong for objects "
            f"{wrong}: {detail}"
        )
    exact = sum(1 for allowed in states.values() if len(allowed) == 1)
    checks.append(
        f"Option {option} semantics: {exact}/{len(states)} objects pinned "
        "exactly, rest within lost-delete latitude"
    )
    return got


# ---------------------------------------------------------------------------
# The crash matrix
# ---------------------------------------------------------------------------


def discover(option: str, tier: bool) -> Dict[str, int]:
    """Fault-point occurrences of one unarmed run of the default script
    after its load phase: the clean shutdown's, verified on the way."""
    with tempfile.TemporaryDirectory(prefix="crashsim-") as tmp:
        scenario = CrashScenario(option=option, tier=tier)
        return run_scenario(scenario, Path(tmp)).hits


def derive_scenarios() -> List[CrashScenario]:
    """The crash matrix: per recovery option, with the memo's run tier off
    and on, the clean shutdown and every occurrence :func:`discover`
    counts, in every mode its point supports."""
    scenarios: List[CrashScenario] = []
    for option in RECOVERY_PROCEDURES:
        for tier in (False, True):
            hits = discover(option, tier)
            scenarios.append(CrashScenario(option=option, tier=tier))
            scenarios.extend(
                CrashScenario(option, point, mode, skip, tier)
                for point, modes in FAULT_POINTS.items()
                for mode in modes
                for skip in range(hits.get(point, 0))
            )
    return scenarios
