"""Crash–recover–verify harness for the RUM-tree's durability story.

The paper's crash model (Section 3.4) is asymmetric: the tree pages on
disk survive a crash, while the Update Memo, the stamp counter, and any
unforced log tail die with the process.  This harness turns that model
into an executable contract.  One :func:`run_scenario` call

1. builds a RUM-tree over a :class:`FileDiskManager` (wrapped in a
   :class:`~repro.storage.faults.FaultyDisk`) and, for recovery Options
   II/III, a :class:`~repro.storage.wal.WriteAheadLog`, all sharing one
   :class:`~repro.storage.faults.FaultInjector`;
2. loads an object population, then drives a scripted workload of
   updates, deletes, durability ticks (``buffer.checkpoint()``) and UM
   checkpoints, with the injector armed at one registered fault point;
3. when the simulated crash fires, truncates the log to its durable
   prefix, reopens the store, runs the scenario's recovery option, and
   checks every consistency property the paper promises — structural
   invariants, stamp-counter monotonicity, memo/leaf agreement, and the
   *exact* recovered live set, including the documented lost-delete
   semantics of Options I and II.

Scenario families
-----------------

* **Logical crashes** (``mode="crash"``): the process dies between two
  durability steps — mid WAL force, before a checkpoint record exists,
  between the page-file fsync and the metadata replace, mid page write.
  Recovery must restore exactly the semantics of the scenario's option;
  the in-flight operation is the only permitted ambiguity (it may appear
  applied or not applied, like any interrupted transaction).  The tree
  pages themselves follow the paper's stable-buffer assumption: after
  the crash the harness completes the outstanding tree-page writes
  before reopening, which also proves the write path is exception-safe
  mid-flush.
* **Torn writes** (``mode="torn"``): a page write persists only a prefix
  of the new image.  There is no recovering from that without page-level
  redo — the guarantee is *detection*: the page's crc32 must fail
  verification and decoding must raise
  :class:`~repro.storage.codec.PageChecksumError`, never return garbage.
* **Silent corruption** (``mode="corrupt"``): bytes are flipped without
  a crash.  Same guarantee: the next verification pass flags the page.

Oracle
------

The workload runs with the garbage cleaner disabled
(``inspection_ratio=0``, ``clean_upon_touch=False``), so every entry
ever inserted is still in the tree and the recovered live set is exactly
computable per option:

* Every *live* object (never deleted) is recovered at exactly its last
  committed position, under every option.
* Option I — completed deletes are lost: a memo-based delete leaves no
  trace, so a deleted object resurrects at whichever of its committed
  positions still has a physical entry (insertion-path garbage drops may
  have removed some, or even all, of its obsolete entries — in the
  latter case the object happens to stay deleted).
* Option II — deletes recorded in the last *durable* checkpoint stay
  deleted, exactly; later deletes are lost as under Option I.
* Option III — every completed delete is durable (its memo record was
  force-flushed before the operation returned), so the recovered live
  set is exact.
"""

from __future__ import annotations

import os
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.memo_lsm import (
    MANIFEST_TMP_FILE,
    RUN_SUFFIX,
    MemoCorruptionError,
    SpillingUpdateMemo,
)
from repro.core.recovery import RECOVERY_PROCEDURES, RecoveryReport
from repro.core.rum import RUMTree
from repro.core.memo import LATEST
from repro.lint.invariants import InvariantViolation, check_tree
from repro.rtree.geometry import Rect
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec, PageChecksumError
from repro.storage.faults import FaultInjector, FaultyDisk, SimulatedCrash
from repro.storage.filedisk import FileDiskManager, META_TMP_FILE
from repro.storage.iostats import IOStats
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: The whole unit square — every workload position lies inside it, so a
#: search with this window returns the complete live set.
FULL_WINDOW = Rect(0.0, 0.0, 1.0, 1.0)

_ABSENT = object()  # sentinel: "object not in the live set"


class CrashSimError(AssertionError):
    """A durability guarantee was violated in a crash scenario."""


@dataclass(frozen=True)
class CrashScenario:
    """One cell of the crash matrix.

    ``point=None`` is the baseline: the workload completes, the process
    "dies" cleanly, and recovery must still restore the option's exact
    semantics (for Options I/II that includes losing the right deletes).
    """

    option: str                  # recovery option: "I" | "II" | "III"
    point: Optional[str] = None  # fault point, None = clean shutdown
    mode: str = "crash"          # "crash" | "torn" | "corrupt"
    skip: int = 0                # fault-point hits to let pass first
    torn_bytes: int = 0          # 0 = half a page survives
    corrupt_bytes: int = 8

    @property
    def name(self) -> str:
        where = self.point or "clean-shutdown"
        label = f"{where}/{self.mode}" if self.mode != "crash" else where
        return f"option-{self.option}@{label}"


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
    #: RAM budget (bytes) for the disk-tiered Update Memo.  ``None``
    #: keeps the pure in-RAM memo — except for ``memo.*`` fault points,
    #: where the harness auto-enables the spilling memo with a tiny
    #: default budget so the fault sites actually execute.
    memo_spill_budget: Optional[int] = None


#: Auto-enabled spill budget for ``memo.*`` scenarios: small enough that
#: the 90-op crash workload spills several times.
_MEMO_FAULT_BUDGET = 256


def _env_spill_budget() -> Optional[int]:
    """``REPRO_MEMO_SPILL_BUDGET`` (bytes): force *every* crash scenario
    onto the disk-tiered memo.  The CI tier-1 memo leg sets a tiny value
    so the whole fault matrix — disk and WAL points included — runs with
    the memo actively spilling and compacting mid-workload."""
    raw = os.environ.get("REPRO_MEMO_SPILL_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_MEMO_SPILL_BUDGET={raw!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return budget if budget > 0 else None


@dataclass
class CrashOutcome:
    """What one scenario did and which guarantees were verified."""

    scenario: CrashScenario
    crashed: bool
    kind: str                   # "recovered" | "torn-detected" | ...
    pending: Optional[Tuple] = None   # op in flight when the crash hit
    lost_log_records: int = 0
    damaged_pages: List[int] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)
    report: Optional[RecoveryReport] = None
    live_objects: Optional[int] = None


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
    ops.append(("tick",))
    return ops


def _check(condition: bool, message: str,
           checks: List[str], label: str) -> None:
    if not condition:
        raise CrashSimError(message)
    checks.append(label)


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
    # The disk-tiered memo: always for memo.* fault points (the sites
    # must execute to fire), opt-in via the config otherwise.  It shares
    # the scenario's injector and lands its run I/O on the same stats.
    memo_fault = scenario.point is not None and scenario.point.startswith(
        "memo."
    )
    env_budget = _env_spill_budget()
    memo_budget = (
        config.memo_spill_budget
        if config.memo_spill_budget is not None
        else (env_budget if env_budget is not None else _MEMO_FAULT_BUDGET)
    )
    memo_dir: Optional[Path] = None
    memo: Optional[SpillingUpdateMemo] = None
    if (
        memo_fault
        or config.memo_spill_budget is not None
        or env_budget is not None
    ):
        memo_dir = Path(directory) / "memo"
        memo = SpillingUpdateMemo(
            memo_dir,
            spill_budget=memo_budget,
            stats=stats,
            faults=injector,
        )
    tree = RUMTree(
        buffer,
        inspection_ratio=0.0,       # cleaning off -> exact oracle
        clean_upon_touch=False,
        recovery_option=option,
        wal=wal,
        checkpoint_interval=10**9,  # checkpoints are scripted explicitly
        memo=memo,
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

    # -- mutate phase, with the fault armed --
    if scenario.point is not None:
        injector.arm(
            scenario.point,
            mode=scenario.mode,
            skip=scenario.skip,
            torn_bytes=scenario.torn_bytes,
            corrupt_bytes=scenario.corrupt_bytes,
        )

    pending: Optional[Tuple] = None
    memo_detected_inflight = False
    for op in _script_ops(config, option, rng):
        try:
            kind = op[0]
            if kind == "update":
                tree.update_object(op[1], None, op[2])
            elif kind == "delete":
                tree.delete_object(op[1])
            elif kind == "tick":
                buffer.checkpoint()
            elif kind == "checkpoint":
                oracle.attempted_ckpt = frozenset(oracle.deleted)
                tree.write_checkpoint()
        except SimulatedCrash:
            pending = op
            break
        except MemoCorruptionError:
            # A silently damaged run was caught in flight (a compaction
            # re-validated its inputs).  That *is* the detection
            # guarantee — but only corrupt mode may trade a crash for it.
            if scenario.mode != "corrupt":
                raise
            memo_detected_inflight = True
            break
        oracle.commit(op)
        if kind == "tick":
            tick_allocs.append(frozenset(inner.page_ids()))
        if scenario.mode == "corrupt" and injector.fired:
            # Stop before a later write to the same page heals the
            # damage — corruption is verified exactly as injected.
            break
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

    if scenario.mode == "torn" and not memo_fault:
        return _verify_damage_detected(
            scenario, crashed, inner, codec, "torn-detected", obs
        )
    if scenario.mode == "corrupt":
        if crashed:
            raise CrashSimError(
                f"{scenario.name}: silent corruption must not crash"
            )
        if not injector.fired:
            raise CrashSimError(f"{scenario.name}: fault never fired")
        if memo_fault:
            return _verify_memo_corruption_detected(
                scenario, memo_dir, memo_budget, injector,
                memo_detected_inflight, obs,
            )
        return _verify_damage_detected(
            scenario, crashed, inner, codec, "corruption-detected", obs
        )

    # A torn memo-run write crashes the writer like any torn page, but
    # the damage sits in an *unnamed* run file: recovery must sweep it
    # and proceed — so memo torn scenarios verify full recovery below.
    if scenario.point is not None and not crashed:
        raise CrashSimError(
            f"{scenario.name}: fault {scenario.point} never fired "
            "(workload too short for skip={})".format(scenario.skip)
        )
    return _recover_and_verify(
        scenario, config, directory, tree, buffer, inner, wal,
        injector, oracle, tick_allocs, pending, obs,
        memo_dir=memo_dir, memo_budget=memo_budget,
    )


def _verify_damage_detected(
    scenario, crashed, inner, codec, kind, obs
) -> CrashOutcome:
    """Torn/corrupted pages cannot be repaired — they must be *found*.

    No flush happens first: the persisted bytes are inspected exactly as
    the fault left them, and the damaged page must fail its crc32 and
    refuse to decode.
    """
    checks: List[str] = []
    if scenario.mode == "torn":
        _check(crashed, f"{scenario.name}: torn write must crash",
               checks, "torn write crashed the writer")
    damaged = verify_pages(inner, codec)
    _check(
        len(damaged) >= 1,
        f"{scenario.name}: damaged page passed checksum verification",
        checks, "damaged page fails crc32",
    )
    for page_id in damaged:
        try:
            codec.decode(page_id, inner.peek(page_id))
        except PageChecksumError:
            continue
        raise CrashSimError(
            f"{scenario.name}: page {page_id} silently decoded"
        )
    checks.append("damaged page refuses to decode")
    if obs is not None:
        obs.event(
            "crashsim.torn_detected", point=scenario.point,
            pages=list(damaged),
        )
    return CrashOutcome(
        scenario=scenario, crashed=crashed, kind=kind,
        damaged_pages=damaged, checks=checks,
    )


def _verify_memo_corruption_detected(
    scenario, memo_dir, memo_budget, injector, detected_inflight, obs,
) -> CrashOutcome:
    """Silent damage to the memo's disk tier cannot be repaired — it
    must be *found*: either a compaction re-validating its inputs raised
    in flight, or reopening the tier fails its CRC checks.  Never may a
    damaged run or manifest silently decode into memo state."""
    checks: List[str] = []
    injector.disarm()
    if detected_inflight:
        checks.append("corrupt run caught in flight by compaction")
    else:
        try:
            probe = SpillingUpdateMemo(memo_dir, spill_budget=memo_budget)
        except MemoCorruptionError:
            checks.append("corrupt memo tier fails CRC at reopen")
        else:
            probe.close()
            raise CrashSimError(
                f"{scenario.name}: damaged memo tier silently reopened"
            )
    if obs is not None:
        obs.event(
            "crashsim.memo_corruption_detected", point=scenario.point,
            inflight=detected_inflight,
        )
    return CrashOutcome(
        scenario=scenario, crashed=False,
        kind="memo-corruption-detected", checks=checks,
    )


def _recover_and_verify(
    scenario, config, directory, tree, buffer, inner, wal,
    injector, oracle, tick_allocs, pending, obs,
    memo_dir=None, memo_budget=0,
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
    memo2: Optional[SpillingUpdateMemo] = None
    if memo_dir is not None:
        if scenario.point == "memo.manifest":
            _check(
                (memo_dir / MANIFEST_TMP_FILE).exists(),
                f"{scenario.name}: crash left no temp memo manifest",
                checks, "in-flight temp memo manifest present",
            )
        memo2 = SpillingUpdateMemo(
            memo_dir,
            spill_budget=memo_budget,
            stats=stats2,
        )
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
        inspection_ratio=0.0,
        clean_upon_touch=False,
        recovery_option=scenario.option,
        wal=wal,
        checkpoint_interval=10**9,
        attach=attach,
        memo=memo2,
    )

    _check(
        not verify_pages(disk2, codec2),
        f"{scenario.name}: logical crash left a torn page",
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

    report = RECOVERY_PROCEDURES[scenario.option](tree2)
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
            memo2.ram_size_bytes() <= memo_budget,
            f"{scenario.name}: recovery blew the memo RAM budget "
            f"({memo2.ram_size_bytes()} > {memo_budget} bytes)",
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
            option=scenario.option, live=len(live),
            lost_log_records=lost,
        )
    return CrashOutcome(
        scenario=scenario, crashed=pending is not None, kind="recovered",
        pending=pending, lost_log_records=lost, checks=checks,
        report=report, live_objects=len(live),
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


def default_scenarios() -> List[CrashScenario]:
    """Every registered fault point crossed with every recovery option
    it applies to, plus a clean-shutdown baseline per option."""
    scenarios: List[CrashScenario] = []
    for option in ("I", "II", "III"):
        scenarios.append(CrashScenario(option=option))
        scenarios.append(
            CrashScenario(option=option, point="disk.page_write", skip=5)
        )
        scenarios.append(
            CrashScenario(option=option, point="disk.sync.data")
        )
        scenarios.append(
            CrashScenario(option=option, point="disk.meta.tmp")
        )
        scenarios.append(
            CrashScenario(
                option=option, point="disk.page_torn", mode="torn", skip=5
            )
        )
        scenarios.append(
            CrashScenario(
                option=option, point="disk.page_write", mode="corrupt",
                skip=5,
            )
        )
        if option != "I":
            # Option I has no log: wal.* points never execute.
            scenarios.append(
                CrashScenario(option=option, point="wal.checkpoint", skip=1)
            )
            scenarios.append(
                CrashScenario(
                    option=option, point="wal.force",
                    skip=0 if option == "II" else 40,
                )
            )
        if option == "III":
            scenarios.append(
                CrashScenario(option=option, point="wal.append", skip=8)
            )
        # Disk-tiered memo faults.  Option I carries the full grid (its
        # recovery rebuilds the memo from a leaf scan, the worst case
        # for stale spilled state); II/III spot-check that checkpoint /
        # log replay also land correctly on a reopened spill tier.
        # A corrupt-mode fault must hit an artifact that stays the *last*
        # written, so no later manifest rewrite heals it before detection
        # (the workload stops on fire, but only between operations).  At
        # _MEMO_FAULT_BUDGET the load phase leaves one run, so every spill
        # of the mutate phase folds its table over that run: one write in
        # both the memo.run_flush and the memo.compact window, then one
        # manifest, the last the spill writes.  The skips thus count
        # spills: run_flush skip=1 and memo.manifest skip=1 land on the
        # second spill's run and manifest, skip=0 on the first's, and
        # II/III's run_flush skip=2 on the third's.  A damaged run is
        # caught by the next spill's validated read of it or by the reopen.
        if option == "I":
            scenarios.extend(
                [
                    CrashScenario(
                        option=option, point="memo.run_flush", skip=1
                    ),
                    CrashScenario(
                        option=option, point="memo.run_flush",
                        mode="torn", skip=1,
                    ),
                    CrashScenario(
                        option=option, point="memo.run_flush",
                        mode="corrupt",
                    ),
                    CrashScenario(option=option, point="memo.compact"),
                    CrashScenario(
                        option=option, point="memo.compact", mode="corrupt"
                    ),
                    CrashScenario(
                        option=option, point="memo.manifest", skip=1
                    ),
                    CrashScenario(
                        option=option, point="memo.manifest",
                        mode="corrupt", skip=1,
                    ),
                ]
            )
        else:
            scenarios.append(
                CrashScenario(option=option, point="memo.run_flush", skip=2)
            )
            scenarios.append(
                CrashScenario(option=option, point="memo.manifest")
            )
    return scenarios
