"""Distributed 2PC coordination for the scale-out engine (home partitions).

PR 6's scale-out engine moved shard consensus into partitions but left the
whole coordination layer — the 2PC coordinator, the lock-admission mirror,
the reference committee and the open-loop drivers — on the parent process,
which serialized roughly a sixth of the total work.  This module distributes
all of it:

* Every transaction gets a deterministic **home partition**
  (:func:`home_shard` — its first participating shard) that runs the full
  coordinator state machine (:class:`HomeCoordinator`, an adapter around the
  same :class:`~repro.txn.driver.TwoPhaseCommitDriver` the legacy
  ``ShardedBlockchain`` uses) inside the partition's own sub-simulation.
* Lock admission becomes **participant-side**: each partition keeps a local
  :class:`~repro.txn.locks.LockManager` mirror of its own lock table and
  votes PrepareNotOK on deadlocks/timeouts itself.  Wounds travel to the
  victim's home as ordinary NotOK votes.  (Waits-for cycles that span
  shards are no longer visible to any single detector — they resolve
  through the wait timeout instead; per-shard cycles are still detected.)
* Workload generation moves **in-partition** (:class:`PartitionDriver`):
  each partition draws an independent stream seeded by a ``(seed,
  shard_id)`` split and keeps exactly the draws whose first key it owns
  (:meth:`~repro.workloads.generator.WorkloadGenerator.next_transaction_for_shard`),
  so the stream depends only on the partition's identity — never on worker
  grouping — and ``workers=1 == workers=N`` holds by construction.
* Votes, decisions, re-drives, receipts and client handoffs flow between
  partitions as ordinary barrier-window :class:`Command` records, batched
  into one :class:`WindowBlock`/:class:`WindowResult` pickle per worker per
  window.

Determinism rules
-----------------
Every cross-partition message pays ``config.relay_delay`` (the engine's
lookahead) before its destination acts — even a home messaging itself, so
latency is uniform and independent of placement.  Cross-partition commands
are *never* injected mid-window: both the parent and the worker groups hold
them until the next window starts and inject them sorted by ``(due, src,
seq)``, a total order that depends only on what each partition did.  Each
partition also owns a disjoint transaction-id stream
(:func:`partition_tx_counter`), swapped into the process-global counter
around every window, so ids never depend on which OS process drains which
partition.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import ShardedSystemConfig
from repro.core.driver import DriverStats
from repro.core.splitters import splitter_for
from repro.core.system import REFERENCE_SHARD_ID
from repro.errors import SimulationError
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, TxStatus
from repro.runtime.base import as_runtime
from repro.txn.coordinator import (
    DistributedTxOutcome,
    DistributedTxRecord,
    TwoPhaseCommitCoordinator,
)
from repro.txn.driver import TwoPhaseCommitDriver
from repro.txn.locks import DeadlockDetected, LockManager
from repro.workloads.generator import WorkloadGenerator, shard_of_key

#: ``src``/``origin``/``dest`` value naming the parent barrier orchestrator.
PARENT = -1


def home_shard(shards) -> int:
    """Deterministic home partition of a transaction: its first participating shard.

    Pure function of the participating-shard set — independent of worker
    count, arrival order, epoch reconfigurations (committee membership
    changes never change *which* shards own a key) and simulation state, so
    every partition and the parent agree on it without coordination.
    """
    return min(shards)


def partition_tx_counter(shard_id: int) -> "itertools.count":
    """The disjoint transaction-id stream owned by partition ``shard_id``.

    Spaced 10^10 apart so no realistic run (the id streams also feed
    splitter prepares, decisions and reference-committee votes) can make two
    partitions' streams collide.  The parent keeps the process-default
    stream (ids below 10^10).
    """
    return itertools.count((shard_id + 1) * 10_000_000_000)


def partition_stream_seed(seed: int, shard_id: int) -> int:
    """Per-partition split of a seed (distinct per shard).

    Seeds a partition's own simulator from the system seed and its split of
    each open-loop driver's stream from the driver's workload seed.
    """
    return seed * 1_000_003 + 7_919 * shard_id + 17


# --------------------------------------------------------------------------
# Wire format.  Plain picklable dataclasses: process mode ships them over
# pipes (one WindowBlock/WindowResult per worker per window), inline mode
# passes the same objects in memory — same ordering rules, same outcomes.
# --------------------------------------------------------------------------

@dataclass
class Command:
    """One cross-partition message, due at an exact simulated time.

    ``src``/``seq`` are stamped by the emitting side (parent = ``PARENT``)
    and give same-``due`` commands a canonical total order.  Ops:

    * parent -> partition epoch/adversary control: ``remove``, ``admit``,
      ``margin``, ``prepare``, ``track``;
    * client handoff: ``client`` (owner/parent -> home),
      ``client_done`` (home -> owning partition's driver);
    * 2PC: ``prepare2pc`` (home -> participant), ``vote`` (participant ->
      home), ``decision`` (home -> participant), ``ack`` (participant ->
      home);
    * reference committee: ``ref_submit`` (home -> ``REFERENCE_SHARD_ID``),
      ``ref_receipt`` (reference -> home).
    """

    due: float
    dest: int
    op: str
    src: int = PARENT
    seq: int = -1
    txs: Tuple[Transaction, ...] = ()
    tx_id: str = ""
    #: prepare2pc/decision: the home partition votes/acks go back to.
    home: int = -1
    #: client/client_done/vote/ack: the partition (or PARENT) that sent it.
    origin: int = PARENT
    ok: bool = True
    reason: Optional[str] = None
    attempt: int = 0
    #: Wound-wait age priority ``(started_at, begin_seq, home_shard)`` — a
    #: total order across homes (begin_seq alone is only per-home unique).
    priority: Tuple = ()
    committed: bool = False
    latency: Optional[float] = None
    epoch: int = 0
    node_id: int = -1
    logical: int = -1
    transfer_override: Optional[float] = None
    marker: int = -1
    #: ref_submit: partition the eventual ref_receipt is addressed to.
    reply_to: int = PARENT
    #: ref_receipt: the reference committee's TransactionReceipt.
    receipt: Any = None

    def __reduce__(self):
        # Positional-tuple pickling: commands dominate the barrier RPC
        # payloads (each one crosses two pipes), and the default dict-based
        # dataclass reduction is ~2x slower to load and ~35% larger on the
        # wire.  Keep the tuple in field order — the framing unit test
        # checks it stays in sync with the dataclass fields.
        return (Command, (self.due, self.dest, self.op, self.src, self.seq,
                          self.txs, self.tx_id, self.home, self.origin,
                          self.ok, self.reason, self.attempt, self.priority,
                          self.committed, self.latency, self.epoch,
                          self.node_id, self.logical, self.transfer_override,
                          self.marker, self.reply_to, self.receipt))


@dataclass
class TxDone:
    """Partition -> parent completion report for a parent-submitted transaction."""

    time: float
    shard: int
    seq: int
    tx_id: str
    committed: bool
    abort_reason: Optional[str]
    started_at: float
    decided_at: Optional[float]
    completed_at: Optional[float]


@dataclass
class AdmitReport:
    """A destination partition executed an admit op: its transfer delay."""

    time: float
    shard: int
    seq: int
    marker: int
    node_id: int
    transfer: float


@dataclass
class MarginReport:
    """A partition sampled its committee's active-minus-quorum margin."""

    time: float
    shard: int
    seq: int
    marker: int
    margin: int


@dataclass
class WindowBlock:
    """One parent -> worker barrier message: run every owned partition to
    ``until`` with these inbound commands (already globally ordered)."""

    until: float
    epoch: int
    commands: Tuple[Command, ...] = ()


@dataclass
class WindowResult:
    """One worker -> parent barrier reply: parent-facing outputs plus the
    cross-partition commands that left this worker's partition group."""

    outputs: Tuple[Any, ...] = ()
    routed: Tuple[Command, ...] = ()


def inbound_sort_key(command: Command) -> Tuple[float, int, int]:
    """Canonical injection order for inbound commands at a window start.

    Depends only on what each partition (and the parent) emitted — never on
    how partitions are grouped onto worker processes — which is the heart of
    the workers=1 == workers=N guarantee.
    """
    return (command.due, command.src, command.seq)


def group_by_dest(commands) -> Dict[int, List[Command]]:
    """Split an ordered command sequence by destination, preserving order."""
    by_dest: Dict[int, List[Command]] = {}
    for command in commands:
        by_dest.setdefault(command.dest, []).append(command)
    return by_dest


# --------------------------------------------------------------------------
# Load-aware (but config-deterministic) partition -> worker assignment.
# --------------------------------------------------------------------------

def partition_weights(config: ShardedSystemConfig) -> Dict[int, float]:
    """Deterministic per-partition work weight, computed once from config.

    A shard partition's weight is its sampled share of the key space (its
    consensus work scales with the keys it owns) plus the probability that a
    uniform cross-shard pair homes there (``home = min`` skews coordination
    work toward low shard ids: ``P(home = p) = (2(S - p) - 1) / S^2``).  The
    reference-committee partition processes one BeginTx plus one vote per
    participant for *every* cross-shard transaction, so it is weighted like
    a busy shard of its own.  Nothing here reads runtime state — the same
    config always produces the same weights, hence the same assignment.
    """
    shards = config.num_shards
    counts = {shard: 0 for shard in range(shards)}
    stride = max(1, config.num_keys // 20_000)
    if config.benchmark == "smallbank":
        from repro.workloads.smallbank import account_key

        sampled = (account_key(str(index))
                   for index in range(0, config.num_keys, stride))
    else:
        from repro.workloads.kvstore import KVStoreWorkload

        workload = KVStoreWorkload(num_keys=config.num_keys)
        sampled = (workload.key_name(index)
                   for index in range(0, config.num_keys, stride))
    total = 0
    for key in sampled:
        counts[shard_of_key(key, shards)] += 1
        total += 1
    weights: Dict[int, float] = {}
    for shard, count in counts.items():
        share = count / total if total else 1.0 / shards
        home_probability = (2 * (shards - shard) - 1) / (shards * shards)
        weights[shard] = share + home_probability
    if config.use_reference_committee:
        weights[REFERENCE_SHARD_ID] = 2.0 / shards
    return weights


def assign_partitions(shard_ids: List[int], workers: int,
                      config: ShardedSystemConfig) -> List[List[int]]:
    """Group partitions onto ``workers`` processes (some groups may be empty).

    Longest-processing-time greedy over :func:`partition_weights`: a pure
    function of ``(shard_ids, workers, config)``.  Grouping only decides
    which OS process drains a partition, never the partition's event
    sequence, so any grouping yields bit-identical outcomes.
    """
    workers = max(1, workers)
    groups: List[List[int]] = [[] for _ in range(workers)]
    weights = partition_weights(config)
    loads = [0.0] * workers
    for shard_id in sorted(shard_ids,
                           key=lambda sid: (-weights.get(sid, 1.0), sid)):
        index = min(range(workers), key=lambda i: (loads[i], i))
        loads[index] += weights.get(shard_id, 1.0)
        groups[index].append(shard_id)
    return [sorted(group) for group in groups]


# --------------------------------------------------------------------------
# In-partition open-loop driving.
# --------------------------------------------------------------------------

class PartitionDriver:
    """One open-loop driver's arrival process, as partition ``shard_id`` runs it.

    The parent-facing :class:`~repro.core.driver.OpenLoopDriver` splits into
    ``num_shards`` of these (one per partition, each with ``rate / S`` and a
    remainder-rule share of the caps).  Each draws from an independent
    per-partition stream and submits only the transactions whose first key
    the partition owns; transactions homed elsewhere are handed off with a
    ``client`` command and complete through ``client_done``.
    """

    def __init__(self, partition: Any, index: int, spec: Dict[str, Any]) -> None:
        self.partition = partition
        self.index = index
        shard_id = partition.shard_id
        shards = partition.config.num_shards
        total = spec.get("max_transactions")
        self.max_transactions = (
            None if total is None
            else total // shards + (1 if shard_id < total % shards else 0))
        self.rate_tps = spec["rate_tps"] / shards
        self.batch_size = spec.get("batch_size", 1)
        cap = spec.get("max_in_flight")
        self.max_in_flight = (
            None if cap is None
            else max(1, cap // shards + (1 if shard_id < cap % shards else 0)))
        self.client_id = f"{spec.get('client_id', 'open-loop')}@s{shard_id}"
        wspec = spec["workload"]
        self.workload = WorkloadGenerator(
            benchmark=wspec["benchmark"],
            num_shards=wspec["num_shards"],
            zipf_coefficient=wspec["zipf_coefficient"],
            num_keys=wspec["num_keys"],
            seed=partition_stream_seed(wspec["seed"], shard_id),
            vectorized=wspec.get("vectorized", False),
            vector_batch=wspec.get("vector_batch", 256),
        )
        self.stats = DriverStats()
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.partition.sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        stats = self.stats
        remaining = (None if self.max_transactions is None
                     else self.max_transactions - stats.submitted)
        if remaining is not None and remaining <= 0:
            return
        count = (self.batch_size if remaining is None
                 else min(self.batch_size, remaining))
        now = self.partition.sim.now
        for _ in range(count):
            if (self.max_in_flight is not None
                    and stats.in_flight >= self.max_in_flight):
                stats.dropped_arrivals += 1
                continue
            tx = self.workload.next_transaction_for_shard(
                self.partition.shard_id, client_id=self.client_id, now=now)
            stats.submitted += 1
            stats.in_flight += 1
            if stats.in_flight > stats.max_in_flight:
                stats.max_in_flight = stats.in_flight
            self.partition.submit_from_driver(tx, self)
        self.partition.sim.schedule(self.batch_size / self.rate_tps, self._tick)

    # ------------------------------------------------------------ completion
    def on_local_complete(self, record: DistributedTxRecord) -> None:
        """The transaction's home was this partition: completion is direct."""
        self.stats.record_completion(
            record.outcome is DistributedTxOutcome.COMMITTED, record.abort_reason,
            record.latency, self.partition.current_epoch)

    def on_remote_done(self, command: Command) -> None:
        """A ``client_done`` arrived from the remote home partition."""
        self.stats.record_completion(command.committed, command.reason,
                                     command.latency, command.epoch)


# --------------------------------------------------------------------------
# The distributed coordinator.
# --------------------------------------------------------------------------

@dataclass
class _Parked:
    """A PrepareTx parked in this partition's admission mirror, waiting."""

    tx_id: str
    prepare_tx: Transaction
    home: int
    attempt: int
    keys_outstanding: Set[str]


class HomeCoordinator:
    """Both coordination roles of one shard partition.

    **Home role** — 2PC coordination of every transaction homed here, by a
    :class:`~repro.txn.driver.TwoPhaseCommitDriver` with this object as its
    port: each parent<->shard relay of the legacy engine becomes a routed
    :class:`Command` (and the reference committee is reached through
    ``ref_submit``/``ref_receipt`` instead of a same-simulation cluster).
    Fault scenarios are per-home deep copies, so their counters depend only
    on this partition's own history.

    **Participant role** — this shard's half of other homes' transactions:
    local lock admission (the legacy ``_LockAdmission`` mirror, un-namespaced
    because it only ever sees this shard's keys), prepare execution and
    voting, decision execution and acking.

    The ``partition`` object supplies the runtime surface: ``sim``,
    ``config``, ``shard_id``, ``cluster``, ``adversary``, ``current_epoch``,
    ``route(command)``, ``watch(tx_id, callback)`` and
    ``emit_tx_done(record)``.
    """

    def __init__(self, partition: Any) -> None:
        self.partition = partition
        self.config: ShardedSystemConfig = partition.config
        self.sim = partition.sim
        self.shard_id: int = partition.shard_id
        # Per-home fault copy: hook counters (drop budgets, crash counts)
        # advance with this partition's own transaction history only.
        fault = copy.deepcopy(self.config.fault_scenario)
        if fault is not None:
            fault.bind(partition)
        #: The home role.  Fault hooks run in sorted shard order; under an
        #: armed adversary decisions get a re-drive deadline.
        self.driver = TwoPhaseCommitDriver(
            as_runtime(self.sim),
            TwoPhaseCommitCoordinator(
                self.config.use_reference_committee,
                retain_records=self.config.retain_tx_records,
                prepare_timeout=self.config.prepare_timeout),
            splitter_for(self.config.benchmark), self.shard_of, self,
            fault=fault, sort_shards=True,
            decision_timeout=(self.config.prepare_timeout
                              if partition.adversary is not None else None))
        self.coordinator = self.driver.coordinator
        self._ref_watchers: Dict[str, Callable] = {}
        # Participant-side admission mirror (queueing policies only).
        self.manager: Optional[LockManager] = (
            LockManager(StateStore(), policy=self.config.conflict_policy,
                        on_grant=self._on_lock_grant,
                        detect_deadlocks=self.config.deadlock_detection)
            if self.config.conflict_policy != "abort" else None)
        self._tx_home: Dict[str, int] = {}
        self._tx_keys: Dict[str, Tuple[str, ...]] = {}
        self._parked: Dict[str, _Parked] = {}
        self.wounded_transactions = 0
        self.deadlocks_detected = 0
        self.wait_timeouts = 0

    # ----------------------------------------------------------------- routing
    def shard_of(self, key: str) -> int:
        return shard_of_key(key, self.config.num_shards)

    def _route(self, **kwargs: Any) -> None:
        self.partition.route(Command(**kwargs))

    # ------------------------------------------------------------ home: submit
    def submit_transaction(self, tx: Transaction,
                           on_complete: Optional[Callable[[DistributedTxRecord], None]] = None,
                           origin: Optional[int] = None) -> DistributedTxRecord:
        """Coordinate a benchmark transaction homed at this partition."""
        shards = self.driver.shards_of(tx)
        if home_shard(shards) != self.shard_id:  # pragma: no cover - protocol bug guard
            raise SimulationError(
                f"transaction {tx.tx_id!r} homed at {home_shard(shards)} "
                f"submitted to partition {self.shard_id}")
        return self.driver.submit(tx, shards,
                                  on_complete if on_complete is not None else origin)

    def handle_client(self, command: Command) -> None:
        """A transaction homed here arrived from its owner (or the parent)."""
        self.submit_transaction(command.txs[0], origin=command.origin)

    # ------------------------------------------------ home: 2PC driver port
    def send_to_shards(self, record: DistributedTxRecord, op: str,
                       items: List[Tuple[int, Transaction, float]]) -> None:
        """Route prepares/decisions as commands; run single-shard txs locally.

        Every hop pays ``relay_delay``, even to this partition's own cluster,
        so latency never depends on whether a participant is its own home.
        """
        for shard_id, tx, extra_delay in items:
            if op == "single":
                self.partition.watch(tx.tx_id,
                                     self.driver.receipt_watcher(record, op, shard_id))
            if op in ("single", "retry"):
                self.sim.schedule(self.config.relay_delay,
                                  lambda tx=tx, attempt=record.redrives:
                                  self.partition.cluster.submit([tx], attempt=attempt))
                continue
            prepare = op == "prepare"
            self._route(due=self.sim.now + self.config.relay_delay + extra_delay,
                        dest=shard_id, op="prepare2pc" if prepare else "decision",
                        txs=(tx,), tx_id=record.tx_id, home=self.shard_id,
                        attempt=record.redrives,
                        priority=((record.started_at, record.begin_seq, self.shard_id)
                                  if prepare else ()))

    def send_to_reference(self, record: DistributedTxRecord, tx: Transaction,
                          on_receipt: Callable[[Any], None]) -> None:
        self._ref_watchers[tx.tx_id] = on_receipt
        self._route(due=self.sim.now + self.config.relay_delay,
                    dest=REFERENCE_SHARD_ID, op="ref_submit", txs=(tx,),
                    reply_to=self.shard_id, attempt=record.redrives)

    def handle_ref_receipt(self, command: Command) -> None:
        watcher = self._ref_watchers.pop(command.tx_id, None)
        if watcher is not None:
            watcher(command.receipt)

    def handle_vote(self, command: Command) -> None:
        """A participant's prepare vote arrived (step 1b)."""
        tx_id, shard_id, ok = command.tx_id, command.origin, command.ok
        record = self.coordinator.records.get(tx_id)
        if record is None:
            # Pruned (stale vote) or unknown while crashed: bookkeeping only.
            # The fault hooks and the reference submission need a live record
            # — documented deviation from the legacy engine, which never saw
            # votes for pruned records because its watchers died with them.
            if not self.coordinator.retain_records or self.coordinator.crashed:
                self.coordinator.record_prepare_vote(tx_id, shard_id, ok,
                                                     now=self.sim.now,
                                                     reason=command.reason)
            return
        self.driver.on_vote(record, shard_id, ok, command.reason)

    def handle_ack(self, command: Command) -> None:
        """A participant executed its CommitTx/AbortTx and acked (step 2)."""
        tx_id, shard_id = command.tx_id, command.origin
        record = self.coordinator.records.get(tx_id)
        if record is None:
            # Pruned (stale ack) — counted by the coordinator.
            self.coordinator.record_commit_ack(tx_id, shard_id, now=self.sim.now)
            return
        self.driver.on_ack(record, shard_id)

    def report_finished(self, record: DistributedTxRecord, target: Any) -> None:
        """Hand a finished record to its local callback, the parent or its origin."""
        if target is None:
            return  # fire-and-forget
        if callable(target):
            target(record)
        elif target == PARENT:
            self.partition.emit_tx_done(record)
        else:
            self._route(due=self.sim.now + self.config.relay_delay,
                        dest=target, op="client_done", tx_id=record.tx_id,
                        committed=record.outcome is DistributedTxOutcome.COMMITTED,
                        reason=record.abort_reason, latency=record.latency,
                        epoch=self.partition.current_epoch)

    # --------------------------------------------------------- participant role
    def handle_prepare(self, command: Command) -> None:
        """A home's PrepareTx arrived: admit it against the local lock mirror."""
        tx_id = command.tx_id
        prepare_tx = command.txs[0]
        self._tx_home[tx_id] = command.home
        if self.manager is None:
            # First-conflict-aborts policy: the on-chain lock check is the
            # admission, exactly as in the legacy engine.
            self._launch_prepare(prepare_tx, tx_id, command.home, command.attempt)
            return
        if tx_id in self._parked:
            return  # still waiting for locks; the original will vote
        if tx_id in self._tx_keys:
            # Re-driven prepare for an already-admitted transaction (its vote
            # went missing): lock re-acquisition is re-entrant, so simply
            # re-execute through a rotated member and re-vote.
            self._launch_prepare(prepare_tx, tx_id, command.home, command.attempt)
            return
        keys = tuple(prepare_tx.keys)
        self._tx_keys[tx_id] = keys
        now = self.sim.now
        outstanding: Set[str] = set()
        wounded: List[str] = []
        try:
            for key in keys:
                result = self.manager.acquire(key, tx_id, now=now,
                                              timestamp=tuple(command.priority))
                wounded.extend(result.wounded)
                if not result.granted:
                    outstanding.add(key)
        except DeadlockDetected:
            self.deadlocks_detected += 1
            self.manager.cancel_wait(tx_id)
            self._wound_victims(wounded)
            # Partial grants stay held until the abort decision executes.
            self._send_vote(tx_id, command.home, False,
                            "deadlock detected in the waits-for graph")
            return
        self._wound_victims(wounded)
        if not outstanding:
            self._launch_prepare(prepare_tx, tx_id, command.home, command.attempt)
            return
        self._parked[tx_id] = _Parked(tx_id=tx_id, prepare_tx=prepare_tx,
                                      home=command.home, attempt=command.attempt,
                                      keys_outstanding=outstanding)
        self.sim.schedule(self.config.wait_timeout, self._check_wait_timeout, tx_id)

    def _launch_prepare(self, prepare_tx: Transaction, tx_id: str, home: int,
                        attempt: int) -> None:
        def on_receipt(receipt: Any) -> None:
            ok = receipt.status is TxStatus.COMMITTED
            self._send_vote(tx_id, home, ok, receipt.error)

        self.partition.watch(prepare_tx.tx_id, on_receipt)
        self.partition.cluster.submit([prepare_tx], attempt=attempt)

    def _on_lock_grant(self, tx_id: str, key: str) -> None:
        parked = self._parked.get(tx_id)
        if parked is None:
            return
        parked.keys_outstanding.discard(key)
        if not parked.keys_outstanding:
            # The grant notification pays the relay hop (mirroring the legacy
            # dispatch relay); the launch re-checks _parked so a decision
            # arriving in between cancels it.
            self.sim.schedule(self.config.relay_delay, self._launch_parked, tx_id)

    def _launch_parked(self, tx_id: str) -> None:
        parked = self._parked.pop(tx_id, None)
        if parked is None:
            return  # decided (or timed out) while the grant was in flight
        self._launch_prepare(parked.prepare_tx, tx_id, parked.home, parked.attempt)

    def _check_wait_timeout(self, tx_id: str) -> None:
        parked = self._parked.get(tx_id)
        if parked is None or not parked.keys_outstanding:
            return  # admitted (or a launch is already scheduled)
        del self._parked[tx_id]
        self.wait_timeouts += 1
        for key in parked.keys_outstanding:
            self.manager.cancel_wait(tx_id, key)
        self._send_vote(tx_id, parked.home, False,
                        f"lock wait timed out after {self.config.wait_timeout}s")

    def _wound_victims(self, wounded: List[str]) -> None:
        for victim in wounded:
            self.wounded_transactions += 1
            self._wound(victim)

    def _wound(self, victim_tx_id: str) -> None:
        """Wound-wait: abort the younger holder through its home's vote path.

        The wounding shard votes NotOK itself; if it already voted OK the
        home records an equivocation and aborts the undecided transaction —
        same terminal state as the legacy unvoted-shard preference.
        """
        home = self._tx_home.get(victim_tx_id)
        if home is None:
            return  # already decided and cleaned up locally
        self._send_vote(victim_tx_id, home, False,
                        "wounded by an older transaction")

    def _send_vote(self, tx_id: str, home: int, ok: bool,
                   reason: Optional[str]) -> None:
        self._route(due=self.sim.now + self.config.relay_delay, dest=home,
                    op="vote", tx_id=tx_id, origin=self.shard_id, ok=ok,
                    reason=reason)

    def handle_decision(self, command: Command) -> None:
        """A home's CommitTx/AbortTx arrived: execute it and ack."""
        tx_id = command.tx_id
        decision_tx = command.txs[0]
        home = command.home
        parked = self._parked.pop(tx_id, None)
        if parked is not None and self.manager is not None:
            self.manager.cancel_wait(tx_id)

        def on_receipt(receipt: Any) -> None:
            if self.manager is not None:
                self.manager.finish(tx_id)
            self._tx_keys.pop(tx_id, None)
            self._tx_home.pop(tx_id, None)
            self._route(due=self.sim.now + self.config.relay_delay, dest=home,
                        op="ack", tx_id=tx_id, origin=self.shard_id)

        self.partition.watch(decision_tx.tx_id, on_receipt)
        self.partition.cluster.submit([decision_tx], attempt=command.attempt)
