"""Deterministic multi-core scale-out engine for the sharded system.

The legacy :class:`~repro.core.system.ShardedBlockchain` drains every
committee's events on one global simulation loop, so wall-clock time grows
with the *total* work of all shards.  This module partitions the deployment
— the paper's own structure makes the cut: committees only interact through
the coordination layer, never directly — so both the consensus work *and*
the coordination work run on multiple cores while outcomes stay
bit-identical for any worker count.

Two-tier architecture
---------------------
* Each shard committee becomes a :class:`ShardPartition`: its own
  :class:`~repro.sim.simulator.Simulator`, :class:`~repro.sim.network.Network`
  (and therefore its own jitter RNG stream), replicas, chaincode state —
  **and** its share of the coordination layer.  Every cross-shard
  transaction has a deterministic *home partition*
  (:func:`repro.core.homecoord.home_shard` — its first participating shard)
  whose :class:`~repro.core.homecoord.HomeCoordinator` runs the full 2PC
  state machine for it; every partition also plays the participant role
  (local lock admission, prepare/decision execution, voting) for other
  homes' transactions.  The reference committee is partition
  ``REFERENCE_SHARD_ID``, scheduled like any shard.
* Workload generation is in-partition too: each partition draws its own
  stream from a ``(seed, shard_id)`` split and keeps exactly the draws
  whose first key it owns, so the arrival process never touches the parent.
* The parent is a thin barrier orchestrator: it merges window outputs,
  runs the epoch/adversary control machinery, forwards API-submitted
  transactions to their homes, and gives the auditor access.  Its share of
  each window (``coordinator_work_share``) is a small fraction of the
  window time instead of a serial coordination bottleneck.

Execution model (conservative synchronous PDES)
-----------------------------------------------
Every cross-partition interaction — votes, decisions, re-drives, client
handoffs, reference receipts, parent control — pays at least
``config.relay_delay`` before the destination acts.  ``relay_delay`` is
therefore a *lookahead*: within any window of length ``barrier_interval <=
relay_delay``, no partition can affect another's present, so windows can be
executed independently.  The barrier loop alternates strictly: partitions
drain window ``(T, T+d]`` first (all inbound cross-partition commands
injected at the window start, sorted by the canonical ``(due, src, seq)``
order), then their parent-facing outputs are injected into the parent
sorted by ``(time, shard, seq)``, then the parent drains the same window.
Commands between partitions are exchanged as one batched
:class:`~repro.core.homecoord.WindowBlock` /
:class:`~repro.core.homecoord.WindowResult` pickle per worker per window —
commands held by a worker for its own partitions never leave the process,
but they are *also* only injected at the next window start, so grouping
cannot change injection timing.

Workers
-------
``workers=1`` drains all partitions inline in one process (the only mode
the :class:`~repro.audit.auditor.SafetyAuditor` can attach to — it needs
the replicas in its own address space).  ``workers=N`` forks N persistent
worker processes, each owning a fixed partition subset chosen by
:func:`~repro.core.homecoord.assign_partitions` (deterministic load-aware
LPT).  Because partitions are self-contained and all cross-partition
effects are window-batched, the grouping cannot affect outcomes:
``workers=N`` executes exactly the same per-partition event sequences as
``workers=1``.  Each partition additionally owns a disjoint transaction-id
stream swapped into the process-global counter around its windows, so even
transaction *ids* are grouping-invariant.

Epoch transitions and the adversary cross partition boundaries, so they are
decomposed into partition-local control operations exactly as before:
membership removal runs on the source partition, admission (including the
budget-checked corruption decision, the state-transfer sizing and the
activation timer) on the destination partition, with reports flowing back
to the parent to pace the next swap batch.  The TEE rollback is armed
directly on the partition that owns the victim shard.

Known deviations from the legacy engine (documented, covered by tests):
cross-shard waits-for cycles are invisible to any single partition's
detector and resolve through the wait timeout instead (per-shard cycles are
still detected); wound-wait ages are ``(started_at, begin_seq, home_shard)``
tuples because ``begin_seq`` is only per-home unique; and reference-
committee round trips pay two relay hops (home -> reference -> home) where
the legacy parent paid one.  All are worker-count-invariant, which is the
property the engine guarantees.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.consensus.cluster import ConsensusCluster, member_node_id
from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import (
    PARENT,
    AdmitReport,
    Command,
    HomeCoordinator,
    MarginReport,
    PartitionDriver,
    TxDone,
    WindowBlock,
    WindowResult,
    assign_partitions,
    group_by_dest,
    home_shard,
    inbound_sort_key,
    partition_stream_seed,
    partition_tx_counter,
)
from repro.core.system import (
    REFERENCE_SHARD_ID,
    ShardedBlockchain,
    ShardedSystemBase,
    build_committee,
    joiner_transfer_seconds,
    place_committees,
    quorum_margin,
)
from repro.errors import ConfigurationError, SimulationError
from repro.ledger.transaction import Transaction, swap_tx_counter
from repro.sim.latency import LanLatencyModel
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.txn.coordinator import (
    CoordinatorStats,
    DistributedTxOutcome,
    DistributedTxPhase,
    DistributedTxRecord,
)
from repro.workloads.generator import populate_shard_state


def build_system(config: ShardedSystemConfig) -> ShardedSystemBase:
    """Build the engine the config asks for.

    ``workers=None`` — the default — returns the legacy single-simulation
    engine (bit-identical to every committed baseline); an integer returns
    the partitioned scale-out engine.
    """
    if config.workers is None:
        return ShardedBlockchain(config)
    return ScaleOutShardedBlockchain(config)


@dataclass
class _BatchState:
    """Parent bookkeeping for one in-flight swap batch."""

    transition: Any
    index: int
    started_at: float
    outstanding: int
    max_transfer: float = 0.0


class ShardPartition:
    """One partition's self-contained sub-simulation (runs wherever its worker is).

    A normal shard partition owns its committee's consensus plus both
    coordination roles (home and participant, via
    :class:`~repro.core.homecoord.HomeCoordinator`) and its split of every
    open-loop driver.  The ``REFERENCE_SHARD_ID`` partition instead runs the
    reference committee's cluster and serves ``ref_submit`` commands from
    the homes.
    """

    def __init__(self, config: ShardedSystemConfig, shard_id: int) -> None:
        self.config = config
        self.shard_id = shard_id
        self.is_reference = shard_id == REFERENCE_SHARD_ID
        self.sim = Simulator(seed=partition_stream_seed(config.seed, shard_id))
        self.network = Network(self.sim, config.latency_model or LanLatencyModel())
        self.current_epoch = 0
        self._tx_counter = partition_tx_counter(shard_id)
        _, self.adversary = place_committees(config)
        self.cluster = build_committee(config, shard_id, self.sim, self.network,
                                       self.adversary)
        self._outbox: List[Any] = []
        self._routed: List[Command] = []
        self._outseq = itertools.count()
        self._watchers: Dict[str, Callable[[Any], None]] = {}
        self.cluster.subscribe_commits(self._on_commit)
        if self.is_reference:
            self.home: Optional[HomeCoordinator] = None
            self._reply_to: Dict[str, int] = {}
        else:
            populate_shard_state(self.cluster, shard_id, config.num_shards,
                                 config.benchmark, config.num_keys)
            self.home = HomeCoordinator(self)
            self.drivers: Dict[int, PartitionDriver] = {}
            self._remote_inflight: Dict[str, PartitionDriver] = {}
            if (self.adversary is not None
                    and self.adversary.config.tee_rollback_shard == shard_id):
                self.adversary.arm_cluster(self.sim, self.cluster)

    # ------------------------------------------------------------ construction
    def add_driver(self, index: int, spec: Dict[str, Any]) -> None:
        """Attach (and start) this partition's split of driver ``index``."""
        driver = PartitionDriver(self, index, spec)
        self.drivers[index] = driver
        driver.start()

    # ------------------------------------------- surface used by HomeCoordinator
    def route(self, command: Command) -> None:
        """Send a coordination command; self-targets never leave the partition."""
        if command.dest == self.shard_id:
            self.sim.schedule_at(command.due, self._apply, command)
            return
        command.src = self.shard_id
        command.seq = next(self._outseq)
        self._routed.append(command)

    def watch(self, tx_id: str, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback`` with the receipt when ``tx_id`` commits locally."""
        self._watchers[tx_id] = callback

    def emit_tx_done(self, record: DistributedTxRecord) -> None:
        """Report a parent-submitted transaction's completion upward."""
        self._outbox.append(TxDone(
            time=self.sim.now, shard=self.shard_id, seq=next(self._outseq),
            tx_id=record.tx_id,
            committed=record.outcome is DistributedTxOutcome.COMMITTED,
            abort_reason=record.abort_reason, started_at=record.started_at,
            decided_at=record.decided_at, completed_at=record.completed_at))

    def submit_from_driver(self, tx: Transaction, driver: PartitionDriver) -> None:
        """Route a locally generated arrival to its home partition."""
        shards = self.home.driver.shards_of(tx)
        home = home_shard(shards)
        if home == self.shard_id:
            self.home.submit_transaction(tx, on_complete=driver.on_local_complete)
            return
        self._remote_inflight[tx.tx_id] = driver
        self.route(Command(due=self.sim.now + self.config.relay_delay,
                           dest=home, op="client", txs=(tx,),
                           tx_id=tx.tx_id, origin=self.shard_id))

    # --------------------------------------------------------------- capture
    def _on_commit(self, event: Any) -> None:
        for receipt in event.receipts:
            if self.is_reference:
                reply_to = self._reply_to.pop(receipt.tx_id, None)
                if reply_to is not None:
                    self.route(Command(
                        due=self.sim.now + self.config.relay_delay,
                        dest=reply_to, op="ref_receipt", tx_id=receipt.tx_id,
                        receipt=receipt))
                continue
            watcher = self._watchers.pop(receipt.tx_id, None)
            if watcher is not None:
                watcher(receipt)

    # --------------------------------------------------------------- running
    def inject(self, commands: List[Command]) -> None:
        """Schedule inbound cross-partition commands at their exact due times.

        The caller injects them in the canonical ``(due, src, seq)`` order,
        which is the tie-break among same-time commands — so the apply order
        is worker-count-invariant.
        """
        for command in commands:
            self.sim.schedule_at(command.due, self._apply, command)

    def run_window(self, until: float, epoch: int) -> Tuple[List[Any], List[Command]]:
        """Drain events up to ``until``; return (parent outputs, routed commands).

        The partition's disjoint transaction-id stream is swapped into the
        process-global counter for the duration, so every id created here —
        driver arrivals, splitter prepares/decisions, reference votes —
        depends only on this partition's own history.
        """
        self.current_epoch = epoch
        previous = swap_tx_counter(self._tx_counter)
        try:
            self.sim.run_batched(until=until)
            self.sim.advance_clock(until)
        finally:
            self._tx_counter = swap_tx_counter(previous)
        out, self._outbox = self._outbox, []
        routed, self._routed = self._routed, []
        return out, routed

    def _apply(self, command: Command) -> None:
        op = command.op
        if op == "prepare2pc":
            self.home.handle_prepare(command)
        elif op == "vote":
            self.home.handle_vote(command)
        elif op == "decision":
            self.home.handle_decision(command)
        elif op == "ack":
            self.home.handle_ack(command)
        elif op == "client":
            self.home.handle_client(command)
        elif op == "client_done":
            driver = self._remote_inflight.pop(command.tx_id)
            driver.on_remote_done(command)
        elif op == "ref_submit":
            tx = command.txs[0]
            self._reply_to[tx.tx_id] = command.reply_to
            self.cluster.submit([tx], attempt=command.attempt)
        elif op == "ref_receipt":
            self.home.handle_ref_receipt(command)
        elif op == "remove":
            if self.adversary is not None:
                self.adversary.retire_physical(self.cluster, command.node_id)
            self.cluster.remove_member(command.node_id)
        elif op == "admit":
            self._apply_admit(command)
        elif op == "margin":
            margin = quorum_margin(self.cluster)
            if margin is not None:
                self._outbox.append(MarginReport(
                    time=self.sim.now, shard=self.shard_id,
                    seq=next(self._outseq), marker=command.marker, margin=margin))
        elif op == "prepare":
            self.cluster.prepare_for_membership_change()
        elif op == "track":
            self.cluster.enable_request_tracking()
        else:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"unknown partition op {op!r}")

    def _apply_admit(self, command: Command) -> None:
        """Admit a migrating joiner: corruption decision, sizing, activation.

        Mirrors the legacy ``_migrate_node`` destination half exactly: the
        corruption decision precedes ``admit_member`` (replicas snapshot
        their strategy at construction), the transfer is sized from this
        cluster's own state source, and activation is a local timer.
        """
        if self.adversary is not None:
            self.adversary.corrupt_joiner_if_budget(command.logical, self.cluster)
        node_id = self.cluster.admit_member()
        if node_id != command.node_id:
            raise SimulationError(
                f"scale-out desync: shard {self.shard_id} admitted {node_id}, "
                f"parent predicted {command.node_id}")
        transfer = joiner_transfer_seconds(self.cluster, self.config,
                                           command.transfer_override)
        self.sim.schedule(transfer, self.cluster.activate_member, node_id)
        self._outbox.append(AdmitReport(
            time=self.sim.now, shard=self.shard_id, seq=next(self._outseq),
            marker=command.marker, node_id=node_id, transfer=transfer))

    # --------------------------------------------------------------- summary
    def summary(self) -> Dict[str, int]:
        counters = {
            "committed": self.cluster.honest_observer().committed_transactions(),
            "view_changes": int(self.cluster.monitor.counter_value(
                f"view_changes.shard{self.shard_id}")),
            "pending_events": self.sim.pending_events,
            "degraded_observer_reads": self.cluster.degraded_observer_reads,
        }
        if self.home is not None:
            counters["wounded"] = self.home.wounded_transactions
            counters["deadlocks"] = self.home.deadlocks_detected
            counters["wait_timeouts"] = self.home.wait_timeouts
        if self.adversary is not None:
            counters["migrated_corruptions"] = self.adversary.migrated_corruptions
            counters["suppressed_corruptions"] = self.adversary.suppressed_corruptions
            counters["rollback_events"] = len(self.adversary.rollback_status())
            counters["rollbacks_completed"] = sum(
                1 for event in self.adversary.rollback_events if event.completed)
        return counters

    def coordination_stats(self) -> Optional[CoordinatorStats]:
        return self.home.coordinator.stats if self.home is not None else None

    def driver_stats(self) -> Dict[int, Any]:
        if self.home is None:
            return {}
        return {index: driver.stats for index, driver in self.drivers.items()}


# --------------------------------------------------------------------------
# Partition groups and executors.
# --------------------------------------------------------------------------

class _PartitionGroup:
    """A fixed set of partitions drained together, serially in shard order.

    Each worker process serves one group; with ``workers=1`` one group of
    every partition is itself the executor.

    Commands routed between two partitions of the same group are *held*
    locally instead of travelling through the parent — but they are still
    only injected at the next window start, in the same canonical order
    they would arrive in from the parent, so grouping cannot change what
    any partition observes.
    """

    def __init__(self, config: ShardedSystemConfig, shard_ids: List[int],
                 driver_specs: List[Dict[str, Any]]) -> None:
        self.shard_ids = sorted(shard_ids)
        self.partitions = {shard_id: ShardPartition(config, shard_id)
                           for shard_id in self.shard_ids}
        self._held: List[Command] = []
        for index, spec in enumerate(driver_specs):
            self.add_driver(index, spec)

    def add_driver(self, index: int, spec: Dict[str, Any]) -> None:
        for shard_id in self.shard_ids:
            partition = self.partitions[shard_id]
            if not partition.is_reference:
                partition.add_driver(index, spec)

    def run_window(self, block: WindowBlock) -> WindowResult:
        inbound = sorted(list(block.commands) + self._held, key=inbound_sort_key)
        self._held = []
        by_dest = group_by_dest(inbound)
        for shard_id in self.shard_ids:
            commands = by_dest.pop(shard_id, None)
            if commands:
                self.partitions[shard_id].inject(commands)
        if by_dest:  # pragma: no cover - protocol bug guard
            raise SimulationError(
                f"commands for partitions {sorted(by_dest)} delivered to a "
                f"group owning {self.shard_ids}")
        outputs: List[Any] = []
        routed_out: List[Command] = []
        for shard_id in self.shard_ids:
            out, routed = self.partitions[shard_id].run_window(
                block.until, block.epoch)
            outputs.extend(out)
            for command in routed:
                if command.dest in self.partitions:
                    self._held.append(command)
                else:
                    routed_out.append(command)
        return WindowResult(outputs=tuple(outputs), routed=tuple(routed_out))

    def summaries(self) -> Dict[int, Dict[str, int]]:
        return {shard_id: self.partitions[shard_id].summary()
                for shard_id in self.shard_ids}

    def coordination_stats(self) -> Dict[int, CoordinatorStats]:
        stats = {}
        for shard_id in self.shard_ids:
            partition_stats = self.partitions[shard_id].coordination_stats()
            if partition_stats is not None:
                stats[shard_id] = partition_stats
        return stats

    def driver_stats(self) -> Dict[int, Dict[int, Any]]:
        return {shard_id: self.partitions[shard_id].driver_stats()
                for shard_id in self.shard_ids}

    def pending_events(self) -> int:
        return (sum(p.sim.pending_events for p in self.partitions.values())
                + len(self._held))

    def close(self) -> None:
        """Nothing to stop: the group is the inline executor (``workers=1``)."""


def _worker_main(conn: Any, config: ShardedSystemConfig, shard_ids: List[int],
                 driver_specs: List[Dict[str, Any]]) -> None:
    """Worker process loop: build the owned partition group, serve barrier RPCs.

    A request is ``(verb, *args)`` and its reply ``(verb, result)``:
    ``"window"`` runs the barrier block, ``"stop"`` ends the loop, and any
    other verb names the :class:`_PartitionGroup` method to call.
    """
    group = _PartitionGroup(config, shard_ids, driver_specs)
    try:
        while True:
            verb, *args = conn.recv()
            if verb == "stop":
                conn.send((verb, None))
                return
            method = group.run_window if verb == "window" else getattr(group, verb)
            conn.send((verb, method(*args)))
    except EOFError:  # parent went away; nothing useful left to do
        return


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    owned: List[int]


class _ProcessExecutor:
    """Partitions spread over persistent worker processes.

    Grouping comes from :func:`~repro.core.homecoord.assign_partitions`
    (load-aware LPT).  A worker that dies mid-window is detected
    by polling its liveness while waiting for the reply, so a crash raises a
    clear error naming the lost partitions instead of hanging on a pipe.
    """

    def __init__(self, config: ShardedSystemConfig, shard_ids: List[int],
                 workers: int, driver_specs: List[Dict[str, Any]]) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self._workers: List[_WorkerHandle] = []
        for owned in assign_partitions(shard_ids, workers, config):
            if not owned:
                continue
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_worker_main,
                                  args=(child_conn, config, owned, driver_specs),
                                  daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn, owned))
        self._closed = False

    def _send(self, handle: _WorkerHandle, message: Tuple) -> None:
        try:
            handle.conn.send(message)
        except (OSError, ValueError) as exc:
            raise SimulationError(
                f"scale-out worker owning partitions {handle.owned} is gone "
                f"(exit code {handle.process.exitcode}); cannot send "
                f"{message[0]!r}") from exc

    def _recv(self, handle: _WorkerHandle, verb: str) -> Any:
        try:
            while not handle.conn.poll(0.25):
                if not handle.process.is_alive():
                    raise SimulationError(
                        f"scale-out worker owning partitions {handle.owned} "
                        f"died mid-run (exit code {handle.process.exitcode}; "
                        "see its stderr)")
            reply = handle.conn.recv()
        except EOFError as exc:
            raise SimulationError(
                f"scale-out worker owning partitions {handle.owned} closed "
                "its pipe mid-run (see its stderr)") from exc
        if reply[0] != verb:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"unexpected worker reply {reply[0]!r}")
        return reply[1]

    def _gather(self, verb: str, *args: Any) -> List[Any]:
        """Send ``verb`` to every worker, then read every reply: one round trip."""
        for handle in self._workers:
            self._send(handle, (verb, *args))
        return [self._recv(handle, verb) for handle in self._workers]

    def _merged(self, verb: str) -> Dict[int, Any]:
        merged: Dict[int, Any] = {}
        for part in self._gather(verb):
            merged.update(part)
        return merged

    def run_window(self, block: WindowBlock) -> WindowResult:
        by_dest = group_by_dest(block.commands)
        for handle in self._workers:
            commands: List[Command] = []
            for shard_id in handle.owned:
                commands.extend(by_dest.pop(shard_id, ()))
            self._send(handle, ("window", WindowBlock(
                until=block.until, epoch=block.epoch,
                commands=tuple(commands))))
        if by_dest:  # pragma: no cover - protocol bug guard
            raise SimulationError(
                f"commands for unowned partitions {sorted(by_dest)}")
        outputs: List[Any] = []
        routed: List[Command] = []
        for handle in self._workers:
            result = self._recv(handle, "window")
            outputs.extend(result.outputs)
            routed.extend(result.routed)
        return WindowResult(outputs=tuple(outputs), routed=tuple(routed))

    def add_driver(self, index: int, spec: Dict[str, Any]) -> None:
        self._gather("add_driver", index, spec)

    def summaries(self) -> Dict[int, Dict[str, int]]:
        return self._merged("summaries")

    def coordination_stats(self) -> Dict[int, CoordinatorStats]:
        return self._merged("coordination_stats")

    def driver_stats(self) -> Dict[int, Dict[int, Any]]:
        return self._merged("driver_stats")

    def pending_events(self) -> int:
        return sum(self._gather("pending_events"))

    def close(self) -> None:
        """Stop the workers; join with a timeout and terminate stragglers."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.conn.send(("stop",))
                self._recv(handle, "stop")
            except (OSError, SimulationError):
                pass
            handle.conn.close()
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)


# --------------------------------------------------------------------------
# The scale-out system.
# --------------------------------------------------------------------------

class ScaleOutShardedBlockchain(ShardedSystemBase):
    """The partitioned engine: same API, barrier-synchronized execution.

    See the module docstring for the model.  Every committee (the reference
    committee as partition ``REFERENCE_SHARD_ID``), the 2PC coordination,
    lock admission, fault injection and the drivers live inside the
    partitions.  The parent keeps the epoch and adversary *control*
    machinery — its per-shard controls are buffered partition commands —
    the client-forwarding API and the barrier loop itself.
    """

    #: OpenLoopDriver checks this: on this engine drivers register a spec
    #: and the partitions generate (their splits of) the arrival stream.
    IN_PARTITION_DRIVERS = True

    def __init__(self, config: ShardedSystemConfig) -> None:
        if config.workers is None:
            raise ConfigurationError(
                "ScaleOutShardedBlockchain requires config.workers")
        super().__init__(config)
        self.barrier_interval = (config.barrier_interval
                                 if config.barrier_interval is not None
                                 else config.relay_delay)
        self._cmd_buffer: List[Command] = []
        self._parent_seq = itertools.count()
        self._marker_counter = itertools.count()
        self._pending_admits: Dict[int, _BatchState] = {}
        self._margin_sinks: Dict[int, Any] = {}
        self._executor: Optional[Any] = None
        #: Next free member slot per shard (admissions predict joiner ids).
        self._next_slot = {shard_id: config.committee_size
                           for shard_id in range(config.num_shards)}
        self._driver_specs: List[Dict[str, Any]] = []
        self._remote_txs: Dict[str, Tuple[DistributedTxRecord, Optional[Callable]]] = {}
        #: Wall-clock split of the barrier loop: time inside executor windows
        #: (partition work) vs. time draining the parent's own simulation.
        self._window_seconds = 0.0
        self._parent_seconds = 0.0
        self._start_epoch_clock()

    # -------------------------------------------------------------- executor
    @property
    def executor(self) -> Any:
        if self._executor is None:
            # Partitions get the config minus the worker knobs themselves
            # (their own engine is the plain in-process one); the fault
            # scenario stays — each home coordinator binds its own deep copy.
            spec = dataclasses.replace(self.config, workers=None,
                                       barrier_interval=None)
            shard_ids = list(range(self.config.num_shards))
            if self.config.use_reference_committee:
                shard_ids.append(REFERENCE_SHARD_ID)
            if self.config.workers <= 1:
                self._executor = _PartitionGroup(spec, shard_ids,
                                                 self._driver_specs)
            else:
                self._executor = _ProcessExecutor(spec, shard_ids,
                                                  self.config.workers,
                                                  self._driver_specs)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()

    # ------------------------------------------------------------ drivers
    def register_partition_driver(self, spec: Dict[str, Any]) -> int:
        """Register one open-loop driver's spec; partitions run its splits.

        Returns the driver's index (the key into :meth:`driver_stats`).
        Registration before the first ``advance`` is free — the specs ride
        along with partition construction; afterwards it is a live RPC to
        every worker.
        """
        index = len(self._driver_specs)
        self._driver_specs.append(spec)
        if self._executor is not None:
            self._executor.add_driver(index, spec)
        return index

    def driver_stats(self, index: int):
        """Driver ``index``'s statistics, merged over all partitions."""
        from repro.core.driver import DriverStats

        merged = DriverStats()
        per_partition = self.executor.driver_stats()
        for shard_id in sorted(per_partition):
            stats = per_partition[shard_id].get(index)
            if stats is not None:
                merged.merge(stats)
        return merged

    # ------------------------------------------------------------ submission
    def _emit(self, command: Command) -> None:
        command.src = PARENT
        command.seq = next(self._parent_seq)
        self._cmd_buffer.append(command)

    def submit_transaction(self, tx: Transaction,
                           on_complete: Optional[Callable[[DistributedTxRecord], None]] = None) -> DistributedTxRecord:
        """Forward an API-submitted transaction to its home partition.

        The returned record is a parent-side shadow: its outcome fields are
        filled in when the home's completion report arrives through the
        barrier exchange (``on_complete`` fires at that point).  The real
        coordination state lives in the home partition.
        """
        shards = self.shards_for_transaction(tx)
        record = DistributedTxRecord(tx_id=tx.tx_id, transaction=tx,
                                     shards=sorted(shards),
                                     phase=DistributedTxPhase.BEGINNING,
                                     started_at=self.sim.now)
        self._remote_txs[tx.tx_id] = (record, on_complete)
        self._emit(Command(due=self.sim.now + self.config.relay_delay,
                           dest=home_shard(shards), op="client", txs=(tx,),
                           tx_id=tx.tx_id, origin=PARENT))
        return record

    def _on_tx_done(self, done: TxDone) -> None:
        entry = self._remote_txs.pop(done.tx_id, None)
        if entry is None:
            return
        record, on_complete = entry
        record.phase = DistributedTxPhase.DONE
        record.outcome = (DistributedTxOutcome.COMMITTED if done.committed
                          else DistributedTxOutcome.ABORTED)
        record.abort_reason = done.abort_reason
        record.decided_at = done.decided_at
        record.completed_at = done.completed_at
        if on_complete is not None:
            on_complete(record)

    # ------------------------------------------------------------ barrier loop
    def advance(self, until: float, max_events: Optional[int] = None) -> None:
        """Run the barrier loop to ``until`` (``max_events`` is not supported).

        Strict alternation per window: ship the buffered command block,
        drain the partitions, inject their outputs at exact times, drain
        the parent.  Commands the partitions routed to each other come back
        in the window result and ship with the *next* block.
        """
        delta = self.barrier_interval
        now = self.sim.now
        while now < until:
            end = min(now + delta, until)
            commands, self._cmd_buffer = self._cmd_buffer, []
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            started = perf_counter()
            result = self.executor.run_window(WindowBlock(
                until=end, epoch=self.epochs.current_epoch,
                commands=tuple(sorted(commands, key=inbound_sort_key))))
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            mid = perf_counter()
            self._window_seconds += mid - started
            self._cmd_buffer.extend(result.routed)
            self._deliver_outputs(list(result.outputs))
            self.sim.run_batched(until=end)
            self.sim.advance_clock(end)
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            self._parent_seconds += perf_counter() - mid
            now = end

    @property
    def coordinator_work_share(self) -> float:
        """Fraction of barrier-loop wall-clock spent in the parent tier.

        The tentpole's target metric: with coordination, admission, the
        reference committee and the drivers all in-partition, the parent's
        share of each window should be small (< 20% under the benchmark
        gate) — it only merges outputs and runs epoch/adversary control.
        """
        total = self._window_seconds + self._parent_seconds
        return self._parent_seconds / total if total > 0 else 0.0

    def pending_activity(self) -> bool:
        return (self.sim.pending_events > 0 or bool(self._cmd_buffer)
                or self.executor.pending_events() > 0)

    def _deliver_outputs(self, outputs: List[Any]) -> None:
        """Inject partition outputs as parent events at their exact times.

        The ``(time, shard, seq)`` sort is the canonical arrival order: it
        depends only on what the partitions did, never on how they were
        grouped onto workers.
        """
        for item in sorted(outputs, key=lambda it: (it.time, it.shard, it.seq)):
            if isinstance(item, TxDone):
                self.sim.schedule_at(item.time, self._on_tx_done, item)
            elif isinstance(item, AdmitReport):
                self.sim.schedule_at(item.time, self._on_admit_report, item)
            elif isinstance(item, MarginReport):
                self.sim.schedule_at(item.time, self._on_margin_report, item)
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown partition output {item!r}")

    # ------------------------------------------------------------ run/results
    def coordination_stats(self) -> CoordinatorStats:
        """Merge the per-partition home coordinators' statistics.

        Partitions are merged in sorted shard order, so the concatenated
        latency list (kept only under ``retain_tx_records``) is
        deterministic too.
        """
        merged = CoordinatorStats()
        per_partition = self.executor.coordination_stats()
        for shard_id in sorted(per_partition):
            merged.merge(per_partition[shard_id])
        return merged

    def _committee_summaries(self, with_reference: bool) -> Dict[int, Dict[str, int]]:
        summaries = self.executor.summaries()
        if not with_reference:
            summaries.pop(REFERENCE_SHARD_ID, None)
        return summaries

    def audit_clusters(self) -> Dict[int, ConsensusCluster]:
        if self.config.workers > 1:
            raise ConfigurationError(
                "the safety auditor needs the replicas in-process: audit a "
                "workers=1 run (bit-identical to workers=N by the engine's "
                "determinism guarantee) instead")
        return {shard_id: partition.cluster
                for shard_id, partition in self.executor.partitions.items()}

    # ------------------------------------------------------------ epoch ops
    def _enable_request_tracking(self) -> None:
        self._emit_to_shards("track")

    def _prepare_for_membership_change(self) -> None:
        self._emit_to_shards("prepare")

    def _emit_to_shards(self, op: str) -> None:
        due = self.sim.now + self.config.relay_delay
        for shard_id in range(self.config.num_shards):
            self._emit(Command(due=due, dest=shard_id, op=op))

    def _run_migration_step(self, transition: Any, index: int) -> None:
        """Emit one swap batch as partition control ops; reports pace the next.

        Mirrors the legacy step exactly, shifted by the relay lookahead: ops
        execute on their partitions at ``t + relay_delay``, the destination
        sizes the transfer itself, and the next batch starts at
        ``max(t + batch_interval, t_ops + max_transfer)`` once every admit
        of this batch has reported — the same pacing rule as the legacy
        ``max(batch_interval, max_transfer)`` reschedule.
        """
        plan = transition.plan
        if index >= plan.num_steps:
            self._complete_transition(transition)
            return
        now = self.sim.now
        due = now + self.config.relay_delay
        markers: List[int] = []
        for logical in sorted(plan.nodes_in_step(index)):
            old_shard = transition.old_map[logical]
            new_shard = transition.new_map[logical]
            self._emit(Command(due=due, dest=old_shard, op="remove",
                               node_id=self._replica_of[logical]))
            slot = self._next_slot[new_shard]
            self._next_slot[new_shard] = slot + 1
            new_physical = member_node_id(new_shard, slot)
            marker = next(self._marker_counter)
            markers.append(marker)
            self._emit(Command(due=due, dest=new_shard, op="admit",
                               node_id=new_physical, logical=logical,
                               transfer_override=transition.transfer_override,
                               marker=marker))
            self._replica_of[logical] = new_physical
            transition.stats.nodes_moved += 1
        batch = _BatchState(transition=transition, index=index,
                            started_at=now, outstanding=len(markers))
        for marker in markers:
            self._pending_admits[marker] = batch
        # Margins are sampled on every shard after this batch's ops applied,
        # mirroring the legacy per-batch _record_membership_margins sweep.
        for shard_id in range(self.config.num_shards):
            marker = next(self._marker_counter)
            self._margin_sinks[marker] = transition.stats
            self._emit(Command(due=due, dest=shard_id, op="margin",
                               marker=marker))
        if not markers:
            delay = transition.batch_interval if index + 1 < plan.num_steps else 0.0
            self.sim.schedule(delay, self._run_migration_step, transition,
                              index + 1)

    def _on_admit_report(self, report: AdmitReport) -> None:
        batch = self._pending_admits.pop(report.marker)
        batch.outstanding -= 1
        batch.max_transfer = max(batch.max_transfer, report.transfer)
        if batch.outstanding:
            return
        transition = batch.transition
        if batch.index + 1 < transition.plan.num_steps:
            next_time = max(batch.started_at + transition.batch_interval,
                            self.sim.now + batch.max_transfer)
            self.sim.schedule_at(next_time, self._run_migration_step,
                                 transition, batch.index + 1)
        else:
            self.sim.schedule(batch.max_transfer, self._run_migration_step,
                              transition, batch.index + 1)

    def _on_margin_report(self, report: MarginReport) -> None:
        self._margin_sinks.pop(report.marker).record_margin(report.shard, report.margin)

