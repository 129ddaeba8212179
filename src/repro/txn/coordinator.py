"""Lifecycle of a distributed transaction under our coordination protocol (Figure 5).

A distributed transaction proceeds through three steps:

1a) **Prepare** — after the reference committee executes BeginTx, PrepareTx
    requests go to every involved transaction committee, which tries to take
    the transaction's locks and votes PrepareOK / PrepareNotOK;
1b) **Pre-Commit** — the reference committee counts quorums of votes
    (Figure 6's state machine);
2)  **Commit** — once the reference committee reaches Committed (or Aborted),
    CommitTx (or AbortTx) requests are executed at the involved committees.

:class:`DistributedTxRecord` tracks one transaction through those steps and
:class:`TwoPhaseCommitCoordinator` manages a set of records.  The class is
pure bookkeeping — the actual message flow is driven by
:class:`repro.txn.driver.TwoPhaseCommitDriver` (behind every engine) or
directly by unit tests.  It also supports the *trusted coordinator* mode (no
reference committee), which is what the paper's "w/o R" configurations
measure.

Runtime neutrality
------------------
The coordinator sits *below* the runtime seam on purpose: it never schedules
anything and never reads a clock.  Every transition takes an explicit
``now=`` timestamp and deadlines are plain data (``prepare_deadline``)
checked by the driver — which passes ``runtime.now`` from a
:class:`~repro.runtime.sim.SimRuntime` in the simulated engines, and from an
:class:`~repro.runtime.wallclock.AsyncioRuntime` in the wall-clock service
gateway (:mod:`repro.service.gateway`).  That is what lets
the identical 2PC state machine back both the simulation and the live HTTP
service.

Fault behaviour
---------------
Shard votes are **idempotent-or-rejected**: a repeated identical vote is a
counted no-op, an ``ok`` revote after a ``not ok`` can never resurrect the
transaction, and a ``not ok`` revote after an ``ok`` (an equivocating shard)
aborts an undecided transaction — exactly what the replicated
:class:`ReferenceCommitteeStateMachine` does, so the local bookkeeping and
the on-chain state machine can never diverge.  The recorded first vote is
never overwritten.

The coordinator also models **crash/recovery** (Section 6.3's observation
that the coordinator state lives on the blockchain): while crashed, incoming
votes and acks are buffered (they are durable in the shards' ledgers, so a
recovering coordinator re-reads them); :meth:`recover` replays the buffer and
reports which decided-but-unacknowledged transactions must be re-driven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.errors import CoordinatorFailureError, TransactionAbortedError
from repro.ledger.transaction import Transaction
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeStateMachine


class DistributedTxPhase(str, Enum):
    """Where a distributed transaction currently is in the Figure-5 flow."""

    INIT = "init"
    BEGINNING = "beginning"          # BeginTx submitted to R, not yet executed
    PREPARING = "preparing"          # PrepareTx outstanding at tx-committees
    VOTING = "voting"                # votes being relayed to R
    COMMITTING = "committing"        # CommitTx / AbortTx outstanding
    DONE = "done"


class DistributedTxOutcome(str, Enum):
    """Final outcome of a distributed transaction."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    PENDING = "pending"


@dataclass
class DistributedTxRecord:
    """Book-keeping for one distributed transaction."""

    tx_id: str
    transaction: Transaction
    shards: List[int]
    phase: DistributedTxPhase = DistributedTxPhase.INIT
    outcome: DistributedTxOutcome = DistributedTxOutcome.PENDING
    prepare_votes: Dict[int, bool] = field(default_factory=dict)
    commit_acks: Dict[int, bool] = field(default_factory=dict)
    started_at: float = 0.0
    decided_at: Optional[float] = None
    completed_at: Optional[float] = None
    abort_reason: Optional[str] = None
    #: Arrival sequence number assigned by the coordinator at begin() — the
    #: tie-break on ``started_at`` for age-based (wound-wait) scheduling.
    begin_seq: int = 0
    #: Absolute deadline by which every prepare vote should have arrived
    #: (set when prepares go out under a configured ``prepare_timeout``).
    prepare_deadline: Optional[float] = None
    #: How many times the scheduler re-drove this transaction's prepares or
    #: decision (retries and crash recovery).
    redrives: int = 0

    @property
    def is_cross_shard(self) -> bool:
        return len(self.shards) > 1

    @property
    def all_votes_in(self) -> bool:
        return set(self.prepare_votes) >= set(self.shards)

    @property
    def all_acks_in(self) -> bool:
        return set(self.commit_acks) >= set(self.shards)

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class CoordinatorStats:
    """Aggregate statistics over all distributed transactions seen by a coordinator.

    The mean latency is maintained as a running sum so it stays O(1) in
    memory; the per-transaction ``latencies`` list is only populated when the
    coordinator retains records (it is skipped in bounded-memory mode).
    """

    started: int = 0
    committed: int = 0
    aborted: int = 0
    cross_shard: int = 0
    latency_sum: float = 0.0
    latency_count: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Repeated identical votes / acks observed (idempotent no-ops).
    duplicate_votes: int = 0
    duplicate_acks: int = 0
    #: NotOK revotes from a shard that already voted OK (equivocation
    #: attempts; stale OK-after-NotOK arrivals count as stale_messages).
    equivocations: int = 0
    #: Votes/acks that arrived for already-pruned transactions (stale).
    stale_messages: int = 0
    #: Coordinator crash/recovery cycles and transactions re-driven by them.
    coordinator_crashes: int = 0
    redriven_transactions: int = 0

    @property
    def abort_rate(self) -> float:
        decided = self.committed + self.aborted
        return self.aborted / decided if decided else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.latency_count if self.latency_count else 0.0

    def merge(self, other: "CoordinatorStats") -> None:
        """Fold another coordinator's statistics into these (scale-out merging)."""
        for name, value in vars(other).items():
            if name == "latencies":
                self.latencies.extend(value)
            else:
                setattr(self, name, getattr(self, name) + value)


@dataclass
class RecoveryReport:
    """What :meth:`TwoPhaseCommitCoordinator.recover` found to do.

    ``completed`` lists transactions that finished while the coordinator was
    down (their buffered acks completed them during replay); ``redrive``
    lists decided transactions whose decision must be re-sent to shards with
    missing acks; ``restart`` lists still-undecided transactions whose
    prepares must be (re-)sent.
    """

    replayed: int = 0
    completed: List[DistributedTxRecord] = field(default_factory=list)
    redrive: List[DistributedTxRecord] = field(default_factory=list)
    restart: List[DistributedTxRecord] = field(default_factory=list)


class TwoPhaseCommitCoordinator:
    """Tracks distributed transactions through the Figure-5 protocol.

    Parameters
    ----------
    use_reference_committee:
        When True, decisions are taken by the replicated
        :class:`ReferenceCommitteeStateMachine`; when False the coordinator
        itself decides (the classic, trusted 2PC coordinator), which is the
        "w/o R" configuration of Figure 13.
    retain_records:
        When False, a transaction's record (and its reference-committee
        entry) is discarded the moment it completes; aggregate statistics
        are unaffected.  Long open-loop runs use this to keep the
        coordinator's memory bounded by the in-flight window instead of the
        run length.
    prepare_timeout:
        When set, :meth:`mark_begin_executed` stamps each record with a
        prepare deadline (``now + prepare_timeout``); the scheduler polls
        :meth:`expired_prepares` to re-drive transactions whose votes went
        missing.  ``None`` (the default) disables deadlines entirely — the
        seed behaviour.
    """

    def __init__(self, use_reference_committee: bool = True,
                 retain_records: bool = True,
                 prepare_timeout: Optional[float] = None) -> None:
        self.use_reference_committee = use_reference_committee
        self.retain_records = retain_records
        self.prepare_timeout = prepare_timeout
        self.reference = ReferenceCommitteeStateMachine()
        self.records: Dict[str, DistributedTxRecord] = {}
        self.stats = CoordinatorStats()
        self.crashed = False
        self._crash_buffer: List[tuple] = []
        self._counter = itertools.count()

    # ----------------------------------------------------------------- begin
    def begin(self, transaction: Transaction, shards: Sequence[int],
              now: float = 0.0) -> DistributedTxRecord:
        """Step 0: register the transaction and (logically) submit BeginTx to R."""
        shards = sorted(set(shards))
        if not shards:
            raise TransactionAbortedError("a transaction must involve at least one shard")
        record = DistributedTxRecord(
            tx_id=transaction.tx_id, transaction=transaction,
            shards=list(shards), started_at=now,
            phase=DistributedTxPhase.BEGINNING,
            begin_seq=next(self._counter),
        )
        self.records[transaction.tx_id] = record
        self.stats.started += 1
        if record.is_cross_shard:
            self.stats.cross_shard += 1
        if self.use_reference_committee:
            self.reference.begin(transaction.tx_id, len(shards))
        return record

    def mark_begin_executed(self, tx_id: str, now: float = 0.0) -> DistributedTxRecord:
        """R has executed BeginTx: PrepareTx requests may now be sent (step 1a)."""
        record = self._record(tx_id)
        record.phase = DistributedTxPhase.PREPARING
        if self.prepare_timeout is not None:
            record.prepare_deadline = now + self.prepare_timeout
        return record

    # ----------------------------------------------------------------- voting
    def record_prepare_vote(self, tx_id: str, shard_id: int, ok: bool,
                            now: float = 0.0, reason: Optional[str] = None) -> Optional[DistributedTxRecord]:
        """A tx-committee reached consensus on its PrepareTx and voted (step 1b).

        With ``retain_records=False`` a vote may arrive for a transaction
        that already decided, completed and was pruned (e.g. a slow shard's
        PrepareOK after another shard's PrepareNotOK aborted the
        transaction); such stale votes are ignored and ``None`` is returned.

        Revotes from a shard that already voted are idempotent-or-rejected:
        an identical revote is a counted no-op, an OK after a NotOK is
        rejected (it can never resurrect the transaction), and a NotOK after
        an OK — an equivocating shard — aborts an undecided transaction,
        mirroring the replicated state machine.  The first recorded vote is
        never overwritten.
        """
        if self.crashed:
            self._crash_buffer.append(("vote", tx_id, shard_id, ok, now, reason))
            return None
        if not self.retain_records and tx_id not in self.records:
            self.stats.stale_messages += 1
            return None
        record = self._record(tx_id)
        if shard_id not in record.shards:
            raise TransactionAbortedError(
                f"shard {shard_id} is not a participant of {tx_id!r}"
            )
        previous = record.prepare_votes.get(shard_id)
        if previous is not None:
            if previous == ok:
                self.stats.duplicate_votes += 1
                return record
            if ok:
                # An OK revote after a NotOK can never resurrect the
                # transaction: it is a stale late arrival, not equivocation.
                self.stats.stale_messages += 1
                return record
            self.stats.equivocations += 1
            if record.outcome is not DistributedTxOutcome.PENDING:
                return record
            # NotOK after OK while undecided falls through as an abort vote
            # (the replicated state machine treats it the same way); the
            # recorded first vote is preserved.
        else:
            record.prepare_votes[shard_id] = ok
        if record.outcome is DistributedTxOutcome.PENDING:
            # A late vote on an already-decided transaction is recorded but
            # must not regress the lifecycle phase (the seed reset DONE
            # records back to VOTING here).
            record.phase = DistributedTxPhase.VOTING
        if not ok and reason and record.abort_reason is None:
            record.abort_reason = reason
        if self.use_reference_committee:
            if ok:
                state = self.reference.prepare_ok(tx_id, shard_id)
            else:
                state = self.reference.prepare_not_ok(tx_id, shard_id)
            decided = state in (CoordinatorState.COMMITTED, CoordinatorState.ABORTED)
            committed = state == CoordinatorState.COMMITTED
        else:
            if not ok:
                decided, committed = True, False
            elif record.all_votes_in and all(record.prepare_votes.values()):
                decided, committed = True, True
            else:
                decided, committed = False, False
        if decided and record.outcome is DistributedTxOutcome.PENDING:
            record.outcome = (DistributedTxOutcome.COMMITTED if committed
                              else DistributedTxOutcome.ABORTED)
            record.decided_at = now
            record.phase = DistributedTxPhase.COMMITTING
        return record

    # ----------------------------------------------------------------- commit
    def record_commit_ack(self, tx_id: str, shard_id: int, now: float = 0.0) -> Optional[DistributedTxRecord]:
        """A tx-committee executed its CommitTx/AbortTx (step 2).

        Stale acks for pruned transactions are ignored (see
        :meth:`record_prepare_vote`); duplicate acks are counted no-ops and
        acks from non-participant shards are rejected.
        """
        if self.crashed:
            self._crash_buffer.append(("ack", tx_id, shard_id, now))
            return None
        if not self.retain_records and tx_id not in self.records:
            self.stats.stale_messages += 1
            return None
        record = self._record(tx_id)
        if shard_id not in record.shards:
            raise TransactionAbortedError(
                f"shard {shard_id} is not a participant of {tx_id!r}"
            )
        if shard_id in record.commit_acks:
            self.stats.duplicate_acks += 1
            return record
        record.commit_acks[shard_id] = True
        if record.all_acks_in and record.phase is not DistributedTxPhase.DONE:
            self._finish(record, now)
        return record

    def _finish(self, record: DistributedTxRecord, now: float) -> None:
        record.phase = DistributedTxPhase.DONE
        record.completed_at = now
        if record.outcome is DistributedTxOutcome.COMMITTED:
            self.stats.committed += 1
        else:
            self.stats.aborted += 1
        if record.latency is not None:
            self.stats.latency_sum += record.latency
            self.stats.latency_count += 1
            if self.retain_records:
                self.stats.latencies.append(record.latency)
        if not self.retain_records:
            self.records.pop(record.tx_id, None)
            self.reference.transactions.pop(record.tx_id, None)

    # -------------------------------------------------------- crash / recovery
    def crash(self) -> None:
        """The coordinator fails: incoming votes/acks are buffered, not applied.

        The buffered messages model durability — shard votes and acks are
        transactions in the shards' (and R's) ledgers, so a recovering
        coordinator re-reads them rather than losing them.
        """
        if self.crashed:
            return
        self.crashed = True
        self.stats.coordinator_crashes += 1

    def recover(self, now: float = 0.0) -> RecoveryReport:
        """Come back up: replay buffered messages and report what to re-drive.

        Raises :class:`~repro.errors.CoordinatorFailureError` if the
        coordinator is not crashed.
        """
        if not self.crashed:
            raise CoordinatorFailureError("recover() called on a live coordinator")
        self.crashed = False
        report = RecoveryReport()
        buffered, self._crash_buffer = self._crash_buffer, []
        completed_ids = set()
        for op in buffered:
            if op[0] == "vote":
                _, tx_id, shard_id, ok, at, reason = op
                record = self.record_prepare_vote(tx_id, shard_id, ok, now=at,
                                                  reason=reason)
            else:
                _, tx_id, shard_id, at = op
                record = self.record_commit_ack(tx_id, shard_id, now=at)
            report.replayed += 1
            if (record is not None and record.phase is DistributedTxPhase.DONE
                    and record.tx_id not in completed_ids):
                completed_ids.add(record.tx_id)
                report.completed.append(record)
        for record in self.records.values():
            if record.phase is DistributedTxPhase.DONE:
                continue
            if record.outcome is DistributedTxOutcome.PENDING:
                report.restart.append(record)
            else:
                report.redrive.append(record)
        # The scheduler acting on the report calls mark_redriven() for the
        # transactions it actually re-drives; merely being listed (e.g. a
        # decision already sent, acks still in flight) is not a re-drive.
        return report

    def mark_redriven(self, record: DistributedTxRecord) -> None:
        """The scheduler re-sent this transaction's prepares or decision."""
        record.redrives += 1
        self.stats.redriven_transactions += 1

    def expired_prepares(self, now: float) -> List[DistributedTxRecord]:
        """Undecided transactions whose prepare deadline has passed."""
        if self.prepare_timeout is None:
            return []
        return [
            record for record in self.records.values()
            if record.outcome is DistributedTxOutcome.PENDING
            and record.prepare_deadline is not None
            and record.prepare_deadline <= now
        ]

    # ------------------------------------------------------------------ misc
    def _record(self, tx_id: str) -> DistributedTxRecord:
        record = self.records.get(tx_id)
        if record is None:
            raise TransactionAbortedError(f"unknown distributed transaction {tx_id!r}")
        return record
