"""The home-side 2PC driver, written once for every engine (Figures 5 and 6).

:class:`TwoPhaseCommitDriver` walks a distributed transaction through the
protocol on top of the :class:`~repro.txn.coordinator.TwoPhaseCommitCoordinator`
bookkeeping: BeginTx at the reference committee (or straight to prepares
under a trusted coordinator), the PrepareTx fan-out, the vote relay, the
CommitTx/AbortTx fan-out and its acks — plus the single-shard path, the
prepare / single-shard / decision deadline re-drives, stale duplicate vote
and ack replays, wound entry and coordinator crash/recovery.

It schedules through the runtime seam (``now`` / ``schedule``) and reaches
its engine through a port that each engine implements as a thin adapter:

* ``send_to_shards(record, op, items)`` relays ``(shard, tx, extra_delay)``
  items for ``op`` — ``"single"``, ``"retry"`` (a single-shard
  re-submission whose receipt watcher is still armed), ``"prepare"`` or
  ``"decision"`` — adding the engine's own relay delay.  Results come back
  through :meth:`~TwoPhaseCommitDriver.receipt_watcher` callbacks, or through
  :meth:`~TwoPhaseCommitDriver.on_vote` / :meth:`~TwoPhaseCommitDriver.on_ack`
  where participants vote and ack by message.
* ``send_to_reference(record, tx, on_receipt)`` submits a
  reference-committee transaction.
* ``report_finished(record, target)`` hands back a finished record and the
  ``target`` given to :meth:`~TwoPhaseCommitDriver.submit`.

What differs between engines is explicit policy on the driver (the keyword
arguments and ``admission``); README "Cross-shard transactions" tabulates it.
Every ``Transaction`` the driver creates draws its id from a process-global
counter, and fault hooks may count calls, so both happen in one fixed order:
the engine's shard order, which is the splitter's dict order unless
``sort_shards`` is set.
"""

from __future__ import annotations

from typing import Any, Callable, Container, Dict, Iterable, List, Optional, Set, Tuple

from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus
from repro.txn.coordinator import (
    DistributedTxOutcome,
    DistributedTxPhase,
    DistributedTxRecord,
    TwoPhaseCommitCoordinator,
)
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeChaincode

PENDING = DistributedTxOutcome.PENDING
DONE = DistributedTxPhase.DONE

#: One per-shard transaction to relay: ``(shard_id, tx, extra_delay)``.
ShardItem = Tuple[int, Transaction, float]


def route_transaction(splitter: Any, tx: Transaction,
                      shard_of: Callable[[str], int]) -> List[int]:
    """The shards whose state a benchmark transaction touches.

    Asks the benchmark's splitter; a transaction it cannot parse falls back
    to the shards of its declared keys (shard 0 if it declares none).
    """
    try:
        return splitter.shards_touched(tx, shard_of)
    except Exception:
        shards = {shard_of(key) for key in tx.keys}
        return sorted(shards) if shards else [0]


class TwoPhaseCommitDriver:
    """Drives distributed transactions through 2PC for one coordinator.

    ``coordinator`` supplies ``use_reference_committee`` and
    ``prepare_timeout``; ``splitter``/``shard_of`` split and route
    transactions; ``port`` is the engine adapter.  Policy: ``fault`` is a
    bound :class:`~repro.txn.faults.FaultScenario`; ``sort_shards`` fans out
    in sorted shard order; ``decision_timeout`` re-drives unacked decisions
    (None: never); past ``max_redrives`` re-drives (None: no limit) a lost
    prepare gets NotOK votes and a lost decision forced acks; shards in
    ``down`` are unreachable: never re-driven, their decisions force-acked.
    """

    def __init__(self, runtime: Any, coordinator: TwoPhaseCommitCoordinator,
                 splitter: Any, shard_of: Callable[[str], int], port: Any, *,
                 fault: Any = None, sort_shards: bool = False,
                 decision_timeout: Optional[float] = None,
                 max_redrives: Optional[int] = None,
                 down: Container[int] = ()) -> None:
        self.runtime = runtime
        self.coordinator = coordinator
        self.splitter = splitter
        self.shard_of = shard_of
        self.port = port
        self.fault = fault
        self.sort_shards = sort_shards
        self.decision_timeout = decision_timeout
        self.max_redrives = max_redrives
        self.down = down
        #: Coordinator-side lock admission (the legacy engine's queueing
        #: policies): ``request``, ``waiting_shards``, ``release_shard`` and
        #: ``finish``.  Set by the adapter that owns one.
        self.admission: Any = None
        self._completion: Dict[str, Any] = {}
        self._decisions_sent: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------- routing
    def shards_of(self, tx: Transaction) -> List[int]:
        """The shards whose state a benchmark transaction touches."""
        return route_transaction(self.splitter, tx, self.shard_of)

    def _order(self, per_shard: Dict[int, Transaction]) -> List[int]:
        return sorted(per_shard) if self.sort_shards else list(per_shard)

    # ---------------------------------------------------------- submission
    def submit(self, tx: Transaction, shards: List[int],
               target: Any = None) -> DistributedTxRecord:
        """Begin coordinating ``tx``; ``target`` is handed back at the finish."""
        now = self.runtime.now
        record = self.coordinator.begin(tx, shards, now=now)
        if target is not None:
            self._completion[tx.tx_id] = target
        if not record.is_cross_shard:
            self.coordinator.mark_begin_executed(tx.tx_id, now=now)
            self.port.send_to_shards(record, "single", [(record.shards[0], tx, 0.0)])
            if self.coordinator.prepare_timeout is not None:
                self._schedule_check(self._check_single_shard_deadline, tx.tx_id)
            return record
        if (self.fault is not None and not self.coordinator.crashed
                and self.fault.crash_coordinator(record, "prepare")):
            self._crash_coordinator()
        if self.coordinator.use_reference_committee:
            self._submit_begin_tx(record)
        else:
            self.coordinator.mark_begin_executed(tx.tx_id, now=now)
            self._send_prepares(record)
        return record

    def _submit_begin_tx(self, record: DistributedTxRecord) -> None:
        if self.coordinator.crashed:
            return  # recovery restarts records still in BEGINNING
        begin = ReferenceCommitteeChaincode().new_transaction(
            "beginTx", {"tx_id": record.tx_id, "num_committees": len(record.shards)},
            client_id=record.transaction.client_id,
        )

        def on_receipt(receipt: TransactionReceipt) -> None:
            self.coordinator.mark_begin_executed(record.tx_id, now=self.runtime.now)
            self._send_prepares(record)

        self.port.send_to_reference(record, begin, on_receipt)

    def _send_prepares(self, record: DistributedTxRecord,
                       only_shards: Optional[List[int]] = None) -> None:
        """Fan the per-shard PrepareTx out (fault- and admission-aware)."""
        if self.coordinator.crashed:
            return  # recovery re-drives undecided transactions
        prepares = self.splitter.prepare_transactions(record.transaction, self.shard_of)
        items: List[ShardItem] = []
        for shard_id in self._order(prepares):
            if only_shards is not None and shard_id not in only_shards:
                continue
            prepare_tx = prepares[shard_id]
            extra_delay = 0.0
            if self.fault is not None:
                if self.fault.drop_prepare(record, shard_id):
                    continue  # the prepare-deadline re-drive recovers this
                extra_delay = self.fault.prepare_delay(record, shard_id)
            if self.admission is not None:
                status = self.admission.request(record, shard_id, prepare_tx,
                                                extra_delay)
                if status == "waiting":
                    continue  # sent by send_admitted_prepare on the last grant
                if status == "deadlock":
                    self.handle_prepare_outcome(
                        record, shard_id, False,
                        reason="deadlock detected in the waits-for graph")
                    continue
            items.append((shard_id, prepare_tx, extra_delay))
        self.port.send_to_shards(record, "prepare", items)
        if self.coordinator.prepare_timeout is not None:
            self._schedule_check(self._check_prepare_deadline, record.tx_id)

    def send_admitted_prepare(self, record: DistributedTxRecord, shard_id: int,
                              prepare_tx: Transaction, extra_delay: float) -> None:
        """A PrepareTx parked by the admission layer got its last lock."""
        if record.outcome is not PENDING:
            return  # decided (e.g. wounded or timed out elsewhere) meanwhile
        self.port.send_to_shards(record, "prepare", [(shard_id, prepare_tx, extra_delay)])

    # ------------------------------------------------------------ receipts
    def receipt_watcher(self, record: DistributedTxRecord, op: str,
                        shard_id: int) -> Callable[[TransactionReceipt], None]:
        """The callback for the receipt of a transaction sent for ``op``."""
        if op == "prepare":
            return lambda receipt: self.on_vote(
                record, shard_id, receipt.status is TxStatus.COMMITTED, receipt.error)
        if op == "decision":
            return lambda receipt: self.on_ack(record, shard_id)

        def on_single(receipt: TransactionReceipt) -> None:
            now = self.runtime.now
            self.coordinator.record_prepare_vote(
                record.tx_id, shard_id, receipt.status is TxStatus.COMMITTED,
                now=now, reason=receipt.error)
            self.coordinator.record_commit_ack(record.tx_id, shard_id, now=now)
            if record.phase is DONE:
                self._finish(record)
        return on_single

    # --------------------------------------------------------------- votes
    def on_vote(self, record: DistributedTxRecord, shard_id: int, ok: bool,
                reason: Optional[str]) -> None:
        """A participant's prepare vote reached the coordinator (step 1b)."""
        if self.fault is not None and self.fault.drop_vote(record, shard_id, ok):
            return  # vote lost; the prepare-deadline re-drive recovers
        self.handle_prepare_outcome(record, shard_id, ok, reason)

    def handle_prepare_outcome(self, record: DistributedTxRecord, shard_id: int,
                               ok: bool, reason: Optional[str]) -> None:
        """A shard's prepare outcome is known: relay the vote."""
        if self.coordinator.use_reference_committee:
            self._submit_vote(record, shard_id, ok, reason)
        else:
            before = record.outcome
            self._record_vote(record, shard_id, ok, reason)
            if record.outcome is not PENDING and before is PENDING:
                self._send_decision(record)

    def _record_vote(self, record: DistributedTxRecord, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        self.coordinator.record_prepare_vote(record.tx_id, shard_id, ok,
                                             now=self.runtime.now, reason=reason)
        if self.fault is not None:
            duplicates = self.fault.duplicate_votes(record, shard_id, ok)
            for index in range(duplicates):
                self.runtime.schedule(
                    self.fault.stale_delay() * (index + 1),
                    self._replay_vote, record.tx_id, shard_id, ok, reason)

    def _replay_vote(self, tx_id: str, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        """A stale duplicate vote arrives (idempotent-or-rejected)."""
        if self.coordinator.retain_records and tx_id not in self.coordinator.records:
            return
        self.coordinator.record_prepare_vote(tx_id, shard_id, ok,
                                             now=self.runtime.now, reason=reason)

    def _submit_vote(self, record: DistributedTxRecord, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        vote = ReferenceCommitteeChaincode().new_transaction(
            "prepareOK" if ok else "prepareNotOK",
            {"tx_id": record.tx_id, "shard_id": shard_id},
            client_id=record.transaction.client_id,
        )

        def on_receipt(receipt: TransactionReceipt) -> None:
            before = record.outcome
            self._record_vote(record, shard_id, ok, reason)
            decided_state = None
            if receipt.result and isinstance(receipt.result, dict):
                decided_state = receipt.result.get("state")
            if record.outcome is not PENDING and before is PENDING:
                # Sanity: the replicated state machine must agree with the
                # local bookkeeping (both implement Figure 6).
                if decided_state == CoordinatorState.ABORTED.value:
                    assert record.outcome is DistributedTxOutcome.ABORTED
                self._send_decision(record)

        self.port.send_to_reference(record, vote, on_receipt)

    def force_votes(self, record: DistributedTxRecord,
                    votes: Iterable[Tuple[int, str]]) -> None:
        """Record NotOK votes for unreachable shards, then decide if that did."""
        before = record.outcome
        for shard_id, reason in votes:
            self.coordinator.record_prepare_vote(record.tx_id, shard_id, False,
                                                 now=self.runtime.now, reason=reason)
        if record.outcome is not PENDING and before is PENDING:
            self._send_decision(record)

    def wound(self, victim_tx_id: str) -> None:
        """Wound-wait: an older transaction aborts the younger lock holder."""
        record = self.coordinator.records.get(victim_tx_id)
        if record is None or record.outcome is not PENDING:
            return
        # Abort through the normal vote path.  Prefer a participant shard
        # that has not voted yet (an undecided record always has one) so the
        # wound is a first vote, not a conflicting revote; the shard's own
        # later OK vote is then rejected as stale.
        shard_id = next((shard for shard in record.shards
                         if shard not in record.prepare_votes),
                        record.shards[0])
        self.handle_prepare_outcome(record, shard_id, False,
                                    reason="wounded by an older transaction")

    # ------------------------------------------------------------ decision
    def _send_decision(self, record: DistributedTxRecord,
                       only_shards: Optional[List[int]] = None) -> None:
        if self.coordinator.crashed:
            return  # recovery re-drives decided-but-unsent decisions
        if (self.fault is not None
                and self.fault.crash_coordinator(record, "decide")):
            self._crash_coordinator()
            return  # decided but unsent: re-driven at recovery
        if record.outcome is DistributedTxOutcome.COMMITTED:
            per_shard = self.splitter.commit_transactions(record.transaction, self.shard_of)
        else:
            per_shard = self.splitter.abort_transactions(record.transaction, self.shard_of)
        sent = self._decisions_sent.setdefault(record.tx_id, set())
        items: List[ShardItem] = []
        forced = False
        for shard_id in self._order(per_shard):
            if only_shards is not None and shard_id not in only_shards:
                continue
            if shard_id in self.down:
                # Unreachable: the ack is forced, exactly as for decisions
                # already in flight when the shard went down.
                self.coordinator.record_commit_ack(record.tx_id, shard_id,
                                                   now=self.runtime.now)
                forced = True
                continue
            sent.add(shard_id)
            extra_delay = (self.fault.decision_delay(record, shard_id)
                           if self.fault is not None else 0.0)
            items.append((shard_id, per_shard[shard_id], extra_delay))
        self.port.send_to_shards(record, "decision", items)
        if forced and record.phase is DONE:
            self._finish(record)
            return
        if self.decision_timeout is not None:
            self.runtime.schedule(self.decision_timeout,
                                  self._check_decision_deadline, record.tx_id)

    def on_ack(self, record: DistributedTxRecord, shard_id: int) -> None:
        """A participant executed its CommitTx/AbortTx (step 2)."""
        self.coordinator.record_commit_ack(record.tx_id, shard_id, now=self.runtime.now)
        if self.admission is not None:
            self.admission.release_shard(record.tx_id, shard_id)
        if self.fault is not None:
            duplicates = self.fault.duplicate_acks(record, shard_id)
            for index in range(duplicates):
                self.runtime.schedule(self.fault.stale_delay() * (index + 1),
                                      self._replay_ack, record.tx_id, shard_id)
        if record.all_acks_in:
            self._finish(record)

    def _replay_ack(self, tx_id: str, shard_id: int) -> None:
        """A stale duplicate commit ack arrives (a counted no-op)."""
        if self.coordinator.retain_records and tx_id not in self.coordinator.records:
            return
        self.coordinator.record_commit_ack(tx_id, shard_id, now=self.runtime.now)

    def force_acks(self, record: DistributedTxRecord, shards: Iterable[int]) -> None:
        """Count acks that can no longer arrive, finishing the record if done."""
        for shard_id in shards:
            self.coordinator.record_commit_ack(record.tx_id, shard_id,
                                               now=self.runtime.now)
        if record.phase is DONE:
            self._finish(record)

    # ---------------------------------------------------------- re-drives
    def _schedule_check(self, check: Callable[[str], None], tx_id: str) -> None:
        self.runtime.schedule(self.coordinator.prepare_timeout, check, tx_id)

    def _not_due(self, record: DistributedTxRecord,
                 check: Callable[[str], None]) -> bool:
        """Re-arm ``check`` if the record's prepare deadline is still ahead."""
        now = self.runtime.now
        deadline = record.prepare_deadline
        if deadline is not None and deadline <= now:
            return False
        delay = deadline - now if deadline is not None else self.coordinator.prepare_timeout
        self.runtime.schedule(max(delay, 1e-9), check, record.tx_id)
        return True

    def _budget_spent(self, record: DistributedTxRecord) -> bool:
        return self.max_redrives is not None and record.redrives >= self.max_redrives

    def _check_single_shard_deadline(self, tx_id: str) -> None:
        """Re-submit a single-shard transaction whose receipt never came.

        The single-shard mirror of the cross-shard prepare re-drive: a
        transaction lost in transit (e.g. submitted to a shard in the middle
        of a swap-all outage) is retried instead of hanging forever.  The
        receipt watcher is still registered, and the shards dedup
        re-submissions on their seen/committed id sets, so a retry that
        races the original is a no-op.
        """
        record = self.coordinator.records.get(tx_id)
        if (record is None or record.outcome is not PENDING
                or record.phase is DONE or record.prepare_votes):
            return
        if self._not_due(record, self._check_single_shard_deadline):
            return
        shard_id = record.shards[0]
        if shard_id in self.down:
            return  # the peer-down handling already aborted it
        if self._budget_spent(record):
            self.coordinator.record_prepare_vote(tx_id, shard_id, False,
                                                 now=self.runtime.now,
                                                 reason="prepare timeout")
            self.force_acks(record, [shard_id])
            return
        self.coordinator.mark_redriven(record)
        record.prepare_deadline = self.runtime.now + self.coordinator.prepare_timeout
        self.port.send_to_shards(record, "retry", [(shard_id, record.transaction, 0.0)])
        self._schedule_check(self._check_single_shard_deadline, tx_id)

    def _check_prepare_deadline(self, tx_id: str) -> None:
        """The prepare deadline passed: re-drive the shards with missing votes.

        Shards whose prepare is parked in the admission layer are not
        missing, they are waiting; neither are shards known to be down.
        """
        record = self.coordinator.records.get(tx_id)
        if record is None or record.outcome is not PENDING or record.phase is DONE:
            return
        if self.coordinator.crashed:
            # Recovery will re-drive; check again afterwards.
            self._schedule_check(self._check_prepare_deadline, tx_id)
            return
        if self._not_due(record, self._check_prepare_deadline):
            return
        waiting = (self.admission.waiting_shards(tx_id)
                   if self.admission is not None else ())
        missing = [shard for shard in record.shards
                   if shard not in record.prepare_votes
                   and shard not in waiting and shard not in self.down]
        if missing and self._budget_spent(record):
            self.force_votes(record, [(shard, "prepare timeout") for shard in missing])
            return
        record.prepare_deadline = self.runtime.now + self.coordinator.prepare_timeout
        if missing:
            self.coordinator.mark_redriven(record)
            self._send_prepares(record, only_shards=missing)
        else:
            self._schedule_check(self._check_prepare_deadline, tx_id)

    def _check_decision_deadline(self, tx_id: str) -> None:
        """Re-drive a decided transaction whose commit/abort acks never came.

        Shards whose ack is still missing get the decision again via a
        rotated member; re-delivery is safe because the decision chaincodes
        are idempotent (Smallbank applies deltas only while the prepare lock
        is held, KVStore writes are absolute).
        """
        record = self.coordinator.records.get(tx_id)
        if record is None or record.phase is DONE or record.outcome is PENDING:
            return
        if self.coordinator.crashed:
            # Recovery re-drives unsent decisions; check again afterwards.
            self.runtime.schedule(self.decision_timeout,
                                  self._check_decision_deadline, tx_id)
            return
        missing = [shard for shard in record.shards if shard not in record.commit_acks]
        live = [shard for shard in missing if shard not in self.down]
        if missing and (not live or self._budget_spent(record)):
            # Past the budget, or with only down shards missing, the acks
            # are forced so the record finishes instead of hanging.
            self.force_acks(record, missing)
            return
        if live:
            self.coordinator.mark_redriven(record)
            self._send_decision(record, only_shards=live)

    # -------------------------------------------------- crash and recovery
    def _crash_coordinator(self) -> None:
        """The coordinator fails; recovery is scheduled per the fault scenario."""
        if self.coordinator.crashed:
            return  # one recovery is already scheduled
        self.coordinator.crash()
        delay = self.fault.recovery_delay() if self.fault is not None else 1.0
        self.runtime.schedule(delay, self._recover_coordinator)

    def _recover_coordinator(self) -> None:
        """Replay buffered votes/acks, then re-drive unfinished transactions."""
        if not self.coordinator.crashed:
            return
        report = self.coordinator.recover(now=self.runtime.now)
        for record in report.completed:
            self._finish(record)
        for record in report.restart:
            self.coordinator.mark_redriven(record)
            if (record.phase is DistributedTxPhase.BEGINNING
                    and self.coordinator.use_reference_committee):
                self._submit_begin_tx(record)
                continue
            missing = [shard for shard in record.shards
                       if shard not in record.prepare_votes]
            self._send_prepares(record, only_shards=missing or list(record.shards))
        for record in report.redrive:
            sent = self._decisions_sent.get(record.tx_id, set())
            unsent = [shard for shard in record.shards
                      if shard not in record.commit_acks and shard not in sent]
            if unsent:
                self.coordinator.mark_redriven(record)
                self._send_decision(record, only_shards=unsent)

    # ---------------------------------------------------------- completion
    def _finish(self, record: DistributedTxRecord) -> None:
        if self.admission is not None:
            self.admission.finish(record.tx_id)
        self._decisions_sent.pop(record.tx_id, None)
        self.port.report_finished(record, self._completion.pop(record.tx_id, None))
