"""Unit tests of the shared 2PC driver's live-service policies.

The engines' goldens pin the simulated paths; these drive
``TwoPhaseCommitDriver`` directly with a port that loses every message, to
check what the gateway relies on: the ``max_redrives`` budget turns lost
prepares into NotOK votes and lost decisions into forced acks, and shards
in ``down`` are force-acked instead of re-driven, so every transaction
finishes.
"""

from __future__ import annotations

from repro.core.splitters import splitter_for
from repro.runtime.base import as_runtime
from repro.sim.simulator import Simulator
from repro.txn.coordinator import DistributedTxOutcome, TwoPhaseCommitCoordinator
from repro.txn.driver import TwoPhaseCommitDriver
from repro.workloads.generator import shard_of_key
from repro.workloads.smallbank import SmallbankWorkload, account_key

SHARDS = 2


class _LossyPort:
    """Records every send and never delivers anything."""

    def __init__(self) -> None:
        self.sent = []
        self.finished = []

    def send_to_shards(self, record, op, items):
        self.sent.extend((op, shard_id) for shard_id, _tx, _delay in items)

    def report_finished(self, record, target):
        self.finished.append((record.tx_id, target))


def _driver(max_redrives=2, down=()):
    sim = Simulator(seed=1)
    port = _LossyPort()
    driver = TwoPhaseCommitDriver(
        as_runtime(sim),
        TwoPhaseCommitCoordinator(use_reference_committee=False, prepare_timeout=1.0),
        splitter_for("smallbank"), lambda key: shard_of_key(key, SHARDS), port,
        decision_timeout=1.0, max_redrives=max_redrives, down=down)
    return sim, port, driver


def _payment(cross_shard: bool):
    """A sendPayment between accounts on two shards (or on one)."""
    first = shard_of_key(account_key("0"), SHARDS)
    other = next(str(i) for i in range(1, 100)
                 if (shard_of_key(account_key(str(i)), SHARDS) != first) == cross_shard)
    return SmallbankWorkload(num_accounts=100).chaincode.new_transaction(
        "sendPayment", {"from": "0", "to": other, "amount": 1})


def test_lost_prepares_and_decisions_exhaust_the_redrive_budget():
    sim, port, driver = _driver(max_redrives=2)
    tx = _payment(cross_shard=True)
    record = driver.submit(tx, driver.shards_of(tx), target="client")
    sim.run(until=30.0)
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert record.abort_reason == "prepare timeout"
    assert port.finished == [(tx.tx_id, "client")]
    ops = [op for op, _shard in port.sent]
    # One prepare round plus two re-drives, then one decision round whose
    # acks are forced: the budget is shared and already spent.
    assert ops.count("prepare") == 3 * SHARDS
    assert ops.count("decision") == SHARDS
    assert driver.coordinator.stats.redriven_transactions == 2


def test_lost_single_shard_transaction_aborts_after_the_budget():
    sim, port, driver = _driver(max_redrives=1)
    tx = _payment(cross_shard=False)
    record = driver.submit(tx, driver.shards_of(tx))
    sim.run(until=30.0)
    assert [op for op, _shard in port.sent] == ["single", "retry"]
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert port.finished == [(tx.tx_id, None)]


def test_decisions_to_down_shards_are_force_acked():
    down = {}
    sim, port, driver = _driver(down=down)
    tx = _payment(cross_shard=True)
    shards = driver.shards_of(tx)
    record = driver.submit(tx, shards)
    down[shards[1]] = "link closed"
    driver.force_votes(record, [(shards[1], "shard down")])
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert ("decision", shards[1]) not in port.sent
    assert ("decision", shards[0]) in port.sent
    assert shards[1] in record.commit_acks
    sim.run(until=30.0)
    assert port.finished == [(tx.tx_id, None)]
