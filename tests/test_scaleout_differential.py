"""Differential tests of the scale-out engine (core/scaleout.py).

The engine's contract: for a given seed+config, the commit/abort/view-change
fingerprint is **bit-identical** whether the partitions are drained inline
(``workers=1``, the seed-faithful path) or spread over worker processes
(``workers=N``), and invariant under the barrier interval.  These tests
compare fingerprints across worker counts over the composed scenario
matrix — conflict policies, fault injection, prepare re-drives, epoch
reconfigurations and the Byzantine/TEE adversary — and sweep the barrier
interval as a property test.
"""

from __future__ import annotations

import pytest

from repro.audit.auditor import SafetyAuditor
from repro.core import (
    AdversaryConfig,
    OpenLoopDriver,
    ScaleOutShardedBlockchain,
    ShardedBlockchain,
    ShardedSystemConfig,
    build_system,
)
from repro.errors import ConfigurationError
from repro.ledger.transaction import rebase_tx_counter
from repro.txn.faults import (
    CoordinatorCrashScenario,
    ShardStallScenario,
    VoteDropScenario,
    VoteReplayScenario,
)

TXS = 150
RATE = 400.0


def _base_config(**overrides) -> dict:
    config = dict(num_shards=3, committee_size=4, num_keys=400, seed=13)
    config.update(overrides)
    return config


#: name -> (config overrides factory, explicit reconfiguration or None).
#: Factories (not instances) because fault scenarios hold per-run state.
SCENARIOS = {
    "plain": (lambda: _base_config(), None),
    "no-reference": (lambda: _base_config(use_reference_committee=False), None),
    "wound-wait": (lambda: _base_config(conflict_policy="wound-wait"), None),
    "wait-policy": (lambda: _base_config(conflict_policy="wait",
                                         wait_timeout=0.5), None),
    "faults-redrive": (lambda: _base_config(
        fault_scenario=ShardStallScenario(shard_ids=(0, 1), delay=0.3,
                                          first_n=20),
        prepare_timeout=2.0), None),
    "vote-drop": (lambda: _base_config(fault_scenario=VoteDropScenario(max_drops=4),
                                       prepare_timeout=2.0), None),
    "vote-replay": (lambda: _base_config(
        fault_scenario=VoteReplayScenario(duplicates=1, delay=0.3),
        prepare_timeout=2.0), None),
    "coordinator-crash": (lambda: _base_config(
        fault_scenario=CoordinatorCrashScenario(phase="decide", at_tx=3,
                                                recover_after=1.0),
        prepare_timeout=2.0), None),
    "epoch-swap-all": (lambda: _base_config(prepare_timeout=2.0), "swap-all"),
    "epoch-swap-batch": (lambda: _base_config(swap_batch_interval=0.5), "swap-batch"),
    "epoch-auto": (lambda: _base_config(epoch_duration=0.4,
                                        auto_reconfigure=True), None),
    "adversary-tee": (lambda: _base_config(
        adversary=AdversaryConfig(strategy="equivocate", corrupted_per_shard=1,
                                  follow_migrations=True,
                                  tee_rollback_at=0.3, tee_rollback_shard=1),
        prepare_timeout=2.0), "swap-batch"),
    "kvstore": (lambda: _base_config(benchmark="kvstore"), None),
}


#: workers=1 fingerprint of every scenario, captured before the 2PC driver
#: was shared between the engines.  The worker-count comparison alone
#: cannot catch a change that moves both sides (they run the same home
#: coordinator); this pins the absolute outcome.
WORKERS1_GOLDENS = {
    "adversary-tee": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 6,
        "driver": (115, 35)},
    "coordinator-crash": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (115, 35)},
    "epoch-auto": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 6,
        "driver": (115, 35)},
    "epoch-swap-all": {"committed": 107, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 4, 2: 0},
        "reconfigurations": 1, "nodes_moved": 9,
        "driver": (107, 35)},
    "epoch-swap-batch": {"committed": 114, "aborted": 36, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 1, "nodes_moved": 9,
        "driver": (114, 36)},
    "faults-redrive": {"committed": 112, "aborted": 38, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (112, 38)},
    "kvstore": {"committed": 70, "aborted": 80, "started": 150,
        "per_shard_committed": {0: 167, 1: 213, 2: 194},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (70, 80)},
    "no-reference": {"committed": 116, "aborted": 34, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (116, 34)},
    "plain": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (115, 35)},
    "vote-drop": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 155, 1: 170, 2: 142},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (115, 35)},
    "vote-replay": {"committed": 115, "aborted": 35, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (115, 35)},
    "wait-policy": {"committed": 118, "aborted": 32, "started": 150,
        "per_shard_committed": {0: 139, 1: 153, 2: 131},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (118, 32)},
    "wound-wait": {"committed": 150, "aborted": 0, "started": 150,
        "per_shard_committed": {0: 153, 1: 166, 2: 140},
        "view_changes": {0: 0, 1: 0, 2: 0},
        "reconfigurations": 0, "nodes_moved": 0,
        "driver": (150, 0)},
}


def _run(workers, overrides, reconfigure, barrier=None, extra_horizon=10.0):
    """One full run; returns the system fingerprint (plus transition stats)."""
    # Pin the process-global transaction id counter so the two runs of a
    # comparison generate identical transaction ids (ids feed state sizes).
    rebase_tx_counter(0)
    config = ShardedSystemConfig(workers=workers, barrier_interval=barrier,
                                 **overrides)
    system = build_system(config)
    if reconfigure is not None:
        system.perform_reconfiguration(reconfigure, at_time=0.3)
    driver = OpenLoopDriver(system, rate_tps=RATE, max_transactions=TXS)
    driver.run_to_completion()
    # Run past the drain so in-flight epoch transitions (batches spaced by
    # swap_batch_interval) finish and their migrations enter the fingerprint.
    system.advance(system.sim.now + extra_horizon)
    fingerprint = system.fingerprint()
    fingerprint["reconfigurations"] = system.reconfigurations_completed
    fingerprint["nodes_moved"] = sum(stats.nodes_moved
                                     for stats in system.epoch_transitions)
    fingerprint["driver"] = (driver.stats.committed, driver.stats.aborted)
    system.close()
    return fingerprint


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workers_do_not_change_outcomes(name):
    """workers=1 matches its golden and workers=2 is bit-identical to it."""
    factory, reconfigure = SCENARIOS[name]
    inline = _run(1, factory(), reconfigure)
    assert inline == WORKERS1_GOLDENS[name], f"scenario {name} moved at workers=1"
    processes = _run(2, factory(), reconfigure)
    assert inline == processes, f"scenario {name} diverged across worker counts"


def test_worker_count_sweep_plain():
    """More workers than shards, odd counts — all identical."""
    factory, reconfigure = SCENARIOS["plain"]
    reference = _run(1, factory(), reconfigure)
    for workers in (3, 5):
        assert _run(workers, factory(), reconfigure) == reference


def test_barrier_interval_sweep_is_invariant():
    """Property: any valid barrier interval yields the same fingerprint.

    ``relay_delay`` is the engine's lookahead; every window length in
    ``(0, relay_delay]`` must produce identical outcomes.
    """
    factory, reconfigure = SCENARIOS["epoch-swap-batch"]
    relay = ShardedSystemConfig().relay_delay
    reference = _run(1, factory(), reconfigure, barrier=relay)
    for barrier in (relay / 2, relay / 5, relay / 3.7):
        assert _run(1, factory(), reconfigure, barrier=barrier) == reference


def test_barrier_interval_validation():
    with pytest.raises(ConfigurationError):
        ShardedSystemConfig(workers=1, barrier_interval=1.0)  # > relay_delay
    with pytest.raises(ConfigurationError):
        ShardedSystemConfig(barrier_interval=0.001)  # requires workers
    with pytest.raises(ConfigurationError):
        ShardedSystemConfig(workers=0)


def test_legacy_engine_refuses_workers_config():
    """The base engine won't silently ignore a workers setting."""
    config = ShardedSystemConfig(workers=2)
    with pytest.raises(ConfigurationError):
        ShardedBlockchain(config)


def test_build_system_dispatch():
    legacy = build_system(ShardedSystemConfig())
    assert type(legacy) is ShardedBlockchain
    scaled = build_system(ShardedSystemConfig(workers=1))
    assert isinstance(scaled, ScaleOutShardedBlockchain)
    scaled.close()


def test_inline_scaleout_run_is_auditor_green():
    """The safety auditor attaches to workers=1 partitions and passes."""
    rebase_tx_counter(0)
    system = build_system(ShardedSystemConfig(**_base_config(), workers=1))
    auditor = SafetyAuditor(system)
    driver = OpenLoopDriver(system, rate_tps=RATE, max_transactions=TXS)
    driver.run_to_completion()
    assert auditor.settle()
    report = auditor.check()
    assert report.ok, report.summary()
    assert report.blocks_audited > 0
    system.close()


def test_process_mode_refuses_audit():
    """workers>1 replicas live in other processes; the auditor must refuse."""
    system = build_system(ShardedSystemConfig(**_base_config(), workers=2))
    with pytest.raises(ConfigurationError):
        system.audit_clusters()
    system.close()


def test_throughput_over_time_is_legacy_only():
    """The commit-rate series reads the one in-simulation coordinator's
    records; the scale-out parent has none, so asking it must fail loudly
    rather than return an all-zero series for a run that committed."""
    rebase_tx_counter(0)
    system = build_system(ShardedSystemConfig(**_base_config(), workers=1))
    driver = OpenLoopDriver(system, rate_tps=RATE, max_transactions=TXS)
    stats = driver.run_to_completion()
    assert stats.committed > 0
    with pytest.raises(AttributeError):
        system.throughput_over_time(bucket_seconds=1.0)
    system.close()
