"""Adversarial benchmark matrix: Byzantine strategies against the full system.

This is the harness behind the CI ``adversary-matrix`` job.  It drives the
strategy × protocol sweep on the **real system path** — multi-shard
:class:`~repro.core.system.ShardedBlockchain` deployments with the
``adversary`` knob placing ``f`` corruptions per committee (reference
committee included), cross-shard 2PC traffic, and the
:class:`~repro.audit.SafetyAuditor` attached — plus a live TEE rollback cell
and a Figure-8-style head-to-head of AHL+ (2f+1) versus HL (3f+1) under f
per-recipient equivocators.

Because the simulation is deterministic, the gates are exact:

1. **Safety** — the auditor reports zero violations on every cell, and every
   cell reaches quiescence (liveness under attack).
2. **Determinism** — a repeated adversarial run with the same seed must
   reproduce an identical fingerprint (committed / aborted / events /
   per-shard commits / enclave refusals).
3. **Attested-log headroom** — under f equivocators, AHL+ sustains at least
   60% of its own clean throughput while HL drops below 50% of its clean
   throughput (the paper's Figure-8 right panel, now audited).
4. **Rollback recovery** — the TEE rollback cell must complete the
   Appendix-A recovery (enclave thaws) with zero violations.
5. **Baseline** — cell fingerprints must match the committed
   ``BENCH_adversary_baseline.json`` exactly for the same mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_adversary.py --mode quick -o BENCH_adversary.json
    PYTHONPATH=src python benchmarks/bench_adversary.py --mode full  -o BENCH_adversary.json
"""

from __future__ import annotations

import sys
import time

from repro.audit import SafetyAuditor
from repro.core import AdversaryConfig, OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.experiments.common import ExperimentScale
from repro.experiments.fig08_ahl_cluster import run_adversarial_point
from repro.ledger.transaction import rebase_tx_counter

import harness

MODES = {
    # mode: (matrix transactions, matrix rate tps, headroom window seconds)
    "quick": (400, 60.0, 5.0),
    "full": (1200, 60.0, 10.0),
}

#: The matrix deployment: two shards + reference committee, committees of 5
#: (f = 2 under the attested-log failure model), contended Smallbank.
WORKLOAD = dict(num_shards=2, committee_size=5, protocol="AHL+",
                use_reference_committee=True, benchmark="smallbank",
                num_keys=200, zipf_coefficient=0.6, prepare_timeout=2.0)
OVERRIDES = {"batch_size": 20, "view_change_timeout": 3.0,
             "pipeline_depth": 4, "checkpoint_interval": 2}

STRATEGIES = ("none", "equivocate", "silent-leader", "crash")

#: Head-to-head failure count (committee sizes 2f+1 = 7 vs 3f+1 = 10): the
#: first point where verifying-and-discarding f equivocators' votes on top of
#: the O(N^2) message load saturates the 3f+1 committee.
HEADROOM_F = 3


def run_cell(strategy: str, transactions: int, rate_tps: float, seed: int,
             tee_rollback: bool = False) -> dict:
    """One matrix cell: a full audited run under the given strategy."""
    rebase_tx_counter(1_000_000)
    adversary = None
    if strategy != "none" or tee_rollback:
        adversary = AdversaryConfig(
            strategy=strategy if strategy != "none" else "honest",
            corrupted_per_shard=None if strategy != "none" else 0,
            include_reference=(strategy != "none"),
            tee_rollback_at=6.0 if tee_rollback else None,
        )
    start = time.perf_counter()
    system = ShardedBlockchain(ShardedSystemConfig(
        seed=seed, consensus_overrides=dict(OVERRIDES), adversary=adversary,
        **WORKLOAD))
    auditor = SafetyAuditor(system)
    driver = OpenLoopDriver(system, rate_tps=rate_tps,
                            max_transactions=transactions, batch_size=4)
    driver.run_to_completion(drain_timeout=180.0)
    settled = auditor.settle(max_seconds=120.0)
    report = auditor.check()
    wall = time.perf_counter() - start
    rollback = []
    if system.adversary is not None:
        rollback = [
            {"victim": event.victim, "floor": event.recovery_floor,
             "completed": event.completed}
            for event in system.adversary.rollback_status()
        ]
    return {
        "strategy": strategy + ("+rollback" if tee_rollback else ""),
        "seed": seed,
        "committed": driver.stats.committed,
        "aborted": driver.stats.aborted,
        "events": system.sim.events_processed,
        "per_shard_committed": {
            str(shard): cluster.honest_observer().committed_transactions()
            for shard, cluster in sorted(system.shards.items())},
        "equivocation_refusals": report.equivocation_refusals,
        "violations": [str(violation) for violation in report.violations],
        "transactions_audited": report.transactions_audited,
        "attested_slots_audited": report.attestations_recorded,
        "quiescent": settled,
        "rollback": rollback,
        "wall_seconds": round(wall, 2),
    }


def fingerprint(cell: dict) -> tuple:
    """Exact run identity: deterministic runs must reproduce this."""
    return (cell["committed"], cell["aborted"], cell["events"],
            tuple(sorted(cell["per_shard_committed"].items())),
            cell["equivocation_refusals"])


def run_headroom(window_seconds: float, seed: int) -> dict:
    """Figure-8 head-to-head: clean vs f-equivocator throughput, audited."""
    scale = ExperimentScale(duration=window_seconds, client_rate_tps=500.0,
                            queue_capacity=300)
    out = {}
    for protocol in ("HL", "AHL+"):
        for strategy in ("honest", "equivocate"):
            rebase_tx_counter(2_000_000)
            point = run_adversarial_point(protocol, HEADROOM_F, scale,
                                          strategy=strategy, seed=seed)
            out[f"{protocol}:{strategy}"] = {
                "throughput_tps": round(point["throughput_tps"], 1),
                "avg_latency_s": round(point["avg_latency_s"], 3),
                "violations": point["violations"],
                "equivocation_refusals": point["equivocation_refusals"],
            }
    return out


def main(argv=None) -> int:
    args = harness.parser(__doc__, MODES, seed=0,
                          baseline="BENCH_adversary_baseline.json").parse_args(argv)
    transactions, rate, window = MODES[args.mode]
    harness.header(args.mode, f"workload={WORKLOAD} txns={transactions} rate={rate}tps")

    cells = {}
    failures = []
    for strategy in STRATEGIES:
        cell = run_cell(strategy, transactions, rate, args.seed)
        cells[strategy] = cell
        print(f"[bench] {strategy:>14}: {cell['committed']} committed / "
              f"{cell['aborted']} aborted, {cell['equivocation_refusals']} enclave "
              f"refusals, {len(cell['violations'])} violations, "
              f"quiescent={cell['quiescent']}, {cell['wall_seconds']}s wall")
        if cell["violations"]:
            failures.append(f"{strategy}: auditor violations {cell['violations']}")
        if not cell["quiescent"]:
            failures.append(f"{strategy}: run never quiesced (liveness lost)")

    rollback_cell = run_cell("equivocate", transactions, rate, args.seed,
                             tee_rollback=True)
    cells["equivocate+rollback"] = rollback_cell
    print(f"[bench] {'equiv+rollback':>14}: {rollback_cell['committed']} committed, "
          f"rollback={rollback_cell['rollback']}, "
          f"{len(rollback_cell['violations'])} violations")
    if rollback_cell["violations"]:
        failures.append(f"rollback: auditor violations {rollback_cell['violations']}")
    if not rollback_cell["rollback"] or not all(
            event["completed"] for event in rollback_cell["rollback"]):
        failures.append("rollback: Appendix-A recovery never completed")

    repeat = run_cell("equivocate", transactions, rate, args.seed)
    deterministic = fingerprint(repeat) == fingerprint(cells["equivocate"])
    print(f"[bench] determinism: {'OK' if deterministic else 'MISMATCH'} "
          f"{fingerprint(repeat)} vs {fingerprint(cells['equivocate'])}")
    if not deterministic:
        failures.append("same-seed adversarial runs diverged")

    headroom = run_headroom(window, args.seed)
    ahl_clean = headroom["AHL+:honest"]["throughput_tps"]
    ahl_attacked = headroom["AHL+:equivocate"]["throughput_tps"]
    hl_clean = headroom["HL:honest"]["throughput_tps"]
    hl_attacked = headroom["HL:equivocate"]["throughput_tps"]
    ahl_ratio = ahl_attacked / ahl_clean if ahl_clean else 0.0
    hl_ratio = hl_attacked / hl_clean if hl_clean else 0.0
    print(f"[bench] headroom under f={HEADROOM_F} equivocators: "
          f"AHL+ {ahl_attacked}/{ahl_clean} tps ({ahl_ratio:.0%}), "
          f"HL {hl_attacked}/{hl_clean} tps ({hl_ratio:.0%})")
    if ahl_ratio < 0.6:
        failures.append(f"AHL+ under attack fell to {ahl_ratio:.0%} of clean "
                        "throughput (expected >= 60%)")
    if hl_ratio > 0.5:
        failures.append(f"HL under attack kept {hl_ratio:.0%} of clean "
                        "throughput — the 3f+1 degradation disappeared")
    if any(point["violations"] for point in headroom.values()):
        failures.append("headroom runs reported auditor violations")

    reference = harness.load_baseline(args.baseline)
    if reference and reference["mode"] == args.mode:
        for strategy, cell in cells.items():
            expected = reference["cells"].get(strategy)
            if expected is not None and fingerprint(cell) != fingerprint(expected):
                failures.append(
                    f"{strategy}: fingerprint {fingerprint(cell)} != committed "
                    f"baseline {fingerprint(expected)}")
        print(f"[bench] gate: {len(cells)} cell fingerprints vs committed baseline")

    return harness.finish("adversary", args, {
        "workload": dict(WORKLOAD),
        "transactions": transactions,
        "rate_tps": rate,
        "cells": cells,
        "headroom": headroom,
        "deterministic": deterministic,
    }, failures)


if __name__ == "__main__":
    sys.exit(main())
