"""Epoch reconfiguration benchmark: live committee re-formation (Figure 12).

This is the harness behind the CI ``reconfiguration`` job.  It drives a
fixed open-loop Smallbank load through a sharded deployment and runs the
full epoch lifecycle — beacon randomness, committee re-assignment, and
executed batched migrations with state-transfer delays derived from actual
shard state sizes — once per strategy.

Because the simulation is deterministic, the gates are exact:

1. **Determinism** — a repeated swap-batch run with the same seed must
   reproduce identical committed/aborted counts.
2. **Swap-batch availability** — committed throughput under ``swap-batch``
   must stay at or above 90% of the no-reshard baseline (the paper's
   headline claim for ``B = log n`` batched swaps), and membership must
   actually have changed.
3. **Swap-all trough** — the naive strategy must show the paper's deep
   throughput trough (quorum loss during the transfer window).
4. **No-epoch fast path** — a default-configuration run must reproduce the
   committed baseline's exact event/commit counts
   (``BENCH_reconfiguration_baseline.json``), proving the epoch machinery
   adds nothing to the seed path; wall-clock is reported for information.

Usage::

    PYTHONPATH=src python benchmarks/bench_reconfiguration.py --mode quick -o BENCH_reconfiguration.json
    PYTHONPATH=src python benchmarks/bench_reconfiguration.py --mode full  -o BENCH_reconfiguration.json
"""

from __future__ import annotations

import sys
import time
import warnings

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.experiments.fig12_reconfiguration import (
    CONSENSUS_OVERRIDES,
    WORKLOAD as FIG12_WORKLOAD,
)
from repro.ledger.transaction import rebase_tx_counter

import harness

MODES = {
    # mode: (duration seconds, arrival rate tps)
    "quick": (45.0, 30.0),
    "full": (90.0, 30.0),
}

# The exact Figure-12 deployment (shared with the experiment module so the
# CI gate cannot silently drift from what the experiment runs).
WORKLOAD = dict(num_shards=3, committee_size=4, **FIG12_WORKLOAD)
OVERRIDES = CONSENSUS_OVERRIDES


def run_strategy(strategy, duration: float, rate_tps: float, seed: int) -> dict:
    """One run under ``strategy`` (None = the no-epoch seed fast path)."""
    # Pin the process-global tx-id counter: id lengths leak into modelled
    # state sizes (lock entries), so comparable runs need identical ids.
    rebase_tx_counter(1_000_000)
    start = time.perf_counter()
    system = ShardedBlockchain(ShardedSystemConfig(
        seed=seed, consensus_overrides=dict(OVERRIDES), **WORKLOAD))
    driver = OpenLoopDriver(system, rate_tps=rate_tps, batch_size=2).start()
    if strategy is not None:
        system.perform_reconfiguration(strategy, at_time=duration * 0.3,
                                       batch_interval=2.0)
        system.perform_reconfiguration(strategy, at_time=duration * 0.65,
                                       batch_interval=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # swap-all intentionally breaks liveness
        system.run(duration)
    wall = time.perf_counter() - start
    series = system.throughput_over_time(bucket_seconds=duration / 20.0)
    window = [rate for time_s, rate in series
              if duration * 0.3 <= time_s <= duration * 0.95]
    stats = driver.stats
    return {
        "strategy": strategy or "no_reshard",
        "seed": seed,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "committed_tps_sim": round(stats.committed / duration, 2),
        "min_window_tps": round(min(window), 2) if window else 0.0,
        "events": system.sim.events_processed,
        "epochs": system.current_epoch,
        "reconfigurations": system.reconfigurations_completed,
        "nodes_migrated": sum(t.nodes_moved for t in system.epoch_transitions),
        "min_active_margin": {
            str(shard): min(t.min_active_margin[shard]
                            for t in system.epoch_transitions
                            if shard in t.min_active_margin)
            for shard in sorted({s for t in system.epoch_transitions
                                 for s in t.min_active_margin})},
        "epoch_committed": {str(epoch): count for epoch, count
                            in sorted(stats.epoch_committed.items())},
        "wall_seconds": round(wall, 2),
    }


def counts_of(run: dict) -> tuple:
    return (run["committed"], run["aborted"], run["events"])


def main(argv=None) -> int:
    args = harness.parser(__doc__, MODES, seed=0,
                          baseline="BENCH_reconfiguration_baseline.json").parse_args(argv)
    duration, rate = MODES[args.mode]
    harness.header(args.mode, f"workload={WORKLOAD} duration={duration}s rate={rate}tps")

    runs = {}
    for strategy in (None, "swap-batch", "swap-all"):
        label = strategy or "no_reshard"
        runs[label] = run_strategy(strategy, duration, rate, args.seed)
        r = runs[label]
        print(f"[bench] {label:>10}: {r['committed']} committed "
              f"({r['committed_tps_sim']} tps sim, window min {r['min_window_tps']}), "
              f"{r['nodes_migrated']} nodes migrated over "
              f"{r['reconfigurations']} reconfigurations, {r['wall_seconds']}s wall")

    repeat = run_strategy("swap-batch", duration, rate, args.seed)
    deterministic = counts_of(repeat) == counts_of(runs["swap-batch"])
    print(f"[bench] determinism: {'OK' if deterministic else 'MISMATCH'} "
          f"{counts_of(repeat)} vs {counts_of(runs['swap-batch'])}")

    baseline_tps = runs["no_reshard"]["committed_tps_sim"]
    availability = (runs["swap-batch"]["committed_tps_sim"] / baseline_tps
                    if baseline_tps else 0.0)
    print(f"[bench] swap-batch availability: {availability:.1%} of no-reshard")

    # ------------------------------------------------------------------ gates
    failures = []
    if not deterministic:
        failures.append("same-seed swap-batch runs diverged")
    if runs["swap-batch"]["nodes_migrated"] == 0:
        failures.append("no membership changed under swap-batch")
    if availability < 0.9:
        failures.append(f"swap-batch availability {availability:.1%} < 90% "
                        "of the no-reshard baseline")
    trough_floor = 0.5 * baseline_tps
    if runs["swap-all"]["min_window_tps"] > trough_floor:
        failures.append(f"swap-all window minimum "
                        f"{runs['swap-all']['min_window_tps']} tps shows no trough "
                        f"(expected <= {trough_floor:.1f})")

    reference = harness.load_baseline(args.baseline)
    if reference and reference["mode"] == args.mode:
        expected = tuple(counts_of(reference["runs"]["no_reshard"]))
        actual = counts_of(runs["no_reshard"])
        print(f"[bench] gate: no-epoch fast path {actual} vs committed {expected}")
        if actual != expected:
            failures.append("the no-epoch fast path no longer reproduces the "
                            "committed baseline exactly — the epoch machinery "
                            "leaked into the default path")

    return harness.finish("reconfiguration", args, {
        "workload": dict(WORKLOAD),
        "duration": duration,
        "rate_tps": rate,
        "runs": runs,
        "swap_batch_availability": round(availability, 4),
        "deterministic": deterministic,
    }, failures)


if __name__ == "__main__":
    sys.exit(main())
