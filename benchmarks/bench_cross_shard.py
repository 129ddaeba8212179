"""Cross-shard transaction benchmark: conflict policies under contention.

This is the harness behind the CI ``txn-scenarios`` job's benchmark step.
It drives a contended Zipf-skewed Smallbank workload through a 4-shard
deployment once per conflict policy (``abort`` — the seed-faithful default —
plus ``wait`` and ``wound-wait``) and measures how the lock scheduler
converts key conflicts into aborts or queueing delay.

Because the simulation is deterministic, the commit/abort counts are exact
reproducible quantities — the gates on them are hard equalities/inequalities,
not noisy thresholds:

1. **Contention sanity** — the abort policy must actually contend (abort
   rate above a floor), otherwise the workload is too easy to say anything.
2. **Policy effectiveness** — ``wait`` and ``wound-wait`` must measurably
   reduce the abort rate vs. ``abort`` on the identical arrival stream.
3. **Determinism** — a repeated ``abort`` run with the same seed must
   reproduce identical counts.
4. **Throughput regression** — simulated committed tps must stay within 80%
   of the committed baseline (``BENCH_cross_shard_baseline.json``);
   wall-clock txns/sec is reported for information.

Usage::

    PYTHONPATH=src python benchmarks/bench_cross_shard.py --mode quick -o BENCH_cross_shard.json
    PYTHONPATH=src python benchmarks/bench_cross_shard.py --mode full  -o BENCH_cross_shard.json
"""

from __future__ import annotations

import time

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig

import harness

MODES = {
    # mode: (transactions, rate tps)
    "quick": (1_500, 200.0),
    "full": (6_000, 200.0),
}

WORKLOAD = dict(num_shards=4, committee_size=4, num_keys=300,
                zipf_coefficient=0.85, wait_timeout=15.0)


def run_policy(policy: str, transactions: int, rate_tps: float, seed: int) -> dict:
    """One contended run under ``policy``; returns counts + timings."""
    start = time.perf_counter()
    system = ShardedBlockchain(ShardedSystemConfig(
        seed=seed, conflict_policy=policy, retain_tx_records=False, **WORKLOAD))
    driver = OpenLoopDriver(system, rate_tps=rate_tps,
                            max_transactions=transactions, batch_size=8)
    stats = driver.run_to_completion(drain_timeout=120.0)
    wall = time.perf_counter() - start
    sim_seconds = system.sim.now
    admission = system.admission
    return {
        "policy": policy,
        "seed": seed,
        "transactions": transactions,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "abort_rate": round(stats.abort_rate, 4),
        "mean_latency_s": round(stats.mean_latency, 4),
        "sim_seconds": round(sim_seconds, 2),
        "committed_tps_sim": round(stats.committed / sim_seconds, 1) if sim_seconds else 0.0,
        "committed_tps_wall": round(stats.committed / wall, 1),
        "wall_seconds": round(wall, 2),
        "wait_timeouts": admission.wait_timeouts if admission else 0,
        "wounded": admission.wounded_transactions if admission else 0,
        "deadlocks": admission.deadlocks_detected if admission else 0,
        "abort_reasons": dict(sorted(stats.abort_reasons.items())),
    }


def counts_of(run: dict) -> tuple:
    return (run["committed"], run["aborted"])


def main(argv=None) -> int:
    args = harness.parser(__doc__, MODES, seed=7,
                          baseline="BENCH_cross_shard_baseline.json").parse_args(argv)
    transactions, rate = MODES[args.mode]
    harness.header(args.mode, f"workload={WORKLOAD} txns={transactions}")

    runs = {}
    for policy in ("abort", "wait", "wound-wait"):
        runs[policy] = run_policy(policy, transactions, rate, args.seed)
        r = runs[policy]
        print(f"[bench] {policy:>10}: {r['committed']} committed / "
              f"{r['aborted']} aborted (abort rate {r['abort_rate']:.3f}), "
              f"{r['committed_tps_wall']} committed/s wall, "
              f"{r['wall_seconds']}s")

    repeat = run_policy("abort", transactions, rate, args.seed)
    deterministic = counts_of(repeat) == counts_of(runs["abort"])
    print(f"[bench] determinism: {'OK' if deterministic else 'MISMATCH'} "
          f"{counts_of(repeat)} vs {counts_of(runs['abort'])}")

    abort_rate = runs["abort"]["abort_rate"]
    reductions = {
        policy: (1.0 - runs[policy]["abort_rate"] / abort_rate) if abort_rate else 0.0
        for policy in ("wait", "wound-wait")
    }
    for policy, reduction in reductions.items():
        print(f"[bench] {policy} reduces abort rate by {reduction:.1%} "
              f"({abort_rate:.3f} -> {runs[policy]['abort_rate']:.3f})")

    # ------------------------------------------------------------------ gates
    failures = []
    if not deterministic:
        failures.append("same-seed abort runs diverged")
    if runs["abort"]["committed"] == 0:
        failures.append("nothing committed")
    if abort_rate < 0.15:
        failures.append(f"workload not contended enough "
                        f"(abort-policy abort rate {abort_rate:.3f} < 0.15)")
    for policy, reduction in reductions.items():
        if reduction < 0.15:
            failures.append(f"{policy} reduced the abort rate by only "
                            f"{reduction:.1%} (< 15%)")

    reference = harness.load_baseline(args.baseline)
    if reference:
        for policy in ("abort", "wait", "wound-wait"):
            committed_tps = runs[policy]["committed_tps_sim"]
            floor = 0.8 * reference["runs"][policy]["committed_tps_sim"]
            print(f"[bench] gate: {policy} {committed_tps} committed tps (sim) "
                  f"vs floor {floor:.1f}")
            if committed_tps < floor:
                failures.append(f"{policy} simulated throughput {committed_tps} "
                                f"below {floor:.1f} (>20% regression vs "
                                f"committed baseline)")

    return harness.finish("cross_shard", args, {
        "workload": WORKLOAD,
        "runs": runs,
        "abort_rate_reduction": {k: round(v, 4) for k, v in reductions.items()},
        "deterministic": deterministic,
    }, failures)


if __name__ == "__main__":
    raise SystemExit(main())
