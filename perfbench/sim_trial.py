"""One simulated trial, in a fresh interpreter: build, drive, check, report.

Runs one of the two simulator workloads of ``run.py`` at a fixed size and
prints one JSON object as its last stdout line: timings, the run's exact
fingerprint, latency percentiles on the simulated clock and work counters.
``--trace`` adds the span aggregates of ``tracer.py`` and attaches the
``SafetyAuditor``, whose verdict is reported after the run.  A fresh interpreter
per trial keeps process-global state (the transaction id counter, module
memos) and the peak-RSS reading from leaking between trials.

    PYTHONPATH=src python3 perfbench/sim_trial.py --workload smallbank-skewed \
        --seed 1 --txns 2000
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from run import percentile
from tracer import Tracer, install_sim_layers

#: Legacy engine in the paper's default shape: AHL+ shards, the reference
#: committee as 2PC coordinator, zipf-skewed smallbank, wound-wait locking.
SMALLBANK_SKEWED = dict(
    config=dict(num_shards=4, committee_size=4, protocol="AHL+",
                use_reference_committee=True, benchmark="smallbank",
                num_keys=20_000, zipf_coefficient=0.8,
                conflict_policy="wound-wait"),
    driver=dict(rate_tps=280.0, batch_size=4),
)

#: Scale-out engine in ``benchmarks/bench_scaleout.py``'s quick shape
#: (records retained so per-transaction latencies can be read back).
SCALEOUT_UNIFORM = dict(
    config=dict(num_shards=8, committee_size=11, use_reference_committee=False,
                relay_delay=0.02, num_keys=20_000, zipf_coefficient=0.0,
                retain_tx_records=True, max_series_samples=512),
    driver=dict(rate_tps=2000.0, batch_size=8, vectorized=True),
)

WORKLOADS = {"smallbank-skewed": SMALLBANK_SKEWED,
             "scaleout-uniform": SCALEOUT_UNIFORM}

#: The deployment (committee formation, network jitter) is fixed; the
#: benchmark's seed only selects the OpenLoopDriver's transaction stream.
SYSTEM_SEED = 7


def _peak_rss_mb(workers: Optional[int]) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers and workers > 1:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _simulators_and_networks(system: Any) -> tuple:
    """Every simulator and network of an in-process run (None if remote)."""
    sims, nets = [system.sim], [system.network]
    if system.config.workers is not None:
        if system.config.workers > 1:
            return None, None
        for partition in system.executor.partitions.values():
            sims.append(partition.sim)
            nets.append(partition.network)
    return sims, nets


def _money(system: Any) -> Optional[Dict[str, int]]:
    """Total smallbank balance across shards (legacy engine only)."""
    if system.config.workers is not None:
        return None
    from repro.workloads.generator import shard_of_key
    from repro.workloads.smallbank import DEFAULT_BALANCE, account_key

    total = 0
    num_keys, num_shards = system.config.num_keys, system.config.num_shards
    for index in range(num_keys):
        key = account_key(str(index))
        state = system.shards[shard_of_key(key, num_shards)].honest_observer().state
        total += state.get(key)
    return {"total": total, "expected": num_keys * DEFAULT_BALANCE}


def run_trial(workload: str, seed: int, txns: int, workers: Optional[int],
              trace: bool) -> Dict[str, Any]:
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_sim_layers(tracer)
    from repro.audit.auditor import SafetyAuditor
    from repro.core import OpenLoopDriver, ShardedSystemConfig, build_system
    from repro.ledger.transaction import rebase_tx_counter

    shape = WORKLOADS[workload]
    rebase_tx_counter(0)
    started = time.perf_counter()
    config = ShardedSystemConfig(seed=SYSTEM_SEED, workers=workers, **shape["config"])
    system = build_system(config)
    driver = OpenLoopDriver(system, max_transactions=txns, stream_index=seed,
                            **shape["driver"])
    workers_started = time.perf_counter()
    if workers is not None:
        # The scale-out engine forks its workers and builds its partitions
        # on first use; one round trip to every worker here bills that to
        # set-up, not to the run.
        driver.start()
        system.pending_activity()
    auditor = SafetyAuditor(system) if trace else None
    setup_s = time.perf_counter() - started

    if tracer is not None:
        tracer.reset()  # drop the set-up spans: only the run phase counts
    run_started = time.perf_counter()
    stats = driver.run_to_completion(drain_timeout=120.0)
    run_wall_s = time.perf_counter() - run_started
    fingerprint = system.fingerprint()
    coordination = system.coordination_stats()
    latencies = coordination.latencies
    sims, nets = _simulators_and_networks(system)
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "txns": txns, "workers": workers,
        "traced": trace,
        "setup_s": setup_s, "run_wall_s": run_wall_s,
        "fingerprint": fingerprint,
        "submitted": stats.submitted, "committed": stats.committed,
        "aborted": stats.aborted, "dropped": stats.dropped_arrivals,
        "never_completed": stats.in_flight + (txns - stats.submitted),
        "abort_reasons": dict(stats.abort_reasons),
        "sim_seconds": system.sim.now,
        "cross_shard": coordination.cross_shard,
        "started": coordination.started,
        "latency_count": len(latencies),
        "sim_latency_mean_s": (sum(latencies) / len(latencies)) if latencies else None,
        "sim_latency_p50_s": percentile(latencies, 0.50) if latencies else None,
        "sim_latency_p99_s": percentile(latencies, 0.99) if latencies else None,
        "events": (sum(sim.events_processed for sim in sims)
                   if sims is not None else None),
        "messages": (sum(net.stats.messages_sent for net in nets)
                     if nets is not None else None),
        "bytes": sum(net.stats.bytes_sent for net in nets) if nets is not None else None,
        "view_changes": sum(fingerprint["view_changes"].values()),
        "parent_share": (system.coordinator_work_share
                         if workers is not None else None),
        "money": _money(system),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    if auditor is not None:
        settled = auditor.settle()
        report = auditor.check()
        result["audit"] = {"settled": settled, "ok": report.ok,
                           "violations": [str(v) for v in report.violations][:5]}
    system.close()
    if workers is not None and workers > 1:
        lifetime_s = time.perf_counter() - workers_started
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        busy = children.ru_utime + children.ru_stime
        result["worker_idle_fraction"] = max(0.0, 1.0 - busy / (workers * lifetime_s))
    result["peak_rss_mb"] = _peak_rss_mb(workers)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--txns", type=int, required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_trial(args.workload, args.seed, args.txns, args.workers,
                       args.trace)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
