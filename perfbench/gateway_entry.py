"""Boot the live service cluster for the benchmark, optionally traced.

The benchmark's own entry point around ``repro.service.serve.ServiceCluster``:
it installs the span wrappers of ``tracer.py`` in the gateway process before
the cluster is built (``--trace``), prints one JSON ``ready`` line, and then
follows two signals from the load generator:

* ``SIGUSR1`` — the measured phases are over: freeze the span aggregates and
  the CPU time used since ``ready`` by this process and by each shard
  process (shard processes are not traced; their CPU time is the
  unattributed remainder of a traced run);
* ``SIGTERM`` — drain, stop the cluster, print one JSON ``drained`` line
  with the frozen figures, and exit.

    PYTHONPATH=src python3 perfbench/gateway_entry.py [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import time
from typing import Any, Dict, List, Optional

from tracer import Tracer, install_gateway_layers

#: The benchmarked deployment: 2 shards x committee 4 running AHL, uniform
#: smallbank over 1000 accounts, bench_service's in-flight window, and a
#: fixed seed (the benchmark's seed only selects the request stream).
SHARDS = 2
COMMITTEE = 4
PROTOCOL = "AHL"
NUM_KEYS = 1_000
MAX_INFLIGHT = 64
CLUSTER_SEED = 17

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class _Meter:
    """CPU used by the gateway and its shard processes between two marks."""

    def __init__(self, shard_pids: List[int]) -> None:
        self.shard_pids = shard_pids
        self.gateway_cpu = time.process_time()
        self.shard_cpu = [_proc_cpu_s(pid) for pid in shard_pids]

    def read(self) -> Dict[str, Any]:
        return {
            "gateway_cpu_s": time.process_time() - self.gateway_cpu,
            "shard_cpu_s": sum(_proc_cpu_s(pid) - before for pid, before
                               in zip(self.shard_pids, self.shard_cpu)),
            "shard_peak_rss_mb": max(_proc_peak_rss_mb(pid)
                                     for pid in self.shard_pids),
        }


async def serve(trace: bool) -> int:
    from repro.service.serve import ServiceCluster

    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        install_gateway_layers(tracer)
    cluster = ServiceCluster(
        num_shards=SHARDS, committee_size=COMMITTEE, protocol=PROTOCOL,
        seed=CLUSTER_SEED, benchmark="smallbank", num_keys=NUM_KEYS,
        max_inflight=MAX_INFLIGHT)
    await cluster.start()
    try:
        await cluster.wait_ready()
    except TimeoutError as exc:
        print(json.dumps({"event": "failed", "error": str(exc)}), flush=True)
        await cluster.stop()
        return 1
    shard_pids = [process.pid for process in cluster.processes]
    if tracer is not None:
        tracer.reset()  # drop the boot spans: only the load phases count
    meter = _Meter(shard_pids)
    frozen: Dict[str, Any] = {}
    stop = asyncio.Event()

    def freeze() -> None:
        frozen.update(meter.read())
        if tracer is not None:
            frozen["trace"] = tracer.snapshot()

    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGUSR1, freeze)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({"event": "ready", "endpoint": cluster.endpoint,
                      "shard_pids": shard_pids}), flush=True)
    await stop.wait()
    if not frozen:
        freeze()
    summary = await cluster.service.drain(10.0)
    await cluster.stop()
    frozen["gateway_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({"event": "drained", **summary, **frozen}), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    return asyncio.run(serve(parser.parse_args(argv).trace))


if __name__ == "__main__":
    raise SystemExit(main())
