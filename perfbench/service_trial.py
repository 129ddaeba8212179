"""One live-service trial, in a fresh interpreter: boot, load, check, report.

Boots the cluster through ``gateway_entry.py`` (2 shards x committee 4, AHL,
uniform smallbank over 1000 accounts) and drives it from one asyncio thread
in two phases:

* **paced** — open loop: ``POST /tx?wait=1`` at a fixed rate, each request
  timed from the moment it was due, so a stalled gateway also charges the
  requests queued behind the stall.  The gateway closes every connection
  after its reply, so each request opens its own.  How late the generator
  itself sent is recorded as ``lag``.
* **saturation** — one connection at a time, fire-and-forget ``POST /tx``
  as fast as the gateway accepts them, backing off on ``429`` (window full),
  then waiting until ``/health`` shows every accepted transaction decided.

Afterwards it checks that every paced request was answered, that
``/health``'s committed+aborted equals the accepted count, and that the
smallbank money is conserved, then prints one JSON object as its last line.

    PYTHONPATH=src python3 perfbench/service_trial.py --seed 1 --paced-s 35
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from gateway_entry import NUM_KEYS, SHARDS

HERE = os.path.dirname(os.path.abspath(__file__))
#: Offered rate of the paced phase (transactions per second).  Near 20 tx/s
#: the cluster is close to its latency knee (about 500 ms at 30 tx/s on a
#: 2-cpu host), where latency swings by a fifth with the CPU time the
#: hypervisor steals; at 12 tx/s it does not.
PACED_TPS = 12.0
#: Length of the saturation phase's sending window.
SATURATION_S = 5.0
#: Backoff after a 429 before retrying the same transaction.
BACKOFF_S = 0.05


class Gateway:
    """The cluster as a child process speaking JSON lines on stdout."""

    def __init__(self, trace: bool) -> None:
        started = time.perf_counter()
        command = [sys.executable, os.path.join(HERE, "gateway_entry.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self.ready = self._event()
        if self.ready.get("event") != "ready":
            self.close()
            raise RuntimeError(f"gateway failed to boot: {self.ready}")
        self.boot_s = time.perf_counter() - started
        host, _, port = self.ready["endpoint"][len("http://"):].partition(":")
        self.host, self.port = host, int(port)

    def _event(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        return json.loads(line) if line else {"event": "exited"}

    def freeze(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait for the ``drained`` line and the exit."""
        self.proc.send_signal(signal.SIGTERM)
        drained = self._event()
        self.proc.wait(timeout=30)
        return drained

    def close(self) -> None:
        """Make sure the cluster and its shard processes are gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for pid in getattr(self, "ready", {}).get("shard_pids", []):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


async def http(host: str, port: int, method: str, path: str,
               body: Optional[bytes] = None) -> Tuple[int, Dict[str, Any]]:
    """One request on its own connection; the gateway closes after replying."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        if body is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        writer.write(head.encode() + b"\r\n" + (body or b""))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, (json.loads(payload) if payload else {})


def make_bodies(seed: int, count: int, stream: int) -> List[bytes]:
    """``count`` smallbank requests of the seed's stream, as request bodies."""
    from repro.workloads.generator import WorkloadGenerator

    generator = WorkloadGenerator(benchmark="smallbank", num_shards=SHARDS,
                                  num_keys=NUM_KEYS, seed=seed * 7919 + stream)
    bodies = []
    for index in range(count):
        tx = generator.next_transaction(client_id=f"bench-{index % 8}")
        bodies.append(json.dumps({"function": tx.function, "args": tx.args,
                                  "client_id": tx.client_id}).encode())
    return bodies


async def paced_phase(gw: Gateway, bodies: List[bytes], rate: float) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    cross_shard: List[bool] = []
    lags: List[float] = []
    failures: List[str] = []
    outcomes: Dict[str, int] = {}

    async def one(body: bytes, due: float) -> None:
        try:
            status, reply = await http(gw.host, gw.port, "POST",
                                       "/tx?wait=1&timeout=30", body)
        except OSError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            return
        if status != 200:
            failures.append(f"HTTP {status}: {reply}")
            return
        latencies.append(loop.time() - due)
        cross_shard.append(len(reply["shards"]) > 1)
        outcomes[reply["outcome"]] = outcomes.get(reply["outcome"], 0) + 1

    tasks = []
    start = loop.time() + 0.05
    for index, body in enumerate(bodies):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.create_task(one(body, due)))
    await asyncio.gather(*tasks)
    return {"latencies_s": latencies, "cross_shard": cross_shard,
            "lags_s": lags, "failures": failures,
            "outcomes": outcomes, "elapsed_s": loop.time() - start}


async def saturation_phase(gw: Gateway, bodies: List[bytes], seconds: float,
                           already_decided: int) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    accept_rtts: List[float] = []
    retries = 0
    failures: List[str] = []
    inflight_max = 0
    sending = True

    async def watch_health() -> None:
        nonlocal inflight_max
        while sending:
            _, health = await http(gw.host, gw.port, "GET", "/health")
            inflight_max = max(inflight_max, health["in_flight"])
            await asyncio.sleep(0.2)

    _, before = await http(gw.host, gw.port, "GET", "/health")
    watcher = asyncio.create_task(watch_health())
    started = loop.time()
    accepted = 0
    index = 0
    while loop.time() - started < seconds and index < len(bodies):
        sent = loop.time()
        status, reply = await http(gw.host, gw.port, "POST", "/tx", bodies[index])
        if status == 429:
            retries += 1
            await asyncio.sleep(BACKOFF_S)
            continue
        accept_rtts.append(loop.time() - sent)
        index += 1
        if status == 202:
            accepted += 1
        else:
            failures.append(f"HTTP {status}: {reply}")
    sending = False
    await watcher
    decided_target = already_decided + accepted
    deadline = loop.time() + 60.0
    while True:
        _, health = await http(gw.host, gw.port, "GET", "/health")
        if health["committed"] + health["aborted"] >= decided_target:
            break
        if loop.time() > deadline:
            failures.append(f"saturation never drained: {health}")
            break
        await asyncio.sleep(0.02)
    elapsed = loop.time() - started
    return {"accepted": accepted, "retries_429": retries, "failures": failures,
            "accept_rtts_s": accept_rtts, "inflight_max": inflight_max,
            "committed": health["committed"] - before["committed"],
            "elapsed_s": elapsed, "health": health}


async def total_balance(gw: Gateway, concurrency: int = 8) -> int:
    from repro.workloads.smallbank import account_key

    keys = [account_key(str(index)) for index in range(NUM_KEYS)]
    total = 0

    async def worker(chunk: List[str]) -> None:
        nonlocal total
        for key in chunk:
            status, reply = await http(gw.host, gw.port, "GET", f"/balance/{key}")
            if status != 200:
                raise RuntimeError(f"balance of {key}: HTTP {status} {reply}")
            total += reply["balance"]

    await asyncio.gather(*(worker(keys[i::concurrency]) for i in range(concurrency)))
    return total


async def drive(gw: Gateway, seed: int, paced_s: float) -> Dict[str, Any]:
    paced_bodies = make_bodies(seed, int(round(paced_s * PACED_TPS)), stream=1)
    flood_bodies = make_bodies(seed, int(SATURATION_S * 400), stream=2)
    paced = await paced_phase(gw, paced_bodies, PACED_TPS)
    decided = sum(paced["outcomes"].values())
    saturation = await saturation_phase(gw, flood_bodies, SATURATION_S, decided)
    gw.freeze()
    _, health = await http(gw.host, gw.port, "GET", "/health")
    return {"paced": paced, "saturation": saturation, "health": health,
            "total_balance": await total_balance(gw)}


def main(argv: Optional[List[str]] = None) -> int:
    from repro.workloads.smallbank import DEFAULT_BALANCE

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--paced-s", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--boot-only", action="store_true",
                        help="boot, record the set-up time, shut down")
    args = parser.parse_args(argv)

    gw = Gateway(args.trace)
    try:
        if args.boot_only:
            result: Dict[str, Any] = {"setup_s": gw.boot_s}
        else:
            result = asyncio.run(drive(gw, args.seed, args.paced_s))
            result["setup_s"] = gw.boot_s
            result["expected_balance"] = NUM_KEYS * DEFAULT_BALANCE
        result["gateway"] = gw.stop()
    finally:
        gw.close()
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
