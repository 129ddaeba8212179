"""Consensus/ledger benchmark: blocks/sec through a full PBFT committee.

This is the harness behind the CI ``bench-consensus`` job.  It drives a
4-replica PBFT (HL) committee with open-loop clients and measures:

1. **Optimized vs. legacy ledger path** — the current implementation
   (one Merkle build per block, cached header hashes, trusted append,
   checkpoint GC, O(1) outstanding-instance counter) against an inline
   seed-faithful baseline (``LegacyPbftReplica``) that re-builds the Merkle
   tree at execution *and* append, re-hashes headers per access, keeps every
   instance/vote/dedup entry forever and re-scans the instance table per
   proposal.  Both paths run the same seed and the harness asserts
   **bit-identical commit / abort / view-change counts** — the optimizations
   must not change a single simulated outcome, only the wall-clock cost of
   producing it.
2. **Bounded-memory run** (``--mode full``) — 1M transactions with
   header-only block retention, bounded dedup windows and reservoir metrics,
   reporting peak RSS and the high-water marks of every pruned structure.

Results are written as JSON (``BENCH_consensus.json`` in CI).  The committed
reference numbers live in ``benchmarks/BENCH_consensus_baseline.json``; the
gate fails when the measured speedup drops below 80% of the committed
speedup (relative gating keeps the job robust to runner hardware).

Usage::

    PYTHONPATH=src python benchmarks/bench_consensus.py --mode quick -o BENCH_consensus.json
    PYTHONPATH=src python benchmarks/bench_consensus.py --mode full  -o BENCH_consensus.json
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro.consensus import messages as m
from repro.consensus.base import CommitEvent, ConsensusReplica, _Instance
from repro.consensus.cluster import PROTOCOLS, ConsensusCluster
from repro.consensus.pbft import PbftReplica, pbft_config

from repro.crypto.merkle import MerkleTree
from repro.ledger.block import Block, BlockHeader
from repro.ledger.blockchain import Blockchain
from repro.ledger.transaction import TxStatus

import harness


# --------------------------------------------------------------------------
# Reference implementation: the seed repository's ledger hot path, kept
# inline so the benchmark always compares against the pre-overhaul baseline.
# --------------------------------------------------------------------------
def seed_canonical(value):
    """The pre-PR canonical serialisation, kept verbatim for the baseline."""
    import dataclasses  # noqa: PLC0415

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__,
                "fields": seed_canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(key): seed_canonical(val)
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [seed_canonical(item) for item in value]
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (set, frozenset)):
        return sorted(seed_canonical(item) for item in value)
    return {"__repr__": repr(value)}


def seed_digest_of(value) -> str:
    """The pre-PR ``digest_of`` (no exact-type fast paths); same output."""
    import hashlib  # noqa: PLC0415

    canonical = json.dumps(seed_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def uncached_block_hash(header: BlockHeader) -> str:
    """Header digest computed from scratch (the seed re-hashed per access)."""
    return seed_digest_of({
        "height": header.height,
        "prev_hash": header.prev_hash,
        "merkle_root": header.merkle_root,
        "proposer": header.proposer,
        "view": header.view,
        "timestamp": header.timestamp,
        "shard_id": header.shard_id,
    })


def legacy_merkle_root(transactions) -> str:
    """The seed's root derivation, verbatim semantics and verbatim hashing:
    ``MerkleTree([tx.digest ...])`` re-ran ``digest_of`` over every (already
    hashed) leaf string on every build."""
    return MerkleTree.from_leaves(
        [seed_digest_of(tx.digest) for tx in transactions]
    ).root


def legacy_build_block(height: int, prev_hash: str, transactions, proposer: int,
                       view: int, timestamp: float, shard_id: int) -> Block:
    """Seed ``build_block``: always rebuilds the Merkle tree from scratch."""
    header = BlockHeader(
        height=height, prev_hash=prev_hash,
        merkle_root=legacy_merkle_root(transactions),
        proposer=proposer, view=view, timestamp=timestamp, shard_id=shard_id,
    )
    return Block(header=header, transactions=tuple(transactions))


class LegacyBlockchain(Blockchain):
    """Seed-faithful chain: Merkle re-verified and headers re-hashed per append."""

    def append(self, block: Block, verify_merkle: bool = True) -> None:
        tip_hash = uncached_block_hash(self.tip.header)
        if block.prev_hash != tip_hash:
            raise AssertionError("legacy append: prev-hash mismatch")
        if legacy_merkle_root(block.transactions) != block.header.merkle_root:
            raise AssertionError("legacy append: merkle mismatch")
        uncached_block_hash(block.header)  # the seed hashed the header on insert
        super().append(block, verify_merkle=False)

    def total_transactions(self) -> int:
        return sum(len(block) for block in self.blocks())


class LegacyPbftReplica(PbftReplica):
    """PBFT replica running the seed's redundant per-block ledger work.

    Combined with ``gc_enabled=False`` / ``dedup_window=None`` this
    reproduces the seed hot path: three Merkle builds per committed block
    (proposal, execution re-chain, append verification), per-access header
    hashing, an O(instances) scan per proposal and keep-everything state.
    """

    PROTOCOL_NAME = "HL-legacy"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.blockchain = LegacyBlockchain(shard_id=self.shard_id)

    def _maybe_propose(self) -> None:  # seed version: scans the instance table
        if not self.is_leader or self.crashed:
            return
        while self.pending_txs:
            if self.config.max_blocks is not None and self.blocks_proposed >= self.config.max_blocks:
                return
            outstanding = sum(
                1 for inst in self.instances.values() if not inst.committed
            )
            if outstanding >= self.config.pipeline_depth:
                return
            if self.config.min_block_interval > 0:
                earliest = self._last_block_time + self.config.min_block_interval
                if self.sim.now < earliest:
                    if not self._interval_retry_pending:
                        self._interval_retry_pending = True
                        self.sim.schedule_at(earliest, self._interval_retry)
                    return
            batch = []
            while self.pending_txs and len(batch) < self.config.batch_size:
                tx = self.pending_txs.popleft()
                if tx.tx_id in self.committed_tx_ids or tx.tx_id in self.in_flight_tx_ids:
                    continue
                batch.append(tx)
            if not batch:
                return
            self._propose_block(batch)

    def _propose_block(self, batch) -> None:  # seed version: full tree build
        seq = self.next_seq
        self.next_seq += 1
        for tx in batch:
            self.in_flight_tx_ids.add(tx.tx_id)
        block = legacy_build_block(
            height=seq, prev_hash="pending", transactions=tuple(batch),
            proposer=self.node_id, view=self.view, timestamp=self.sim.now,
            shard_id=self.shard_id,
        )
        self.blocks_proposed += 1
        instance = self._get_instance(seq)
        instance.block = block
        instance.block_digest = block.header.merkle_root
        instance.pre_prepared = True
        instance.prepares.add(self.node_id)
        instance.commits.add(self.node_id)
        instance.proposed_at = self.sim.now
        self._start_timer(instance)
        attestation = self._attest("pre-prepare", seq, block.header.merkle_root)
        payload = m.PrePrepare(
            view=self.view, seq=seq, block=block, leader=self.node_id,
            attestation=attestation,
        )
        size = self.config.consensus_message_bytes + self.config.transaction_bytes * len(batch)
        sign_cost = (self._signing_cost() + self.config.costs.sha256 * len(batch)
                     + self.config.proposal_overhead)
        self._last_block_time = self.sim.now
        self.cpu_execute(sign_cost, self._broadcast_consensus, m.KIND_PRE_PREPARE, payload, size)
        self.monitor.counter(f"blocks_proposed.shard{self.shard_id}").increment()

    def _apply_block(self, instance: _Instance) -> None:  # seed version
        block = instance.block
        assert block is not None
        for tx in block.transactions:
            self.committed_tx_ids.add(tx.tx_id)
            self.in_flight_tx_ids.discard(tx.tx_id)
        chained = legacy_build_block(  # second full tree build per block
            height=self.blockchain.height + 1,
            prev_hash=uncached_block_hash(self.blockchain.tip.header),
            transactions=block.transactions,
            proposer=block.header.proposer,
            view=block.header.view,
            timestamp=block.header.timestamp,
            shard_id=self.shard_id,
        )
        self.blockchain.append(chained)  # re-verifies the root (third build)
        receipts = self.engine.execute_block(chained, now=self.sim.now)
        now = self.sim.now
        self._last_block_time = now
        latency = now - instance.proposed_at if instance.proposed_at else 0.0
        self.monitor.series(f"commit_latency.replica{self.node_id}").record(now, latency)
        self.monitor.series(f"consensus_cost.replica{self.node_id}").record(now, latency)
        self.monitor.series(f"execution_cost.replica{self.node_id}").record(
            now, self.config.costs.block_execution(len(block.transactions))
        )
        self.monitor.throughput(f"replica{self.node_id}").record_commit(now, len(block.transactions))
        event = CommitEvent(replica_id=self.node_id, block=chained, receipts=receipts,
                            committed_at=now)
        for callback in self._on_commit:
            callback(event)
        if (self.config.checkpoint_interval > 0
                and self.last_executed % self.config.checkpoint_interval == 0):
            checkpoint = m.Checkpoint(seq=instance.seq, replica=self.node_id)
            self._broadcast_consensus(m.KIND_CHECKPOINT, checkpoint)
            self._record_checkpoint_vote(instance.seq, self.node_id)
        if self.is_leader:
            self._maybe_propose()


PROTOCOLS["HL-legacy"] = (LegacyPbftReplica, pbft_config)

#: Config overrides that switch the *shared* machinery back to seed
#: behaviour (keep-everything state) for the legacy path.
LEGACY_OVERRIDES = dict(gc_enabled=False, dedup_window=None, trusted_append=False)


def peak_rss_bytes() -> int:
    """Peak RSS of this process (ru_maxrss is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def replica_state_highwater(replica: ConsensusReplica) -> dict:
    """Sizes of every structure the GC/retention work is supposed to bound."""
    return {
        "instances": len(replica.instances),
        "seen_tx_ids": len(replica.seen_tx_ids),
        "committed_tx_ids": len(replica.committed_tx_ids),
        "view_change_votes": len(replica.view_change_votes),
        "checkpoint_votes": len(replica.checkpoint_votes),
        "retained_bodies": len(replica.blockchain.blocks()),
    }


def run_committee(path: str, transactions: int, rate_tps: float, seed: int,
                  committee: int = 4, clients: int = 4,
                  overrides: dict | None = None,
                  sample_state_every: float = 0.0,
                  pregenerate: bool = True,
                  max_series_samples: int | None = None) -> dict:
    """One open-loop committee run; returns counts + wall-clock measurements.

    ``path`` is "optimized" (current code, defaults) or "legacy" (the inline
    seed baseline above).  Counts are simulation outcomes and must be
    identical across paths; wall-clock numbers are what the benchmark gates.

    ``pregenerate=True`` builds (and content-hashes) the workload before the
    timed window so blocks/sec isolates the committee from the load
    generator — right for the head-to-head.  The bounded-memory run passes
    ``pregenerate=False`` instead: transactions are generated on the fly, so
    peak RSS reflects the replica state being proven bounded rather than a
    materialized 1M-transaction pool.
    """
    protocol = "HL" if path == "optimized" else "HL-legacy"
    config_overrides = dict(LEGACY_OVERRIDES) if path == "legacy" else {}
    config_overrides.update(overrides or {})
    duration = transactions / rate_tps + 15.0  # tail time to drain the pipeline

    import random as _random  # noqa: PLC0415 — keep the timed imports minimal

    from repro.consensus.cluster import default_tx_factory  # noqa: PLC0415

    batch_size = 10
    per_client = rate_tps / clients
    factories = [None] * clients
    if pregenerate:
        batches_per_client = int(transactions / rate_tps * per_client / batch_size) + 40
        pools = [
            default_tx_factory(f"client-{i}", 0.0, _random.Random(f"pool-{seed}-{i}"),
                               batches_per_client * batch_size)
            for i in range(clients)
        ]
        for pool in pools:
            for tx in pool:
                tx.digest  # noqa: B018 — clients hash/sign content before submitting

        def pool_factory(pool):
            iterator = iter(pool)

            def factory(client_id, now, rng, count):
                return [next(iterator) for _ in range(count)]
            return factory

        factories = [pool_factory(pool) for pool in pools]

    start = time.perf_counter()
    cluster = ConsensusCluster(protocol, committee, seed=seed,
                               config_overrides=config_overrides,
                               max_series_samples=max_series_samples)
    observer = cluster.replicas[0]
    failed_receipts = 0

    def count_failures(event) -> None:
        nonlocal failed_receipts
        failed_receipts += sum(1 for r in event.receipts if r.status is not TxStatus.COMMITTED)

    observer.on_commit(count_failures)

    state_peaks: dict = {}
    if sample_state_every > 0:
        def sample() -> None:
            for replica in cluster.replicas:
                for key, value in replica_state_highwater(replica).items():
                    state_peaks[key] = max(state_peaks.get(key, 0), value)
            cluster.sim.schedule(sample_state_every, sample)
        cluster.sim.schedule(sample_state_every, sample)

    for factory in factories:
        # factory=None falls back to live generation inside the run.
        cluster.add_open_loop_clients(1, rate_tps=per_client, batch_size=batch_size,
                                      tx_factory=factory)
    for client in cluster.clients:
        client.stop_at = transactions / rate_tps
    result = cluster.run(duration)
    wall = time.perf_counter() - start

    final_state = replica_state_highwater(cluster.honest_observer())
    for key, value in final_state.items():
        state_peaks[key] = max(state_peaks.get(key, 0), value)
    return {
        "path": path,
        "transactions_target": transactions,
        "rate_tps": rate_tps,
        "seed": seed,
        "committee": committee,
        "committed": result.committed_transactions,
        "aborted": failed_receipts,
        "blocks_committed": result.blocks_committed,
        "view_changes": result.view_changes,
        "sim_time_s": round(cluster.sim.now, 2),
        "wall_seconds": round(wall, 2),
        "blocks_per_sec_wall": round(result.blocks_committed / wall, 1),
        "committed_tps_wall": round(result.committed_transactions / wall, 1),
        "state_highwater": state_peaks,
    }


def counts_of(run: dict) -> tuple:
    return (run["committed"], run["aborted"], run["view_changes"], run["blocks_committed"])


MODES = {
    # mode: (head-to-head txns, rate tps, bounded-memory txns)
    "quick": (50_000, 1_500.0, 0),
    "full": (50_000, 1_500.0, 1_000_000),
}

#: Bounded-memory configuration for the long run: header-only retention,
#: bounded dedup windows and reservoir metrics.
BOUNDED_OVERRIDES = dict(ledger_retention="headers", ledger_retain_recent=64,
                         dedup_window=50_000)


def main(argv=None) -> int:
    args = harness.parser(__doc__, MODES, seed=7,
                          baseline="BENCH_consensus_baseline.json").parse_args(argv)
    txns, rate, bounded_txns = MODES[args.mode]
    harness.header(args.mode)

    # The two timed head-to-head runs are configured identically (no in-run
    # instrumentation); state high-water sampling happens in the bounded run.
    legacy = run_committee("legacy", txns, rate, args.seed)
    print(f"[bench] legacy:    {legacy['committed']} committed in {legacy['wall_seconds']}s "
          f"({legacy['blocks_per_sec_wall']} blocks/s)")
    optimized = run_committee("optimized", txns, rate, args.seed)
    print(f"[bench] optimized: {optimized['committed']} committed in "
          f"{optimized['wall_seconds']}s ({optimized['blocks_per_sec_wall']} blocks/s)")

    equivalent = counts_of(legacy) == counts_of(optimized)
    speedup = (optimized["blocks_per_sec_wall"] / legacy["blocks_per_sec_wall"]
               if legacy["blocks_per_sec_wall"] else 0.0)
    print(f"[bench] equivalence (commit/abort/view-change/blocks): "
          f"{'OK' if equivalent else 'MISMATCH'} "
          f"{counts_of(optimized)} vs {counts_of(legacy)}")
    print(f"[bench] speedup: {speedup:.2f}x blocks/sec")

    bounded = None
    if bounded_txns:
        bounded = run_committee("optimized", bounded_txns, rate, args.seed,
                                overrides=dict(BOUNDED_OVERRIDES),
                                sample_state_every=20.0,
                                pregenerate=False,  # stream the workload: RSS measures replica state
                                max_series_samples=512)
        bounded["peak_rss_bytes"] = peak_rss_bytes()
        print(f"[bench] bounded 1M run: {bounded['committed']} committed in "
              f"{bounded['wall_seconds']}s, peak RSS "
              f"{bounded['peak_rss_bytes'] / 1e6:.0f} MB, "
              f"state high-water {bounded['state_highwater']}")

    failures = []
    if not equivalent:
        failures.append("optimized path changed simulation outcomes")
    if optimized["committed"] == 0:
        failures.append("committee committed nothing")
    # Regression gate: relative to the committed baseline's speedup so the
    # check is robust to runner hardware (>20% regression fails).
    reference_speedup = (harness.load_baseline(args.baseline) or {}).get(
        "speedup_blocks_per_sec")
    if reference_speedup:
        floor = 0.8 * reference_speedup
        print(f"[bench] gate: speedup {speedup:.2f}x vs committed {reference_speedup}x "
              f"(floor {floor:.2f}x)")
        if speedup < floor:
            failures.append(f"speedup {speedup:.2f}x below {floor:.2f}x "
                            f"(>20% regression vs committed baseline)")
    elif speedup < 2.0:
        # No committed baseline available: fall back to the absolute target.
        failures.append(f"speedup {speedup:.2f}x below the 2x target and no "
                        "committed baseline found")

    return harness.finish("consensus", args, {
        "legacy": legacy,
        "optimized": optimized,
        "speedup_blocks_per_sec": round(speedup, 2),
        "equivalent_counts": equivalent,
        "bounded_run": bounded,
        "peak_rss_bytes": peak_rss_bytes(),
    }, failures)


if __name__ == "__main__":
    raise SystemExit(main())
