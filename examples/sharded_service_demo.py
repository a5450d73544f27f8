"""Sharded serving-tier walkthrough: scatter-gather routing over N shards.

Run with::

    PYTHONPATH=src python examples/sharded_service_demo.py

The script partitions the knowledge substrate across four
:class:`~repro.store.VersionedKnowledgeStore` shards by consistent hashing
on the subject entity and walks the sharded tier end to end:

1. consistent-hash partitioning: every fact has one owning shard,
   growing the ring remaps only a fraction of the key space;
2. scatter-gather serving: a multi-fact batch fans out to the owning
   shards and merges deterministically — verdicts byte-identical to the
   single node (the 1x1 fleet);
3. per-shard ingest: a mutation batch routed to one shard bumps only
   that shard's epoch, so only its cached verdicts go stale while every
   other shard keeps serving from cache;
4. fault isolation: a shard that raises surfaces an explicit ``FAILED``
   outcome without touching its neighbours;
5. the aggregate metrics roll-up (fleet percentiles over the combined
   latency windows, per-shard breakdown).

The equivalent CLI commands::

    python -m repro.benchmark.cli serve --shards 4 --methods dka
    python -m repro.benchmark.cli loadgen --shards 4 --requests 500
"""

from __future__ import annotations

import asyncio
from collections import Counter

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    ValidationService,
)
from repro.store import HashRing, Mutation

NUM_SHARDS = 4


def build_runner() -> BenchmarkRunner:
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.05,
            max_facts_per_dataset=24,
            world_scale=0.2,
            methods=("dka",),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def consistent_hashing(runner: BenchmarkRunner) -> None:
    print("=== 1. Consistent-hash partitioning ===")
    store = runner.sharded_store("factbench", NUM_SHARDS)
    print(
        f"partitioned {store.total_triples} triples and {store.total_documents} "
        f"documents across {store.num_shards} shards; epoch vector "
        f"{list(store.epoch_vector)}"
    )
    dataset = runner.dataset("factbench")
    spread = Counter(store.shard_for(fact.triple.subject) for fact in dataset)
    print(f"fact ownership: {dict(sorted(spread.items()))}")
    keys = [fact.triple.subject for fact in dataset]
    grown = HashRing(NUM_SHARDS + 1)
    moved = sum(1 for key in keys if store.shard_for(key) != grown.shard_for(key))
    print(
        f"growing the ring {NUM_SHARDS} -> {NUM_SHARDS + 1} remaps "
        f"{moved}/{len(keys)} facts (consistent hashing, not modulo)\n"
    )


async def scatter_gather(runner: BenchmarkRunner) -> None:
    print("=== 2. Scatter-gather serving ===")
    dataset = runner.dataset("factbench")
    requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
    config = ServiceConfig(enable_cache=False, max_batch_size=8)
    router = ShardedValidationService.from_runner(runner, NUM_SHARDS, config)
    async with router:
        gathered = await router.submit_many(requests)
    single = ShardedValidationService.from_runner(runner, 1, config)
    async with single:
        flat = await single.submit_many(requests)
    identical = all(a.result == b.result for a, b in zip(gathered, flat))
    per_shard = [snapshot.completed for snapshot in router.metrics.per_shard()]
    print(
        f"scattered {len(requests)} facts across shards {per_shard}, "
        f"gathered in submission order"
    )
    print(f"verdicts byte-identical to the single node (the 1x1 fleet): {identical}\n")


async def per_shard_ingest(runner: BenchmarkRunner) -> None:
    print("=== 3. Per-shard ingest and cache invalidation ===")
    dataset = runner.dataset("factbench")
    store = runner.sharded_store("factbench", NUM_SHARDS)
    router = ShardedValidationService.from_runner(
        runner, NUM_SHARDS, ServiceConfig(), store=store
    )
    requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
    target = dataset[0]
    owner = store.shard_for(target.triple.subject)
    async with router:
        await router.submit_many(requests)          # cold: fill the caches
        warm = await router.submit_many(requests)   # warm: all cached
        report = await router.apply_mutations(
            [Mutation.add_triple(target.triple.subject, "updatedBy", "Newswire_Feed")]
        )
        after = await router.submit_many(requests)
    print(f"warm pass: {sum(r.cached for r in warm)}/{len(warm)} served from cache")
    print(
        f"ingest routed to shard {owner} only (shards touched: "
        f"{list(report.shards_touched)}); epoch vector {list(report.epoch_vector)}"
    )
    stale = [i for i, r in enumerate(after) if not r.cached]
    still_hot = sum(1 for r in after if r.cached)
    print(
        f"after the ingest: {len(stale)} facts re-judged (all owned by shard "
        f"{owner}), {still_hot} still cache-hot on the other shards\n"
    )


async def fault_isolation(runner: BenchmarkRunner) -> None:
    print("=== 4. Fault isolation ===")
    dataset = runner.dataset("factbench")
    requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
    config = ServiceConfig(enable_cache=False)

    def provider_for(index: int):
        if index == 0:
            def poisoned(method, dataset_name, model):
                raise ConnectionError("shard backend unreachable")
            return poisoned
        def healthy(method, dataset_name, model):
            return runner.build_strategy(method, dataset_name, runner.registry.get(model))
        return healthy

    # One replica group of one worker per shard.
    groups = [[ValidationService(provider_for(i), config)] for i in range(NUM_SHARDS)]
    router = ShardedValidationService(groups)
    async with router:
        responses = await router.submit_many(requests)
    outcomes = Counter(response.outcome.value for response in responses)
    print(f"shard 0 poisoned; outcomes: {dict(outcomes)}")
    failed = next(r for r in responses if r.outcome is RequestOutcome.FAILED)
    print(f"a failed slot carries its reason: {failed.error!r}")
    print("healthy shards answered normally — no hang, no silent drop\n")


async def metrics_rollup(runner: BenchmarkRunner) -> None:
    print("=== 5. Aggregate metrics roll-up ===")
    dataset = runner.dataset("factbench")
    router = ShardedValidationService.from_runner(
        runner, NUM_SHARDS, ServiceConfig(enable_cache=False, time_scale=0.002)
    )
    requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset] * 4
    async with router:
        await router.submit_many(requests)
    print(router.metrics.snapshot().format_table("Fleet metrics"))
    print()
    print(router.metrics.format_shard_table())


def main() -> None:
    runner = build_runner()
    consistent_hashing(runner)
    asyncio.run(scatter_gather(runner))
    asyncio.run(per_shard_ingest(runner))
    asyncio.run(fault_isolation(runner))
    asyncio.run(metrics_rollup(runner))


if __name__ == "__main__":
    main()
