"""Online serving walkthrough: submit facts, watch batching, caching, shedding.

Run with::

    PYTHONPATH=src python examples/online_service_demo.py

The script builds a small substrate, starts a single node in-process (the
1x1 fleet: one shard of one ``ValidationService`` worker behind the
router), and walks through the serving features one at a time:

1. single-fact requests returning full ``ValidationResult``s;
2. micro-batching under concurrent submissions;
3. verdict-cache hits on repeat traffic;
4. admission control shedding overload with explicit ``REJECTED`` outcomes;
5. a closed-loop load-generator run with the latency/throughput report;
6. the same node behind the TCP JSON-lines front-end.

The equivalent CLI commands::

    python -m repro.benchmark.cli serve --port 8765
    python -m repro.benchmark.cli loadgen --requests 500 --concurrency 32
"""

from __future__ import annotations

import asyncio
import json

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.service import (
    LoadGenerator,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    TCPValidationFrontend,
    build_workload,
)


def build_runner() -> BenchmarkRunner:
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=20,
            world_scale=0.2,
            methods=("dka", "giv-z"),
            datasets=("factbench",),
            models=("gemma2:9b", "qwen2.5:7b"),
            include_commercial_in_grid=False,
        )
    )


async def single_requests(runner: BenchmarkRunner) -> None:
    print("=== 1. Single-fact requests ===")
    dataset = runner.dataset("factbench")
    async with ShardedValidationService.from_runner(runner, 1) as service:
        for fact in dataset.facts()[:3]:
            response = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
            result = response.result
            print(
                f"  {fact.subject_name} --{fact.predicate_name}--> {fact.object_name}: "
                f"verdict={result.verdict.value} gold={fact.label} "
                f"({response.latency_seconds * 1000:.2f} ms in service, "
                f"{result.total_tokens} tokens)"
            )


async def micro_batching(runner: BenchmarkRunner) -> None:
    print("\n=== 2. Micro-batching under concurrency ===")
    dataset = runner.dataset("factbench")
    config = ServiceConfig(max_batch_size=8, enable_cache=False)
    async with ShardedValidationService.from_runner(runner, 1, config) as service:
        responses = await asyncio.gather(
            *(service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
              for fact in dataset.facts()[:8])
        )
        print(f"  8 concurrent submissions -> batch sizes "
              f"{[response.batch_size for response in responses]}")
        print(f"  batches dispatched: {service.metrics.snapshot().batches}")


async def verdict_cache(runner: BenchmarkRunner) -> None:
    print("\n=== 3. Verdict cache ===")
    fact = runner.dataset("factbench")[0]
    async with ShardedValidationService.from_runner(runner, 1) as service:
        first = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
        second = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
        print(f"  first:  cached={first.cached}  {first.latency_seconds * 1000:.3f} ms")
        print(f"  second: cached={second.cached}   {second.latency_seconds * 1000:.3f} ms "
              f"(identical result: {second.result == first.result})")
        worker = service.groups[0][0]  # the node's one replica worker
        print(f"  cache stats: {worker.cache.stats()}")


async def admission_control(runner: BenchmarkRunner) -> None:
    print("\n=== 4. Admission control ===")
    dataset = runner.dataset("factbench")
    config = ServiceConfig(max_batch_size=1, queue_depth=3, time_scale=0.01,
                           enable_cache=False)
    async with ShardedValidationService.from_runner(runner, 1, config) as service:
        responses = await asyncio.gather(
            *(service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
              for fact in dataset.facts()[:12])
        )
        shed = sum(1 for response in responses if response.rejected)
        print(f"  12 bursty requests against queue_depth=3 -> "
              f"{12 - shed} completed, {shed} shed with outcome=REJECTED")


def closed_loop(runner: BenchmarkRunner) -> None:
    print("\n=== 5. Closed-loop load generator ===")
    workload = build_workload(
        [runner.dataset("factbench")],
        methods=("dka", "giv-z"),
        models=("gemma2:9b", "qwen2.5:7b"),
        total_requests=300,
        seed=5,
        method_weights={"dka": 3.0, "giv-z": 1.0},
    )
    config = ServiceConfig(max_batch_size=16, time_scale=0.002)
    service = ShardedValidationService.from_runner(runner, 1, config)
    report = LoadGenerator(service, workload, concurrency=24).run_sync()
    print("  " + report.format_table().replace("\n", "\n  "))


async def tcp_frontend(runner: BenchmarkRunner) -> None:
    print("\n=== 6. TCP JSON-lines front-end ===")
    dataset = runner.dataset("factbench")
    async with ShardedValidationService.from_runner(runner, 1) as service:
        async with TCPValidationFrontend(service, {"factbench": dataset}) as frontend:
            reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
            request = {
                "dataset": "factbench",
                "fact_id": dataset[0].fact_id,
                "method": "dka",
                "model": "gemma2:9b",
                "id": "demo-1",
            }
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            print(f"  -> {json.dumps(request)}")
            print(f"  <- {(await reader.readline()).decode().strip()}")
            writer.write(b'{"cmd": "metrics"}\n')
            await writer.drain()
            print(f"  <- {(await reader.readline()).decode().strip()}")
            writer.close()
            await writer.wait_closed()


def main() -> None:
    runner = build_runner()
    asyncio.run(single_requests(runner))
    asyncio.run(micro_batching(runner))
    asyncio.run(verdict_cache(runner))
    asyncio.run(admission_control(runner))
    closed_loop(runner)
    asyncio.run(tcp_frontend(runner))


if __name__ == "__main__":
    main()
