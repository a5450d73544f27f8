"""End-to-end tracing walkthrough: one request's span tree under failover.

Run with::

    PYTHONPATH=src python examples/tracing_demo.py

The script arms the observability layer — seeded :class:`~repro.obs.Tracer`,
unified :class:`~repro.obs.MetricsRegistry`, structured
:class:`~repro.obs.EventLog` — on a 2 shard x 2 replica fleet and walks
one request's journey through it:

1. warm traffic: every hop of a request (router -> attempt -> replica ->
   service -> worker -> store read) opens a child span, and the rendered
   ASCII tree shows where the latency went;
2. a replica dies: ``kill_replica`` evicts one worker, the event log
   records the kill, and subsequent traffic routes around it;
3. a replica dies *mid-flight*: an injected fault makes the balancer's
   first pick raise inside its ``replica.call`` span, so the trace shows
   the FAILED attempt next to the sibling that rescued the request — the
   failover hop, annotated;
4. the unified metrics exposition: per-replica service series labelled
   ``shard``/``replica``, router-level fleet counters, and histogram
   exemplars linking latency buckets back to the traces above;
5. JSONL export: the spans and events, one object per line, for offline
   diffing (seeded VirtualClock runs export byte-identical trees).

The equivalent CLI command::

    python -m repro.benchmark.cli obs --shards 2 --replicas 2 --requests 200
"""

from __future__ import annotations

import asyncio

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
from repro.obs import Observability, slowest_path
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
)

NUM_SHARDS = 2
NUM_REPLICAS = 2


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


def banner(title: str) -> None:
    print()
    print(f"=== {title} ".ljust(72, "="))
    print()


async def main() -> None:
    runner = build_runner()
    facts = runner.dataset("factbench")
    obs = Observability.for_clock(seed=42, trace_capacity=1024)

    router = ShardedValidationService.from_runner(
        runner,
        NUM_SHARDS,
        ServiceConfig(enable_cache=False),
        replicas=NUM_REPLICAS,
    )
    router.set_observability(obs)

    async with router:
        banner("1. A healthy request's span tree")
        request = ServiceRequest(facts[0], "dka", "gemma2:9b")
        response = await router.submit(request)
        print(f"outcome: {response.outcome.value}, trace: {response.trace_id}")
        print()
        print(obs.tracer.render_tree(response.trace_id))
        print()
        print(f"slowest path: {slowest_path(obs.tracer.spans(response.trace_id))}")

        banner("2. Kill a replica: evicted, logged, routed around")
        await router.kill_replica(0, 1)
        survivors = [
            await router.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
            for fact in facts[1:5]
        ]
        assert all(r.outcome is RequestOutcome.COMPLETED for r in survivors)
        print(f"{len(survivors)} requests completed after the kill")
        print()
        print(obs.events.format_table())

        banner("3. A replica dies mid-flight: the failover hop, annotated")
        # Fault one replica of the probe's shard so a request's first
        # attempt raises *inside* its replica.call span (a pre-kill would
        # leave the rotation before any attempt was traced).  A cacheless
        # shard rotates its first pick, so within one lap of the group the
        # victim is some request's first attempt.
        probe = ServiceRequest(facts[5], "dka", "gemma2:9b")
        shard = router.shard_for(probe)
        victim = 0
        injector = FaultInjector(
            FaultSchedule(
                [
                    FaultEvent(
                        at_s=0.0,
                        target=f"shard:{shard}/replica:{victim}",
                        fault=FaultSpec.parse("error:1.0"),
                    )
                ]
            ),
            clock=router.clock,
            seed=1,
        )
        router.set_fault_injection(injector)
        injector.start()
        for _ in range(NUM_REPLICAS):
            response = await router.submit(probe)
            spans = obs.tracer.spans(response.trace_id)
            attempts = [span for span in spans if span.name == "replica.call"]
            if len(attempts) > 1:
                break
        router.set_fault_injection(None)
        print(
            f"outcome: {response.outcome.value} — rescued by the sibling "
            f"replica after shard:{shard}/replica:{victim} faulted:"
        )
        print()
        print(obs.tracer.render_tree(response.trace_id))
        print()
        print(
            f"replica.call spans: "
            + ", ".join(f"{span.target} {span.status}" for span in attempts)
        )
        print(f"failovers logged: {obs.events.counts().get('failover', 0)}")

        banner("4. The unified metrics exposition")
        exposition = router.metrics.exposition()
        interesting = (
            "service_requests_total",
            "router_failovers_total",
            "service_request_latency_seconds_bucket",
        )
        shown = 0
        for line in exposition.splitlines():
            if line.startswith(interesting) or line.startswith("# TYPE"):
                if shown >= 24 and not line.startswith("# TYPE"):
                    continue
                print(line)
                shown += 1
        print(f"... ({len(exposition.splitlines())} lines total)")

        banner("5. JSONL export")
        span_count = obs.tracer.export_jsonl("/tmp/tracing_demo_spans.jsonl")
        event_count = obs.events.export_jsonl("/tmp/tracing_demo_events.jsonl")
        print(f"{span_count} spans -> /tmp/tracing_demo_spans.jsonl")
        print(f"{event_count} events -> /tmp/tracing_demo_events.jsonl")
        print(
            f"(head sampling kept every trace at sample_rate=1.0; "
            f"{obs.tracer.sampled_out} sampled away)"
        )


if __name__ == "__main__":
    asyncio.run(main())
