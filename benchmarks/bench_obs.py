"""Observability benchmark: tracing overhead, exposition, determinism.

Three floors, mirroring the PR 7 acceptance criteria:

1. **Tracing-on overhead <= 1.15x.**  The same seeded closed-loop load
   runs twice against fresh fleets — observability disarmed, then armed
   with ``sample_rate=1.0`` (every span buffered, committed, retained) —
   and the armed run's p99 latency and throughput must stay within 1.15x
   of the bare run (plus a small additive epsilon so microsecond-scale
   baselines don't turn the ratio into a coin flip).  ``time_scale`` is
   kept > 0 so the workload is dominated by simulated model latency the
   way production traffic would be, not by pure Python dispatch.

2. **Exposition output parses.**  The armed fleet's merged Prometheus-style
   exposition (per-replica service series under ``shard``/``replica``
   labels plus router-level fleet counters) must round-trip through the
   strict :func:`repro.obs.parse_exposition` consumer and contain every
   registered metric family.

3. **Span-tree determinism.**  Two fresh fleets on seeded
   :class:`~repro.chaos.clock.VirtualClock` instances, same tracer seed,
   same sequential schedule, must export byte-identical span JSONL and
   byte-identical rendered span trees.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q -s \
        --benchmark-json=benchmarks/out/obs.json
"""

from __future__ import annotations

import asyncio
import io

import pytest
from conftest import run_once

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos.clock import VirtualClock
from repro.obs import Observability, parse_exposition
from repro.service import (
    ROUTER_METRIC_NAMES,
    SERVICE_METRIC_NAMES,
    LoadGenerator,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    build_workload,
)

METHODS = ("dka",)
MODELS = ("gemma2:9b",)

#: Multiplicative overhead ceiling for tracing-on vs tracing-off.
OVERHEAD_CEILING = 1.15
#: Additive slack (seconds / rps) so near-zero baselines stay meaningful.
LATENCY_EPSILON_S = 0.002
THROUGHPUT_EPSILON_RPS = 5.0

REQUESTS = 400
CONCURRENCY = 32

#: Families ``RouterMetrics`` creates per configured edge (the session
#: fallback counter is fleet-level and always present).
EDGE_METRIC_NAMES = tuple(
    name
    for name in ROUTER_METRIC_NAMES
    if name.startswith("router_geo_") and name != "router_geo_session_fallbacks_total"
)


@pytest.fixture(scope="module")
def obs_bench_runner() -> BenchmarkRunner:
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.05,
            max_facts_per_dataset=60,
            world_scale=0.2,
            methods=METHODS,
            datasets=("factbench",),
            models=MODELS,
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def _workload(runner):
    return build_workload(
        [runner.dataset("factbench")], list(METHODS), list(MODELS), REQUESTS, seed=5
    )


def _run_load(runner, obs, edges=0):
    """One closed-loop run against a fresh 2x2 fleet; returns the report."""

    async def go():
        router = ShardedValidationService.from_runner(
            runner,
            2,
            ServiceConfig(enable_cache=False, time_scale=0.01),
            replicas=2,
            # The geo tier needs a store to replicate; the edge-less fleet
            # keeps serving straight from the runner as before.
            store=runner.sharded_store("factbench", 2).replay_twin() if edges else None,
            edges=edges,
        )
        if obs is not None:
            router.set_observability(obs)
        async with router:
            generator = LoadGenerator(
                router, _workload(runner), concurrency=CONCURRENCY
            )
            report = await generator.run()
            exposition = router.metrics.exposition()
        return report, exposition

    return asyncio.run(go())


def test_benchmark_tracing_overhead_within_ceiling(benchmark, obs_bench_runner):
    baseline, _ = _run_load(obs_bench_runner, None)
    obs = Observability.for_clock(seed=42, sample_rate=1.0, trace_capacity=8192)
    traced, _ = run_once(benchmark, _run_load, obs_bench_runner, obs)

    base_p99 = baseline.snapshot.p99_latency_s
    traced_p99 = traced.snapshot.p99_latency_s
    base_rps = baseline.throughput_rps
    traced_rps = traced.throughput_rps

    print()
    print(
        f"p99: bare {base_p99 * 1000:.2f} ms, traced {traced_p99 * 1000:.2f} ms "
        f"({traced_p99 / base_p99 if base_p99 else float('inf'):.3f}x)"
    )
    print(
        f"throughput: bare {base_rps:.0f} rps, traced {traced_rps:.0f} rps "
        f"({base_rps / traced_rps if traced_rps else float('inf'):.3f}x)"
    )

    assert traced.failures == 0 and baseline.failures == 0
    assert traced_p99 <= base_p99 * OVERHEAD_CEILING + LATENCY_EPSILON_S, (
        f"tracing-on p99 {traced_p99:.4f}s exceeds "
        f"{OVERHEAD_CEILING}x bare {base_p99:.4f}s"
    )
    assert traced_rps * OVERHEAD_CEILING + THROUGHPUT_EPSILON_RPS >= base_rps, (
        f"tracing-on throughput {traced_rps:.0f} rps more than "
        f"{OVERHEAD_CEILING}x below bare {base_rps:.0f} rps"
    )
    # Full sampling really retained the run's traces.
    assert len(obs.tracer.trace_ids()) >= traced.completed


@pytest.mark.parametrize("edges", [0, 1])
def test_benchmark_exposition_parses_and_is_complete(benchmark, obs_bench_runner, edges):
    obs = Observability.for_clock(seed=42, sample_rate=0.05, trace_capacity=1024)
    report, exposition = run_once(benchmark, _run_load, obs_bench_runner, obs, edges)

    parsed = parse_exposition(exposition)  # strict: raises on malformed lines
    for name in SERVICE_METRIC_NAMES + ROUTER_METRIC_NAMES:
        if name in EDGE_METRIC_NAMES:
            # Per-edge families exist once per configured edge, labelled.
            samples = parsed[name]["samples"] if name in parsed else []
            edge_labels = [labels for _, labels, _ in samples if 'edge="' in labels]
            assert len(edge_labels) == edges, f"{name!r}: {edge_labels} for {edges} edges"
            assert all('edge="edge-0"' in labels for labels in edge_labels)
        else:
            assert name in parsed, f"exposition lost metric family {name!r}"
    # Per-replica series carry fleet coordinates; a 2x2 fleet has 4 of each.
    samples = parsed["service_requests_total"]["samples"]
    labelled = {labels for _, labels, _ in samples}
    for shard in (0, 1):
        for replica in (0, 1):
            assert any(
                f'shard="{shard}"' in labels and f'replica="{replica}"' in labels
                for labels in labelled
            ), f"no series for shard:{shard}/replica:{replica}"
    print()
    print(
        f"exposition: {len(parsed)} families, "
        f"{sum(len(family['samples']) for family in parsed.values())} samples, "
        f"{report.completed} requests behind them"
    )


def test_benchmark_span_trees_are_deterministic(benchmark, obs_bench_runner):
    dataset = obs_bench_runner.dataset("factbench")
    requests = [
        ServiceRequest(fact, method, model)
        for fact in dataset[:24]
        for method in METHODS
        for model in MODELS
    ]

    def run_seeded() -> str:
        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=7, trace_capacity=4096)

        async def go():
            router = ShardedValidationService.from_runner(
                obs_bench_runner,
                2,
                ServiceConfig(enable_cache=False, time_scale=0.0),
                replicas=2,
                clock=clock,
            )
            router.set_observability(obs)
            async with router:
                for request in requests:
                    await router.submit(request)

        asyncio.run(go())
        sink = io.StringIO()
        obs.tracer.export_jsonl(sink)
        trees = "\n".join(
            obs.tracer.render_tree(trace_id) for trace_id in obs.tracer.trace_ids()
        )
        return sink.getvalue() + "\n===\n" + trees

    first = run_once(benchmark, run_seeded)
    second = run_seeded()
    assert first.strip(), "the seeded run must produce spans"
    assert first == second, "span JSONL / rendered trees differ between reruns"
    span_lines = first.split("\n===\n", 1)[0].strip().splitlines()
    print()
    print(
        f"determinism: {len(span_lines)} spans byte-identical across two "
        f"seeded VirtualClock runs"
    )
