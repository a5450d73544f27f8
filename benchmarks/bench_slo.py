"""SLO-pipeline benchmark: scrape overhead, alert determinism, no false pages.

Three floors, mirroring the PR 8 acceptance criteria:

1. **Scrape+evaluate overhead <= 1.1x.**  The same seeded closed-loop
   load runs against fresh tracing-on 2x2 fleets — bare, and with an
   :class:`~repro.obs.alerts.SLOMonitor` ticking concurrently (scraping
   the merged fleet registry and evaluating every SLO and burn rule on
   each tick) — and the monitored runs' p50 latency and throughput must
   stay within 1.1x of the bare runs (best of two per variant, plus a
   small additive epsilon, so scheduler noise doesn't turn the ratio
   into a coin flip; the tail percentiles of a 400-request run are too
   noisy to floor at 1.1x).

2. **Alert determinism.**  Two fresh fleets on seeded
   :class:`~repro.chaos.clock.VirtualClock` instances, one replica
   killed at t=0, driven through the same chunked schedule with a
   monitor tick per virtual refresh interval, must produce byte-identical
   dashboard frame sequences and byte-identical alert event streams —
   and the ``fleet-availability`` page must actually fire.

3. **Zero false pages on a fault-free baseline.**  The same seeded
   engine with no fault leaves every alert ``inactive`` and the fired
   set empty: the burn-rate thresholds never page on healthy traffic.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_slo.py -q -s \
        --benchmark-json=benchmarks/out/slo.json
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest
from conftest import run_once

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos.clock import VirtualClock
from repro.obs import (
    MetricsScraper,
    Observability,
    SLOMonitor,
    fleet_slos,
    render_dashboard,
)
from repro.service import (
    LoadGenerator,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    build_workload,
)

METHODS = ("dka",)
MODELS = ("gemma2:9b",)

#: Multiplicative ceiling for the monitored run vs the bare tracing-on run.
OVERHEAD_CEILING = 1.1
#: Additive slack (seconds / rps) so near-zero baselines stay meaningful.
LATENCY_EPSILON_S = 0.002
THROUGHPUT_EPSILON_RPS = 5.0

REQUESTS = 400
CONCURRENCY = 32
#: Virtual seconds between monitor ticks in the deterministic engine.
REFRESH_S = 0.5


@pytest.fixture(scope="module")
def slo_bench_runner() -> BenchmarkRunner:
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


def _monitor_for(router, clock=None, events=None):
    return SLOMonitor(
        MetricsScraper(
            lambda: router.metrics.collect_families(),
            clock=clock,
            interval_s=REFRESH_S,
        ),
        fleet_slos(2, 2),
        events=events,
    )


def _run_load(runner, monitored: bool):
    """One closed-loop run against a fresh tracing-on 2x2 fleet; with
    ``monitored`` an SLOMonitor scrapes + evaluates concurrently."""

    async def go():
        obs = Observability.for_clock(seed=42, sample_rate=1.0, trace_capacity=8192)
        router = ShardedValidationService.from_runner(
            runner,
            2,
            ServiceConfig(enable_cache=False, time_scale=0.01),
            replicas=2,
        )
        router.set_observability(obs)
        monitor = _monitor_for(router) if monitored else None
        async with router:
            generator = LoadGenerator(
                router, _workload(runner), concurrency=CONCURRENCY
            )
            if monitor is None:
                report = await generator.run()
            else:
                stop = asyncio.Event()

                async def ticking():
                    # 10 ms cadence — two orders of magnitude hotter than
                    # a production scrape interval, so the floor measures
                    # a worst case without degenerating into a GIL duel.
                    while not stop.is_set():
                        monitor.tick()
                        await asyncio.sleep(0.01)

                ticker = asyncio.create_task(ticking())
                try:
                    report = await generator.run()
                finally:
                    stop.set()
                    await ticker
                monitor.tick()
        return report, monitor

    return asyncio.run(go())


def test_benchmark_scrape_and_evaluate_overhead_within_ceiling(
    benchmark, slo_bench_runner
):
    # Best of two per variant: the fastest run of each side is the one
    # least polluted by scheduler noise, so the ratio measures the
    # monitor, not the kernel's mood.
    baselines = [_run_load(slo_bench_runner, monitored=False) for _ in range(2)]
    monitoreds = [
        run_once(benchmark, _run_load, slo_bench_runner, True),
        _run_load(slo_bench_runner, True),
    ]

    base_p50 = min(report.snapshot.p50_latency_s for report, _ in baselines)
    mon_p50 = min(report.snapshot.p50_latency_s for report, _ in monitoreds)
    base_rps = max(report.throughput_rps for report, _ in baselines)
    mon_rps = max(report.throughput_rps for report, _ in monitoreds)
    monitor = monitoreds[0][1]

    print()
    print(
        f"p50: bare {base_p50 * 1000:.2f} ms, monitored {mon_p50 * 1000:.2f} ms "
        f"({mon_p50 / base_p50 if base_p50 else float('inf'):.3f}x); "
        f"{monitor.scraper.scrapes} scrapes over {len(monitor.scraper)} series"
    )
    print(
        f"throughput: bare {base_rps:.0f} rps, monitored {mon_rps:.0f} rps "
        f"({base_rps / mon_rps if mon_rps else float('inf'):.3f}x)"
    )

    assert all(report.failures == 0 for report, _ in baselines + monitoreds)
    assert monitor.scraper.scrapes >= 10, "the monitor barely ran — floor is vacuous"
    assert monitor.scraper.dropped_series == 0
    assert mon_p50 <= base_p50 * OVERHEAD_CEILING + LATENCY_EPSILON_S, (
        f"monitored p50 {mon_p50:.4f}s exceeds "
        f"{OVERHEAD_CEILING}x bare {base_p50:.4f}s"
    )
    assert mon_rps * OVERHEAD_CEILING + THROUGHPUT_EPSILON_RPS >= base_rps, (
        f"monitored throughput {mon_rps:.0f} rps more than "
        f"{OVERHEAD_CEILING}x below bare {base_rps:.0f} rps"
    )
    # Healthy traffic under load must not page.
    for _, mon in monitoreds:
        assert mon.manager.fired_ids() == []


def _run_seeded(runner, kill: bool) -> tuple:
    """The deterministic dashboard engine: VirtualClock fleet, chunked
    sequential schedule, one monitor tick per REFRESH_S of virtual time.
    Returns ``(transcript, fired_ids, states)`` where the transcript is
    every dashboard frame plus the alert event JSONL."""
    dataset = runner.dataset("factbench")
    requests = [
        ServiceRequest(fact, method, model)
        for fact in dataset[:24]
        for method in METHODS
        for model in MODELS
    ]
    clock = VirtualClock()
    obs = Observability.for_clock(clock, seed=7, trace_capacity=4096)

    async def go():
        router = ShardedValidationService.from_runner(
            runner,
            2,
            ServiceConfig(enable_cache=False, time_scale=0.0),
            replicas=2,
            clock=clock,
        )
        router.set_observability(obs)
        monitor = _monitor_for(router, clock=clock, events=obs.events)
        frames = []
        async with router:
            if kill:
                await router.kill_replica(0, 1)
            for start in range(0, len(requests), 6):
                for request in requests[start : start + 6]:
                    await router.submit(request)
                await clock.run_for(REFRESH_S)
                monitor.tick()
                frames.append(
                    render_dashboard(
                        monitor,
                        fleet=router.metrics,
                        events=obs.events,
                        now_s=clock.now(),
                        title="bench 2x2",
                    )
                )
        return frames, monitor

    frames, monitor = asyncio.run(go())
    alert_events = "\n".join(
        json.dumps(event.to_dict(), sort_keys=True)
        for event in obs.events.events()
        if event.kind.startswith("alert_")
    )
    transcript = "\n\n".join(frames) + "\n===\n" + alert_events
    states = {alert.alert_id: alert.state for alert in monitor.manager.alerts()}
    return transcript, monitor.manager.fired_ids(), states


def test_benchmark_alert_timeline_is_deterministic(benchmark, slo_bench_runner):
    first, fired, _ = run_once(benchmark, _run_seeded, slo_bench_runner, True)
    second, fired_again, _ = _run_seeded(slo_bench_runner, True)

    assert first == second, "dashboard frames / alert events differ between reruns"
    assert fired == fired_again
    assert "fleet-availability:page" in fired, (
        f"the kill run must page fleet-availability; fired: {fired}"
    )
    frame_count = first.split("\n===\n", 1)[0].count("── obs top")
    event_count = len(first.split("\n===\n", 1)[1].splitlines())
    print()
    print(
        f"determinism: {frame_count} frames + {event_count} alert events "
        f"byte-identical across two seeded VirtualClock runs; fired={fired}"
    )


def test_benchmark_fault_free_baseline_fires_zero_pages(benchmark, slo_bench_runner):
    transcript, fired, states = run_once(benchmark, _run_seeded, slo_bench_runner, False)

    assert fired == [], f"fault-free baseline paged: {fired}"
    assert states and all(state == "inactive" for state in states.values()), states
    assert "\n===\n" in transcript and transcript.endswith("===\n"), (
        "fault-free run must emit zero alert events"
    )
    print()
    print(
        f"no false pages: {len(states)} alerts all inactive over "
        f"{transcript.count('── obs top')} monitored frames"
    )
