"""Chaos latency floor: failover under kills must not blow up the tail.

One floor — a timing ratio no ``benchmarks/e2e`` cell covers, because every
e2e workload runs fault-free:

**Kill one replica per shard under load: zero FAILED, p99 <= 3x the
fault-free reference.**  A declarative scenario kills ``replica:1`` of
every shard mid-run; the closed-loop report must show every request
COMPLETED (failover absorbs the kills) with tail latency within 3x of
the fault-free cell of the same matrix.

The clock-free resilience mechanisms — ``DEGRADED`` not ``FAILED`` after
budget exhaustion with exact retry counters, run-table determinism — are
tier-1 tests in ``tests/test_chaos.py``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py -q -s \
        --benchmark-json=benchmarks/out/chaos.json
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos import ScenarioRunner, load_scenario

METHODS = ("dka",)
MODELS = ("gemma2:9b",)


@pytest.fixture(scope="module")
def chaos_bench_runner() -> BenchmarkRunner:
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


def _kill_scenario() -> dict:
    """2 shards x 2 replicas; replica:1 of every shard dies mid-run."""
    return {
        "name": "kill-one-replica-per-shard",
        "seed": 23,
        "dataset": "factbench",
        "methods": list(METHODS),
        "models": list(MODELS),
        "requests": 300,
        "concurrency": 32,
        "service": {
            "request_timeout_s": 0.5,
            "probe_interval_s": 0.02,
            "time_scale": 0.004,
            "enable_cache": False,
        },
        "retry": {"max_attempts": 3, "base_backoff_s": 0.002, "max_backoff_s": 0.05},
        "matrix": {
            "topology": [{"shards": 2, "replicas": 2}],
            "traffic": [{"shape": "steady"}],
            "faults": [
                {
                    "name": "kill-one-per-shard",
                    "schedule": [
                        {"at_s": 0.05, "target": "shard:0/replica:1", "fault": "kill"},
                        {"at_s": 0.05, "target": "shard:1/replica:1", "fault": "kill"},
                    ],
                }
            ],
        },
        "invariants": {"max_failed": 0, "verdict_parity": True},
    }


def test_benchmark_kill_one_replica_per_shard_latency_floor(
    benchmark, chaos_bench_runner
):
    scenario = load_scenario(_kill_scenario())
    table = run_once(benchmark, ScenarioRunner(chaos_bench_runner, scenario).run)

    print()
    print(table.markdown())

    reference = next(cell for cell in table.cells if cell.reference)
    killed = next(cell for cell in table.cells if not cell.reference)

    # Floor: the kills are invisible — zero FAILED, nothing shed, every
    # invariant (including verdict parity against the reference) passes.
    assert table.ok, f"invariant failures: {table.failed_checks()}"
    assert killed.report.failures == 0
    assert killed.report.rejected == 0
    assert killed.report.completed == scenario.requests
    assert killed.verdict_digest == reference.verdict_digest

    # Floor: tail latency within 3x of the fault-free reference cell.
    ratio = killed.snapshot.p99_latency_s / max(reference.snapshot.p99_latency_s, 1e-9)
    print(
        f"\np99 fault-free {reference.snapshot.p99_latency_s * 1000:.2f} ms, "
        f"killed {killed.snapshot.p99_latency_s * 1000:.2f} ms ({ratio:.2f}x)"
    )
    assert ratio <= 3.0, (
        f"p99 under kill-one-replica-per-shard is {ratio:.2f}x the fault-free "
        f"reference (floor: 3x)"
    )
