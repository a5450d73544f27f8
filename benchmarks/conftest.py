"""Shared fixtures for the benchmark harness.

One :class:`BenchmarkRunner` is built per session at a reduced-but-faithful
scale (the paper-scale configuration is documented in
``repro.benchmark.config.PAPER_SCALE_CONFIG``); ``bench_paper.py``
regenerates every table and figure from it and prints the rows so the output
can be compared side-by-side with the paper.

Perf runs should emit machine-readable JSON for the BENCH_* trajectory::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpaths.py -q -s \
        --benchmark-json=benchmarks/out/hotpaths.json

(``--benchmark-json`` is provided by pytest-benchmark; ``benchmarks/out/``
is the conventional output location — create it first.  See
``benchmarks/README.md`` for the full invocation matrix.)
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        scale=0.05,
        max_facts_per_dataset=60,
        world_scale=0.3,
        documents_per_fact=14,
        serp_results_per_query=30,
        seed=7,
    )


@pytest.fixture(scope="session")
def runner(bench_config) -> BenchmarkRunner:
    return BenchmarkRunner(bench_config)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic and (for the grid-sized ones) too
    expensive to repeat dozens of times, so a single timed round is both
    faithful and sufficient.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
