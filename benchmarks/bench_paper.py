"""The paper's tables and figures, one case per entry of ``EXPERIMENTS``.

Each case renders one experiment once under pytest-benchmark timing at the
bench scale (``conftest.py``) and prints it — the same text ``python -m
repro.benchmark.cli --experiment <name>`` prints.  What the numbers must
look like is asserted in ``tests/test_benchmark_experiments.py``; their
exact values at the tier-1 scale are pinned in ``BENCH_paper.json``.
"""

import pytest
from conftest import run_once

from repro.benchmark import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_benchmark_paper(benchmark, runner, name):
    print()
    print(run_once(benchmark, EXPERIMENTS[name].render, runner))
