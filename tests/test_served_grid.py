"""The paper, served: a replicated fleet reproduces ``BENCH_paper.json``.

Every fact of every grid cell goes through
:class:`~repro.service.ShardedValidationService` (two shards, two
replicas each), and each cell's digest is rebuilt from the served
``response.result`` exactly as :func:`repro.benchmark.grid_digests` builds
it offline.  The served grid must equal the pin's ``grid`` cell by cell,
also when replica 1 of every shard is dead before the first request.

The runner is built here, not taken from the session ``runner`` fixture,
so this test shares no strategy, cache or telemetry with the pin test and
passes before or after it.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.benchmark import BenchmarkRunner, grid_digests
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
)
from repro.validation.base import ValidationRun
from test_paper_pin import PIN, _diff


@pytest.fixture(scope="module")
def served_runner(quick_config):
    return BenchmarkRunner(quick_config)


def _served_grid(runner: BenchmarkRunner, killed_replica=None):
    """``grid_digests`` of the grid served by a fresh 2x2 fleet, and how
    many requests each replica completed, per shard."""
    router = ShardedValidationService.from_runner(
        runner, 2, ServiceConfig(queue_depth=4096), replicas=2
    )
    cells = runner.grid_cells()
    requests = [
        ServiceRequest(fact, method, model)
        for method, dataset, model in cells
        for fact in runner.dataset(dataset)
    ]

    async def serve():
        async with router:
            if killed_replica is not None:
                for shard in range(router.num_shards):
                    await router.kill_replica(shard, killed_replica)
            return await router.submit_many(requests)

    responses = iter(asyncio.run(serve()))
    grid: dict = {}
    for method, dataset, model in cells:
        run = ValidationRun(method=method, model=model, dataset=dataset)
        for _ in runner.dataset(dataset):
            response = next(responses)
            assert response.outcome is RequestOutcome.COMPLETED, response.error
            run.add(response.result)
        grid.setdefault(method, {}).setdefault(dataset, {})[model] = run
    completed = [[replica.metrics.snapshot().completed for replica in group]
                 for group in router.groups]
    return grid_digests(grid), completed


@pytest.mark.parametrize("killed_replica", [None, 1], ids=["whole-fleet", "replica-1-dead"])
def test_the_served_grid_equals_the_pin(served_runner, killed_replica):
    pinned = json.loads(PIN.read_text(encoding="utf-8"))["grid"]
    served, completed = _served_grid(served_runner, killed_replica)
    moved = [f"  {path}: {old!r} -> {new!r}" for path, old, new in _diff(pinned, served, "/grid")]
    assert not moved, f"{len(moved)} served cells differ from the pin:\n" + "\n".join(moved)
    # With the whole fleet up both replicas of each shard serve; with
    # replica 1 dead, only replica 0 does.
    assert all((per_replica[1] == 0) == (killed_replica == 1) for per_replica in completed)
    assert all(per_replica[0] > 0 for per_replica in completed)
