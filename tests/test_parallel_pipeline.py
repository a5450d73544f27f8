"""Tests for the process-pool grid execution.

The grid cells are deterministic, so the parallel runner must produce
verdicts byte-identical to the serial runner, merged in grid order.
"""

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig, grid_digests
from repro.validation import ParallelValidationPipeline


def _square(value):
    return value * value


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=16,
        world_scale=0.15,
        methods=("dka", "giv-z"),
        datasets=("factbench",),
        models=("gemma2:9b", "qwen2.5:7b"),
        include_commercial_in_grid=False,
        seed=11,
    )


class TestParallelValidationPipeline:
    def test_map_cells_preserves_submission_order(self):
        pipeline = ParallelValidationPipeline(workers=3)
        assert pipeline.map_cells(_square, [5, 3, 1, 8]) == [25, 9, 1, 64]

    def test_single_worker_runs_in_process(self):
        pipeline = ParallelValidationPipeline(workers=1)
        assert pipeline.map_cells(_square, [2, 4]) == [4, 16]

    def test_workers_floor_at_one(self):
        assert ParallelValidationPipeline(workers=0).workers == 1


class TestRunGrid:
    def test_parallel_verdicts_byte_identical_to_serial(self, tiny_config):
        serial = BenchmarkRunner(tiny_config).run_grid(parallel=1)
        parallel = BenchmarkRunner(tiny_config).run_grid(parallel=2)
        assert grid_digests(parallel) == grid_digests(serial)

    def test_parallel_populates_run_cache(self, tiny_config):
        runner = BenchmarkRunner(tiny_config)
        grid = runner.run_grid(parallel=2)
        for cell in runner.grid_cells():
            method, dataset, model = cell
            assert runner.run(method, dataset, model) is grid[method][dataset][model]

    def test_parallel_merges_telemetry(self, tiny_config):
        runner = BenchmarkRunner(tiny_config)
        runner.run_grid(parallel=2)
        assert len(runner.telemetry) > 0

    def test_grid_cells_cover_configuration(self, tiny_config):
        runner = BenchmarkRunner(tiny_config)
        cells = runner.grid_cells()
        assert len(cells) == 2 * 1 * 2
        assert cells[0] == ("dka", "factbench", "gemma2:9b")
