"""Orchestration: run validation strategies over datasets and collect runs."""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, List, Sequence, TypeVar

from ..datasets.base import FactDataset, LabeledFact
from .base import ValidationResult, ValidationRun, ValidationStrategy

__all__ = [
    "ValidationPipeline",
    "ParallelValidationPipeline",
]


class ValidationPipeline:
    """Runs strategies over datasets."""

    def run(self, strategy: ValidationStrategy, dataset: FactDataset) -> ValidationRun:
        """Validate every fact of ``dataset`` with ``strategy``."""
        run = ValidationRun(
            method=strategy.method_name,
            model=strategy.model_name(),
            dataset=dataset.name,
        )
        run.results.extend(self.run_facts(strategy, dataset.facts(), dataset=dataset.name))
        return run

    def run_facts(
        self,
        strategy: ValidationStrategy,
        facts: Sequence[LabeledFact],
        dataset: str = "adhoc",
    ) -> List[ValidationResult]:
        """Validate an explicit sequence of facts, preserving order.

        This is the micro-batch entry point the online validation service
        uses: a service worker coalesces queued single-fact requests into a
        batch and runs them through the same code path as the offline
        pipeline, so online verdicts are identical to offline ones by
        construction.  ``dataset`` names where ``facts`` come from; no
        verdict depends on it.
        """
        return [strategy.validate(fact) for fact in facts]


_Cell = TypeVar("_Cell")


class ParallelValidationPipeline(ValidationPipeline):
    """A :class:`ValidationPipeline` that fans independent work over processes.

    Validation cells — e.g. the ``(method, dataset, model)`` combinations of
    the benchmark grid — are mutually independent and fully deterministic
    (the simulated models derive every decision from stable hashes), so they
    can execute concurrently without changing any verdict.

    The pool uses the ``fork`` start method: workers inherit the heavyweight
    substrates (world model, corpora, search indexes) through copy-on-write
    memory instead of pickling them, so the submitted callable only needs to
    name its work item.  Results are returned in submission order, which
    makes the merge deterministic regardless of worker scheduling.  On
    platforms without ``fork`` the pipeline degrades to an in-process loop.
    """

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))

    @staticmethod
    def supports_fork() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def map_cells(
        self, worker: Callable[[_Cell], Any], cells: Sequence[_Cell]
    ) -> List[Any]:
        """Apply ``worker`` to every cell; results come back in cell order.

        ``worker`` must be a module-level (picklable) callable; the state it
        needs beyond the cell itself should be reachable from globals set up
        before the fork.
        """
        items = list(cells)
        if self.workers <= 1 or len(items) <= 1 or not self.supports_fork():
            return [worker(cell) for cell in items]
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=min(self.workers, len(items))) as pool:
            return list(pool.imap(worker, items))
