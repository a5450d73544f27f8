"""Orchestration: run validation strategies over datasets and collect runs."""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from ..datasets.base import FactDataset, LabeledFact
from .base import ValidationResult, ValidationRun, ValidationStrategy

__all__ = [
    "ValidationPipeline",
    "ParallelValidationPipeline",
    "progress_label",
]


def progress_label(method: str, dataset: str) -> str:
    """Canonical serial ``progress`` label: ``method/dataset``.

    Both pipeline flavours report work through the same
    ``progress(label, done, total)`` contract.  The serial pipeline emits one
    call per *fact* with a ``method/dataset`` label; the parallel pipeline
    emits one call per *cell* with a ``method/dataset/model`` label.  Either
    way the label carries the strategy and dataset identifiers, so a single
    callback implementation can consume both.
    """
    return f"{method}/{dataset}"


class ValidationPipeline:
    """Runs strategies over datasets, with optional progress callbacks.

    ``progress`` is invoked as ``progress(label, done, total)`` where
    ``label`` is built by :func:`progress_label` (``"method/dataset"``);
    see :class:`ParallelValidationPipeline` for the per-cell variant.
    """

    def __init__(self, progress: Optional[Callable[[str, int, int], None]] = None) -> None:
        self.progress = progress

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
        construction.
        """
        label = progress_label(strategy.method_name, dataset)
        total = len(facts)
        results: List[ValidationResult] = []
        for index, fact in enumerate(facts):
            results.append(strategy.validate(fact))
            if self.progress is not None:
                self.progress(label, index + 1, total)
        return results


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

    ``progress`` follows the same ``progress(label, done, total)`` contract
    as the serial pipeline, at cell granularity: one call per completed
    cell, with the label derived from the cell itself (``"/"``-joined for
    ``(method, dataset, model)`` tuples, extending :func:`progress_label`).
    """

    def __init__(
        self,
        workers: int = 2,
        progress: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        super().__init__(progress)
        self.workers = max(1, int(workers))

    @staticmethod
    def supports_fork() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    @staticmethod
    def _cell_label(cell: Any) -> str:
        if isinstance(cell, tuple):
            return "/".join(str(part) for part in cell)
        return str(cell)

    def map_cells(
        self, worker: Callable[[_Cell], Any], cells: Sequence[_Cell]
    ) -> List[Any]:
        """Apply ``worker`` to every cell; results come back in cell order.

        ``worker`` must be a module-level (picklable) callable; the state it
        needs beyond the cell itself should be reachable from globals set up
        before the fork.  The ``progress`` callback fires once per completed
        cell (in submission order) on both the pooled and the in-process
        path.
        """
        items = list(cells)
        total = len(items)
        if self.workers <= 1 or len(items) <= 1 or not self.supports_fork():
            results = []
            for index, cell in enumerate(items):
                results.append(worker(cell))
                if self.progress is not None:
                    self.progress(self._cell_label(cell), index + 1, total)
            return results
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=min(self.workers, len(items))) as pool:
            results = []
            for index, (cell, outcome) in enumerate(zip(items, pool.imap(worker, items))):
                results.append(outcome)
                if self.progress is not None:
                    self.progress(self._cell_label(cell), index + 1, total)
            return results
