"""Experiment configuration for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..llm.profiles import OPEN_SOURCE_MODELS
from ..validation.rag import RAGConfig

__all__ = ["ExperimentConfig", "QUICK_CONFIG", "PAPER_SCALE_CONFIG"]

_DEFAULT_METHODS: Tuple[str, ...] = ("dka", "giv-z", "giv-f", "rag")
_DEFAULT_DATASETS: Tuple[str, ...] = ("factbench", "yago", "dbpedia")

#: The commercial reference model (the paper's GPT-4o mini), judged beside
#: the open-source ensemble but not part of its consensus.
COMMERCIAL_MODEL = "gpt-4o-mini"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one full benchmark run.

    Attributes
    ----------
    scale:
        Fraction of the paper-scale dataset sizes to generate (1.0 = 2,800 /
        1,386 / 9,344 facts).
    max_facts_per_dataset:
        Optional stratified cap applied after generation; keeps quick runs
        quick while preserving each dataset's gold accuracy.
    world_scale:
        Scale of the synthetic world population.
    methods / datasets / models:
        Which parts of the grid to run.
    documents_per_fact:
        Average corpus documents generated per fact (paper: ~154).
    serp_results_per_query:
        SERP depth used during retrieval (paper: 100); the one RAG setting
        a run varies, so :meth:`rag_config` carries it into the pipeline.
    include_commercial_in_grid:
        Whether :data:`COMMERCIAL_MODEL` is part of the Table 5 grid (it is
        in the paper, but not part of the 4-model consensus ensemble).
    seed:
        Master seed for world, datasets, corpus, and model behaviour.
    """

    scale: float = 0.05
    max_facts_per_dataset: Optional[int] = 80
    world_scale: float = 0.35
    methods: Tuple[str, ...] = _DEFAULT_METHODS
    datasets: Tuple[str, ...] = _DEFAULT_DATASETS
    models: Tuple[str, ...] = tuple(OPEN_SOURCE_MODELS)
    include_commercial_in_grid: bool = True
    documents_per_fact: int = 14
    serp_results_per_query: int = 40
    seed: int = 7

    def rag_config(self) -> RAGConfig:
        return RAGConfig(serp_results_per_query=self.serp_results_per_query)

    def grid_models(self) -> Tuple[str, ...]:
        """Models included in the Table 5 / Table 8 grids."""
        if self.include_commercial_in_grid:
            return tuple(self.models) + (COMMERCIAL_MODEL,)
        return tuple(self.models)


#: Configuration used by the test-suite and the default benchmark runs.
QUICK_CONFIG = ExperimentConfig()

#: Paper-scale configuration (hours of compute; documented for completeness).
PAPER_SCALE_CONFIG = ExperimentConfig(
    scale=1.0,
    max_facts_per_dataset=None,
    world_scale=1.0,
    documents_per_fact=154,
    serp_results_per_query=100,
)
