"""Benchmark harness: configuration, runner, and per-table/figure experiments."""

from .config import PAPER_SCALE_CONFIG, QUICK_CONFIG, ExperimentConfig
from .experiments import (
    EXPERIMENTS,
    Experiment,
    ablation_rag_configuration,
    baseline_comparison,
    figure2_ranked_f1,
    figure3_pareto,
    figure4_upset,
    grid_digests,
    paper_document,
    rag_corpus_statistics,
    table2_dataset_statistics,
    table3_rag_dataset_costs,
    table4_rag_configuration,
    table5_classwise_f1,
    table6_alignment,
    table7_consensus_f1,
    table8_execution_time,
    table9_error_clustering,
)
from .runner import BenchmarkRunner

__all__ = [
    "BenchmarkRunner",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentConfig",
    "PAPER_SCALE_CONFIG",
    "QUICK_CONFIG",
    "ablation_rag_configuration",
    "baseline_comparison",
    "figure2_ranked_f1",
    "figure3_pareto",
    "figure4_upset",
    "grid_digests",
    "paper_document",
    "rag_corpus_statistics",
    "table2_dataset_statistics",
    "table3_rag_dataset_costs",
    "table4_rag_configuration",
    "table5_classwise_f1",
    "table6_alignment",
    "table7_consensus_f1",
    "table8_execution_time",
    "table9_error_clustering",
]
