"""Evaluation datasets: FactBench, YAGO, and DBpedia analogues.

Each builder samples true facts from the synthetic world model, synthesizes
false facts with the corruption strategies of :mod:`repro.kg.sampling`, and
encodes triples with the conventions of the corresponding source KG so the
resulting datasets match the paper's Table 2 characteristics (size,
predicate count, gold accuracy, schema diversity).
"""

from .base import FactDataset, LabeledFact
from .builders import DatasetBuilder, DatasetSpec
from .dbpedia import build_dbpedia, dbpedia_spec, predicate_alias_pool
from .factbench import FACTBENCH_PREDICATES, build_factbench, factbench_spec
from .statistics import (
    DatasetStatistics,
    SimilarityDistribution,
    compute_statistics,
    statistics_table,
    summarize_similarities,
)
from .yago import YAGO_PREDICATES, build_yago, yago_spec

__all__ = [
    "DatasetBuilder",
    "DatasetSpec",
    "DatasetStatistics",
    "FACTBENCH_PREDICATES",
    "FactDataset",
    "LabeledFact",
    "SimilarityDistribution",
    "YAGO_PREDICATES",
    "build_dbpedia",
    "build_factbench",
    "build_yago",
    "compute_statistics",
    "dbpedia_spec",
    "factbench_spec",
    "predicate_alias_pool",
    "statistics_table",
    "summarize_similarities",
    "yago_spec",
]
