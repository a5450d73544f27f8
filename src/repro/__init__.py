"""FactCheck reproduction: benchmarking (simulated) LLMs for KG fact validation.

The package reproduces the FactCheck benchmark (EDBT 2026) end-to-end on a
fully offline, simulated substrate:

* :mod:`repro.worldmodel` — the synthetic ground-truth universe;
* :mod:`repro.kg` — the knowledge-graph substrate (triples, encodings,
  schema, negative sampling, verbalization);
* :mod:`repro.datasets` — FactBench/YAGO/DBpedia-style evaluation datasets;
* :mod:`repro.llm` — the LLM client interface plus calibrated simulated models;
* :mod:`repro.retrieval` — synthetic web corpus, search engine, mock SERP API,
  rerankers, chunking;
* :mod:`repro.validation` — the paper's core contribution: DKA, GIV, RAG, and
  multi-model consensus strategies;
* :mod:`repro.baselines` — internal KG-based fact checkers (KStream, KLinker,
  PredPath, evidential paths);
* :mod:`repro.evaluation` — class-wise F1, consensus alignment, efficiency,
  Pareto, UpSet, and error-taxonomy analyses;
* :mod:`repro.benchmark` — the harness that regenerates every table and figure;
* :mod:`repro.service` — the online serving layer: an asyncio micro-batching
  validation server with a sharded verdict cache, admission control, serving
  metrics, a TCP JSON-lines front-end, and a closed-loop load generator.

Quickstart::

    from repro.benchmark import BenchmarkRunner, ExperimentConfig, table5_classwise_f1

    runner = BenchmarkRunner(ExperimentConfig(max_facts_per_dataset=40))
    print(table5_classwise_f1(runner))
"""

from .benchmark import BenchmarkRunner, ExperimentConfig
from .datasets import FactDataset, LabeledFact, build_dbpedia, build_factbench, build_yago
from .kg import KnowledgeGraph, Triple, Verbalizer
from .llm import LLMClient, LLMResponse, ModelRegistry, SimulatedLLM
from .service import (
    LoadGenerator,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ValidationService,
    build_workload,
)
from .validation import (
    DirectKnowledgeAssessment,
    GuidedIterativeVerification,
    MajorityVoteConsensus,
    RAGValidator,
    ValidationResult,
    ValidationRun,
    Verdict,
)
from .worldmodel import World, build_world

__version__ = "1.0.0"

__all__ = [
    "BenchmarkRunner",
    "DirectKnowledgeAssessment",
    "ExperimentConfig",
    "FactDataset",
    "GuidedIterativeVerification",
    "KnowledgeGraph",
    "LLMClient",
    "LLMResponse",
    "LabeledFact",
    "LoadGenerator",
    "MajorityVoteConsensus",
    "ModelRegistry",
    "RAGValidator",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceResponse",
    "SimulatedLLM",
    "Triple",
    "ValidationResult",
    "ValidationRun",
    "Verbalizer",
    "ValidationService",
    "Verdict",
    "World",
    "__version__",
    "build_dbpedia",
    "build_factbench",
    "build_workload",
    "build_world",
    "build_yago",
]
