"""Benchmark runner: builds the full experimental grid and caches results.

The runner owns every substrate (world, datasets, corpora, models) and runs
the method x dataset x model grid once, caching the validation runs so that
all table/figure computations — which slice the same grid in different ways —
do not repeat any LLM work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..datasets import FactDataset, build_dbpedia, build_factbench, build_yago
from ..kg.namespaces import DBPEDIA_ENCODING, KGEncoding, YAGO_ENCODING
from ..kg.verbalization import Verbalizer
from ..llm.base import LLMClient
from ..llm.registry import ModelRegistry
from ..llm.telemetry import TelemetryCollector
from ..kg.triples import Triple
from ..retrieval.cache import LRUCache
from ..retrieval.corpus import Corpus
from ..retrieval.mock_api import MockSearchAPI
from ..retrieval.reranker import CrossEncoderReranker
from ..retrieval.webgen import WebCorpusGenerator
from ..store import ShardedStore, VersionedKnowledgeStore
from ..validation.base import ValidationRun, ValidationStrategy
from ..validation.consensus import ConsensusRun, MajorityVoteConsensus
from ..validation.dka import DirectKnowledgeAssessment
from ..validation.giv import GuidedIterativeVerification
from ..validation.pipeline import ParallelValidationPipeline, ValidationPipeline
from ..validation.rag import (
    UPSTREAM_MODEL,
    RAGConfig,
    RAGDatasetBuilder,
    RAGDatasetStats,
    RAGValidator,
)
from ..worldmodel.generator import World, build_world
from .config import COMMERCIAL_MODEL, ExperimentConfig, QUICK_CONFIG

__all__ = ["BenchmarkRunner", "KNOWN_DATASETS", "KNOWN_METHODS"]

_DATASET_BUILDERS = {
    "factbench": build_factbench,
    "yago": build_yago,
    "dbpedia": build_dbpedia,
}

#: The registries consumers (CLI validation, docs) should derive from —
#: kept next to the dispatch code so new datasets/methods propagate.
KNOWN_DATASETS: Tuple[str, ...] = tuple(sorted(_DATASET_BUILDERS))
KNOWN_METHODS: Tuple[str, ...] = ("dka", "giv-z", "giv-f", "rag")

_DATASET_ENCODINGS: Dict[str, KGEncoding] = {
    "factbench": DBPEDIA_ENCODING,
    "yago": YAGO_ENCODING,
    "dbpedia": DBPEDIA_ENCODING,
}

#: The runner whose substrates forked grid workers inherit; set (pre-fork)
#: only for the duration of a parallel ``run_grid`` call.
_ACTIVE_RUNNER: Optional["BenchmarkRunner"] = None


def _run_grid_cell(cell: Tuple[str, str, str]):
    """Worker entry point: run one grid cell on the fork-inherited runner.

    Returns the cell's :class:`ValidationRun` plus the telemetry records the
    cell produced, so the parent can merge accounting deterministically.
    """
    runner = _ACTIVE_RUNNER
    if runner is None:
        raise RuntimeError("_run_grid_cell requires an active runner (use run_grid)")
    before = len(runner.telemetry)
    run = runner.run(*cell)
    return run, runner.telemetry.records()[before:]


class BenchmarkRunner:
    """Owns the substrates and the cached method x dataset x model grid."""

    def __init__(self, config: ExperimentConfig = QUICK_CONFIG) -> None:
        self.config = config
        self.telemetry = TelemetryCollector()
        self._world: Optional[World] = None
        self._datasets: Dict[str, FactDataset] = {}
        self._corpora: Dict[str, Corpus] = {}
        self._search_apis: Dict[str, MockSearchAPI] = {}
        self._registry: Optional[ModelRegistry] = None
        self._verbalizer: Optional[Verbalizer] = None
        self._reranker = CrossEncoderReranker()
        self._reranker_warmed: set = set()
        self._evidence_caches: Dict[str, LRUCache] = {}
        self._stores: Dict[str, VersionedKnowledgeStore] = {}
        self._sharded_stores: Dict[Tuple[str, int], ShardedStore] = {}
        self._runs: Dict[Tuple[str, str, str], ValidationRun] = {}
        self._consensus_cache: Dict[Tuple[str, str, str], ConsensusRun] = {}

    # ------------------------------------------------------------- substrates

    @property
    def world(self) -> World:
        if self._world is None:
            self._world = build_world(self.config.world_scale, self.config.seed)
        return self._world

    @property
    def registry(self) -> ModelRegistry:
        if self._registry is None:
            self._registry = ModelRegistry(
                self.world, seed=self.config.seed, telemetry=self.telemetry
            )
        return self._registry

    @property
    def verbalizer(self) -> Verbalizer:
        if self._verbalizer is None:
            self._verbalizer = Verbalizer(self.world)
        return self._verbalizer

    def dataset(self, name: str) -> FactDataset:
        """Build (and cache) one evaluation dataset at the configured scale."""
        if name not in self._datasets:
            builder = _DATASET_BUILDERS.get(name)
            if builder is None:
                raise KeyError(f"Unknown dataset {name!r}; expected one of {sorted(_DATASET_BUILDERS)}")
            dataset = builder(self.world, scale=self.config.scale)
            if self.config.max_facts_per_dataset is not None:
                dataset = dataset.sample(self.config.max_facts_per_dataset, seed=self.config.seed)
            self._datasets[name] = dataset
        return self._datasets[name]

    def datasets(self) -> Dict[str, FactDataset]:
        return {name: self.dataset(name) for name in self.config.datasets}

    def encoding(self, dataset_name: str) -> KGEncoding:
        return _DATASET_ENCODINGS.get(dataset_name, DBPEDIA_ENCODING)

    def corpus(self, dataset_name: str) -> Corpus:
        """The synthetic web corpus generated for one dataset's facts."""
        if dataset_name not in self._corpora:
            generator = WebCorpusGenerator(
                self.world, self.config.documents_per_fact, seed=self.config.seed + 3
            )
            self._corpora[dataset_name] = generator.build_corpus(self.dataset(dataset_name).facts())
        return self._corpora[dataset_name]

    def search_api(self, dataset_name: str) -> MockSearchAPI:
        if dataset_name not in self._search_apis:
            self._search_apis[dataset_name] = MockSearchAPI(
                self.corpus(dataset_name),
                default_num_results=self.config.serp_results_per_query,
            )
        return self._search_apis[dataset_name]

    def versioned_store(self, dataset_name: str) -> VersionedKnowledgeStore:
        """A :class:`VersionedKnowledgeStore` adopting this dataset's substrates.

        The store wraps the dataset's live corpus, the ``MockSearchAPI``'s
        BM25 engine, the world-model reference triples, and the shared
        reranker's embedding cache — all maintained *in place* on ingest,
        so RAG strategies built by :meth:`build_strategy` observe mutations
        immediately instead of forcing an index rebuild; their cached
        evidence is stamped with the engine's ``generation``, so a document
        ingest makes it stale and a triple-only one leaves it valid.
        Built once per dataset; subsequent calls return the same store.
        """
        if dataset_name in self._stores:
            return self._stores[dataset_name]
        corpus = self.corpus(dataset_name)
        api = self.search_api(dataset_name)
        self._warm_reranker(dataset_name)
        world = self.world
        triples = [
            Triple(world.name(fact.subject), fact.predicate, world.name(fact.object))
            for fact in world.facts.all_facts()
        ]
        store = VersionedKnowledgeStore.adopt(
            corpus=corpus,
            search_engine=api.engine,
            triples=triples,
            embedder=self._reranker.embedder,
            name=f"{dataset_name}-store",
        )
        self._stores[dataset_name] = store
        return store

    def sharded_store(self, dataset_name: str, num_shards: int) -> ShardedStore:
        """Partition this dataset's graph + corpus across ``num_shards`` stores.

        Unlike :meth:`versioned_store`, the shards do *not* adopt the live
        retrieval substrates — each shard owns its slice of the world
        triples and the dataset corpus (partitioned by consistent hash of
        the subject entity / evidenced fact), with its own mutation log and
        epoch.  Strategies built by :meth:`build_strategy` keep reading the
        runner's full substrates; the sharded store is the serving tier's
        versioning and routing substrate
        (see :class:`~repro.service.ShardedValidationService`).
        Built once per ``(dataset, num_shards)``; later calls return the
        same fleet — replicate a fresh ``replay_twin()`` of it for groups
        that share no store state.
        """
        key = (dataset_name, num_shards)
        if key in self._sharded_stores:
            return self._sharded_stores[key]
        world = self.world
        triples = [
            Triple(world.name(fact.subject), fact.predicate, world.name(fact.object))
            for fact in world.facts.all_facts()
        ]
        fleet = ShardedStore.partition(
            triples=triples,
            documents=list(self.corpus(dataset_name)),
            num_shards=num_shards,
            name=f"{dataset_name}-store",
        )
        self._sharded_stores[key] = fleet
        return fleet

    # ------------------------------------------------------------- strategies

    def build_strategy(
        self, method: str, dataset_name: str, model: LLMClient
    ) -> ValidationStrategy:
        """Instantiate one validation strategy for a (method, dataset, model)."""
        if method == "dka":
            return DirectKnowledgeAssessment(model, self.verbalizer)
        if method == "giv-z":
            return GuidedIterativeVerification(model, few_shot=False, verbalizer=self.verbalizer)
        if method == "giv-f":
            return GuidedIterativeVerification(model, few_shot=True, verbalizer=self.verbalizer)
        if method == "rag":
            return self._build_rag_strategy(dataset_name, model)
        raise KeyError(f"Unknown method {method!r}")

    def _warm_reranker(self, dataset_name: str) -> None:
        """Corpus-level embedding matrix: embed every document once so the
        per-fact ranking passes are pure cache hits."""
        if dataset_name in self._reranker_warmed:
            return
        self._reranker_warmed.add(dataset_name)
        self._reranker.precompute(
            document.text
            for document in self.corpus(dataset_name)
            if not document.is_empty
        )

    def _build_rag_strategy(self, dataset_name: str, model: LLMClient) -> RAGValidator:
        self._warm_reranker(dataset_name)
        cache = self._evidence_caches.get(dataset_name)
        if cache is None:
            # Room for every fact of the dataset (the grid and the warm pass
            # never evict), bounded for a service asked for arbitrary facts.
            cache = LRUCache(max(4096, len(self.dataset(dataset_name))))
            self._evidence_caches[dataset_name] = cache
        return self.rag_validator(dataset_name, model, self.config.rag_config(), cache)

    def rag_validator(
        self,
        dataset_name: str,
        model: LLMClient,
        config: RAGConfig,
        evidence_cache: Optional[LRUCache] = None,
    ) -> RAGValidator:
        """A RAG validator judging with ``model`` over this dataset's search
        index, its phases 1–2 on :data:`UPSTREAM_MODEL`."""
        return RAGValidator(
            model=model,
            upstream=self.registry.get(UPSTREAM_MODEL),
            search_api=self.search_api(dataset_name),
            kg_encoding=self.encoding(dataset_name),
            config=config,
            reranker=self._reranker,
            verbalizer=self.verbalizer,
            evidence_cache=evidence_cache,
        )

    # ------------------------------------------------------------- grid runs

    def run(self, method: str, dataset_name: str, model_name: str) -> ValidationRun:
        """Run (or fetch from cache) one cell of the grid."""
        key = (method, dataset_name, model_name)
        if key not in self._runs:
            model = self.registry.get(model_name)
            strategy = self.build_strategy(method, dataset_name, model)
            pipeline = ValidationPipeline()
            self._runs[key] = pipeline.run(strategy, self.dataset(dataset_name))
        return self._runs[key]

    def runs_for(self, method: str, dataset_name: str, model_names: Optional[Tuple[str, ...]] = None) -> Dict[str, ValidationRun]:
        names = model_names or tuple(self.config.models)
        return {name: self.run(method, dataset_name, name) for name in names}

    def grid_cells(self) -> List[Tuple[str, str, str]]:
        """Every configured (method, dataset, model) combination, in grid order."""
        return [
            (method, dataset_name, model_name)
            for method in self.config.methods
            for dataset_name in self.config.datasets
            for model_name in self.config.grid_models()
        ]

    def prepare(self) -> None:
        """Pre-build every substrate the grid cells share.

        World, registry, datasets and — when the RAG method is configured —
        corpora, search indexes, corpus-level reranker embeddings, and the
        per-fact RAG evidence caches (phases 1–4 are model-independent, so
        they are computed once here rather than once per worker).  Calling
        this before forking a process pool means workers inherit the built
        substrates through copy-on-write memory instead of rebuilding them.
        """
        self.world
        self.registry
        self.verbalizer
        for dataset_name in self.config.datasets:
            self.dataset(dataset_name)
            if "rag" in self.config.methods:
                self.search_api(dataset_name)
                self._warm_reranker(dataset_name)
                self._warm_evidence(dataset_name)

    def _warm_evidence(self, dataset_name: str) -> None:
        """Run RAG phases 1–4 for every fact into the shared evidence cache."""
        validator = self._build_rag_strategy(
            dataset_name, self.registry.get(self.config.models[0])
        )
        for fact in self.dataset(dataset_name):
            validator.retrieve(fact)

    def run_grid(self, parallel: int = 1) -> Dict[str, Dict[str, Dict[str, ValidationRun]]]:
        """Run the whole grid; ``grid[method][dataset][model] -> ValidationRun``.

        With ``parallel > 1`` the not-yet-cached cells fan out over a
        fork-based process pool (cells are independent and deterministic, so
        the verdicts are identical to a serial run).  Results and telemetry
        records merge back in grid order, keeping the outcome deterministic
        regardless of worker scheduling.  The serial path remains the
        default; on platforms without ``fork`` it is also the fallback.
        """
        pending = [cell for cell in self.grid_cells() if cell not in self._runs]
        if parallel > 1 and len(pending) > 1 and ParallelValidationPipeline.supports_fork():
            self.prepare()
            pipeline = ParallelValidationPipeline(workers=min(parallel, len(pending)))
            global _ACTIVE_RUNNER
            _ACTIVE_RUNNER = self
            try:
                outcomes = pipeline.map_cells(_run_grid_cell, pending)
            finally:
                _ACTIVE_RUNNER = None
            for cell, (run, records) in zip(pending, outcomes):
                self._runs[cell] = run
                self.telemetry.extend(records)
        grid: Dict[str, Dict[str, Dict[str, ValidationRun]]] = {}
        for method in self.config.methods:
            grid[method] = {}
            for dataset_name in self.config.datasets:
                grid[method][dataset_name] = {
                    model_name: self.run(method, dataset_name, model_name)
                    for model_name in self.config.grid_models()
                }
        return grid

    # ------------------------------------------------------------- consensus

    def consensus(self, method: str, dataset_name: str, judge: str = "none") -> ConsensusRun:
        """Majority-vote consensus of the four open-source models.

        ``judge`` selects the tie-breaking arbitrator: ``"none"`` (ties stay
        ties), ``"cons-up"`` / ``"cons-down"`` (larger variant of the most /
        least consistent model), or ``"commercial"`` (GPT-4o mini profile).
        """
        key = (method, dataset_name, judge)
        if key in self._consensus_cache:
            return self._consensus_cache[key]
        ensemble = self.runs_for(method, dataset_name, tuple(self.config.models))
        aggregator = MajorityVoteConsensus()
        judge_fn = None
        judge_label = judge
        if judge != "none":
            judge_model_name = self._select_judge_model(method, judge)
            judge_label = f"{judge}:{judge_model_name}"
            judge_fn = self._judge_fn(method, dataset_name, judge_model_name)
        consensus = aggregator.aggregate(ensemble, judge_fn=judge_fn, judge_name=judge_label)
        self._consensus_cache[key] = consensus
        return consensus

    def alignment(self, method: str, dataset_name: str) -> Dict[str, float]:
        """Per-model consensus alignment CA_M for one method/dataset (Table 6)."""
        ensemble = self.runs_for(method, dataset_name, tuple(self.config.models))
        consensus = self.consensus(method, dataset_name, judge="none")
        return MajorityVoteConsensus().alignment_scores(ensemble, consensus)

    def _model_consistency(self, method: str) -> Dict[str, float]:
        """Average CA_M per model across datasets for one method."""
        totals: Dict[str, List[float]] = {name: [] for name in self.config.models}
        for dataset_name in self.config.datasets:
            for model_name, score in self.alignment(method, dataset_name).items():
                totals[model_name].append(score)
        return {
            name: (sum(values) / len(values) if values else 0.0)
            for name, values in totals.items()
        }

    def _select_judge_model(self, method: str, judge: str) -> str:
        if judge == "commercial":
            return COMMERCIAL_MODEL
        consistency = self._model_consistency(method)
        ordered = sorted(consistency.items(), key=lambda item: item[1])
        base_name = ordered[-1][0] if judge == "cons-up" else ordered[0][0]
        return self.registry.upgrade_for(base_name).name

    def _judge_fn(self, method: str, dataset_name: str, judge_model_name: str) -> Callable[[str], Optional[bool]]:
        dataset = self.dataset(dataset_name)
        model = self.registry.get(judge_model_name)
        strategy = self.build_strategy(method, dataset_name, model)
        cache: Dict[str, Optional[bool]] = {}

        def judge(fact_id: str) -> Optional[bool]:
            if fact_id not in cache:
                fact = dataset.get(fact_id)
                if fact is None:
                    cache[fact_id] = None
                else:
                    cache[fact_id] = strategy.validate(fact).verdict.as_bool()
            return cache[fact_id]

        return judge

    # ------------------------------------------------------------- RAG dataset

    def build_rag_dataset(self, dataset_name: str, max_facts: Optional[int] = 40) -> Tuple[Dict[str, dict], RAGDatasetStats]:
        """Pre-build the questions + SERP dataset for (a sample of) one dataset."""
        builder = RAGDatasetBuilder(
            self.rag_validator(
                dataset_name, self.registry.get(UPSTREAM_MODEL), self.config.rag_config()
            )
        )
        dataset = self.dataset(dataset_name)
        if max_facts is not None:
            dataset = dataset.sample(max_facts, seed=self.config.seed)
        return builder.build(dataset)
