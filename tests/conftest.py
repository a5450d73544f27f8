"""Shared fixtures: a small world, datasets, corpus, models, and a runner.

Everything heavy is session-scoped so the suite stays fast; the sizes are
deliberately tiny compared to the paper scale but preserve the structural
properties the tests assert (class balance, schema diversity, corpus
composition).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.datasets import build_dbpedia, build_factbench, build_yago
from repro.kg.verbalization import Verbalizer
from repro.llm import ModelRegistry
from repro.retrieval import MockSearchAPI, WebCorpusConfig, WebCorpusGenerator
from repro.store import VersionedKnowledgeStore
from repro.worldmodel import WorldConfig, build_world

# A failing property prints its ``@reproduce_failure`` blob, not only the
# shrunk draw: replaying a real-clock race needs the exact example.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``VersionedKnowledgeStore.state_digest`` call, as a list of the
    stores' names — the integer the O(batch) claim is made of."""
    calls = []
    original = VersionedKnowledgeStore.state_digest

    def counting(self, include_index=True):
        calls.append(self.name)
        return original(self, include_index=include_index)

    monkeypatch.setattr(VersionedKnowledgeStore, "state_digest", counting)
    return calls


@pytest.fixture(scope="session")
def world():
    """A compact synthetic world shared by the whole suite."""
    return build_world(WorldConfig(scale=0.15, seed=11))


@pytest.fixture(scope="session")
def verbalizer(world):
    return Verbalizer(world)


@pytest.fixture(scope="session")
def registry(world):
    return ModelRegistry(world, seed=3)


@pytest.fixture(scope="session")
def gemma(registry):
    return registry.get("gemma2:9b")


@pytest.fixture(scope="session")
def factbench_small(world):
    return build_factbench(world, scale=0.02)


@pytest.fixture(scope="session")
def yago_small(world):
    return build_yago(world, scale=0.03)


@pytest.fixture(scope="session")
def dbpedia_small(world):
    return build_dbpedia(world, scale=0.006)


@pytest.fixture(scope="session")
def corpus_small(world, factbench_small):
    generator = WebCorpusGenerator(world, WebCorpusConfig(documents_per_fact=8, seed=5))
    facts = factbench_small.facts()[:25]
    return generator.build_corpus(facts)


@pytest.fixture(scope="session")
def search_api(corpus_small):
    return MockSearchAPI(corpus_small, default_num_results=20)


@pytest.fixture(scope="session")
def quick_config():
    return ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=44,
        world_scale=0.15,
        documents_per_fact=14,
        serp_results_per_query=25,
        seed=11,
    )


@pytest.fixture(scope="session")
def runner(quick_config):
    """A benchmark runner over a very small grid, shared across tests."""
    return BenchmarkRunner(quick_config)
