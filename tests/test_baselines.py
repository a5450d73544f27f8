"""Tests for the internal KG-based fact-checking baselines."""

import pytest

from repro.baselines import (
    EvidentialPathChecker,
    KnowledgeLinker,
    KnowledgeStream,
    PredPath,
    build_reference_graph,
)
from repro.kg import KnowledgeGraph, Triple


@pytest.fixture(scope="module")
def toy_graph():
    """A small, hand-built KG with a densely supported pair and an isolated pair.

    alice and bob share a city, an employer, and a club, while dora is only
    weakly connected to bob's neighbourhood.
    """
    graph = KnowledgeGraph("toy")
    graph.add_all(
        [
            Triple("alice", "birthPlace", "springfield"),
            Triple("bob", "birthPlace", "springfield"),
            Triple("alice", "employer", "acme"),
            Triple("bob", "employer", "acme"),
            Triple("alice", "team", "rovers"),
            Triple("bob", "team", "rovers"),
            Triple("carol", "birthPlace", "shelbyville"),
            Triple("dora", "birthPlace", "shelbyville"),
            Triple("springfield", "locatedIn", "freedonia"),
            Triple("shelbyville", "locatedIn", "freedonia"),
            Triple("alice", "spouse", "bob"),
        ]
    )
    return graph


@pytest.fixture(scope="module")
def reference_graph(world):
    return build_reference_graph(world, exclude_fraction=0.0)


class TestReferenceGraph:
    def test_nodes_are_names(self, world, reference_graph):
        person = world.by_type[list(world.by_type)[0]][0]
        assert person.name in reference_graph.nodes()

    def test_exclusion_shrinks_graph(self, world):
        full = build_reference_graph(world, exclude_fraction=0.0)
        partial = build_reference_graph(world, exclude_fraction=0.5, seed=1)
        assert len(partial) < len(full)


class TestKnowledgeStream:
    def test_connected_pair_scores_higher_than_isolated(self, toy_graph):
        checker = KnowledgeStream(toy_graph)
        connected = checker.score("alice", "spouse", "bob")
        isolated = checker.score("alice", "spouse", "dora")
        assert connected > isolated

    def test_direct_edge_excluded_from_flow(self, toy_graph):
        checker = KnowledgeStream(toy_graph)
        # The spouse edge itself must not be used as evidence for itself:
        # remove all the shared context and the score collapses.
        sparse = KnowledgeGraph("sparse")
        sparse.add(Triple("alice", "spouse", "bob"))
        assert KnowledgeStream(sparse).score("alice", "spouse", "bob") == 0.0

    def test_scores_in_unit_interval(self, toy_graph):
        checker = KnowledgeStream(toy_graph)
        for pair in (("alice", "bob"), ("alice", "dora"), ("carol", "bob")):
            assert 0.0 <= checker.score(pair[0], "spouse", pair[1]) <= 1.0

    def test_same_node_zero(self, toy_graph):
        assert KnowledgeStream(toy_graph).score("alice", "spouse", "alice") == 0.0

    def test_unknown_entity_zero(self, toy_graph):
        assert KnowledgeStream(toy_graph).score("alice", "spouse", "zelda") == 0.0


class TestKnowledgeLinker:
    def test_short_specific_path_scores_high(self, toy_graph):
        checker = KnowledgeLinker(toy_graph)
        assert checker.score("alice", "spouse", "bob") > checker.score("alice", "spouse", "dora")

    def test_no_path_scores_zero(self, toy_graph):
        checker = KnowledgeLinker(toy_graph)
        assert checker.score("alice", "spouse", "island") == 0.0

    def test_validate_adapter(self, toy_graph, factbench_small):
        checker = KnowledgeLinker(toy_graph)
        result = checker.validate(factbench_small[0])
        assert result.method == "klinker"
        assert result.raw_response.startswith("score=")


class TestPredPath:
    def test_fit_and_score_discriminates(self, world, reference_graph, factbench_small):
        train, test = factbench_small.split(0.6, seed=3)
        checker = PredPath(reference_graph, max_path_length=2, max_paths_per_pair=40)
        checker.fit(train.facts())
        positives = [f for f in test if f.label][:5]
        negatives = [f for f in test if not f.label][:5]
        if positives and negatives:
            pos_scores = [
                checker.score(f.subject_name, f.base_predicate(), f.object_name) for f in positives
            ]
            neg_scores = [
                checker.score(f.subject_name, f.base_predicate(), f.object_name) for f in negatives
            ]
            assert sum(pos_scores) / len(pos_scores) >= sum(neg_scores) / len(neg_scores) - 0.15

    def test_untrained_predicate_neutral(self, reference_graph):
        checker = PredPath(reference_graph)
        assert checker.score("A", "unknownPredicate", "B") == pytest.approx(0.5)


class TestEvidentialPaths:
    def test_prepare_is_idempotent(self, toy_graph):
        checker = EvidentialPathChecker(toy_graph, examples_per_predicate=5)
        checker.prepare_predicate("birthPlace")
        checker.prepare_predicate("birthPlace")
        assert "birthPlace" in checker._prepared

    def test_score_in_unit_interval(self, reference_graph):
        checker = EvidentialPathChecker(reference_graph, examples_per_predicate=8)
        score = checker.score("Nobody Special", "birthPlace", "Nowhere Town")
        assert 0.0 <= score <= 1.0

    def test_validate_dataset_runs(self, reference_graph, factbench_small):
        checker = EvidentialPathChecker(reference_graph, examples_per_predicate=6)
        subset = factbench_small.sample(6, seed=1)
        run = checker.validate_dataset(subset)
        assert len(run) == len(subset)
