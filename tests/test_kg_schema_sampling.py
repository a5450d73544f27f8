"""Tests for the ontology layer and negative sampling."""

import pytest

from repro.kg import CorruptionStrategy, NegativeSampler, default_ontology
from repro.worldmodel import RELATIONS, EntityType


class TestOntology:
    def test_domain_and_range(self):
        ontology = default_ontology()
        assert ontology.domain_of("birthPlace") is EntityType.PERSON
        assert ontology.range_of("birthPlace") is EntityType.CITY
        assert ontology.domain_of("unknownPredicate") is None

    def test_functionality_check(self):
        ontology = default_ontology()
        assert ontology.is_functional("capital")
        assert not ontology.is_functional("starring")
        assert not ontology.is_functional("unknownPredicate")

    def test_ontology_mirrors_the_relation_schema(self):
        ontology = default_ontology()
        assert set(ontology.relations) == set(RELATIONS)
        for name, spec in RELATIONS.items():
            assert ontology.domain_of(name) is spec.domain, name
            assert ontology.range_of(name) is spec.range, name
            assert ontology.is_functional(name) == spec.functional, name

    def test_each_ontology_owns_its_relation_table(self):
        narrowed = default_ontology()
        del narrowed.relations["birthPlace"]
        assert narrowed.domain_of("birthPlace") is None
        assert not narrowed.is_functional("birthPlace")
        assert "birthPlace" in RELATIONS
        assert default_ontology().domain_of("birthPlace") is EntityType.PERSON


class TestNegativeSampler:
    @pytest.fixture(scope="class")
    def sampler(self, world):
        return NegativeSampler(world, seed=9)

    @pytest.fixture(scope="class")
    def sample_facts(self, world):
        return world.facts.facts_for_predicate("birthPlace")[:30]

    def test_corrupted_facts_are_false(self, world, sampler, sample_facts):
        for fact in sample_facts[:10]:
            corrupted = sampler.corrupt(fact)
            assert corrupted is not None
            assert not world.is_true(corrupted.subject, corrupted.predicate, corrupted.object)

    def test_object_range_strategy_keeps_type(self, world, sampler, sample_facts):
        corrupted = sampler.corrupt(sample_facts[0], CorruptionStrategy.OBJECT_RANGE)
        assert corrupted is not None
        original_type = world.entity(sample_facts[0].object).etype
        assert world.entity(corrupted.object).etype == original_type
        assert corrupted.subject == sample_facts[0].subject

    def test_subject_domain_strategy_keeps_type(self, world, sampler, sample_facts):
        corrupted = sampler.corrupt(sample_facts[0], CorruptionStrategy.SUBJECT_DOMAIN)
        assert corrupted is not None
        original_type = world.entity(sample_facts[0].subject).etype
        assert world.entity(corrupted.subject).etype == original_type
        assert corrupted.object == sample_facts[0].object

    def test_predicate_swap_respects_signature(self, world, sampler, sample_facts):
        corrupted = None
        for fact in sample_facts:
            corrupted = sampler.corrupt(fact, CorruptionStrategy.PREDICATE_SWAP)
            if corrupted is not None:
                break
        assert corrupted is not None
        # birthPlace (Person -> City) can only swap to deathPlace.
        assert corrupted.predicate == "deathPlace"

    def test_corrupt_many_count_and_provenance(self, world, sampler, sample_facts):
        negatives = sampler.corrupt_many(sample_facts, 20)
        assert len(negatives) == 20
        for negative in negatives:
            assert negative.source in sample_facts
            assert not world.is_true(negative.subject, negative.predicate, negative.object)

    def test_corrupt_many_empty_input(self, sampler):
        assert sampler.corrupt_many([], 5) == []

    def test_corrupt_many_respects_strategy_restriction(self, world, sampler, sample_facts):
        negatives = sampler.corrupt_many(
            sample_facts, 15, strategies=[CorruptionStrategy.OBJECT_RANGE]
        )
        assert negatives
        assert all(n.strategy is CorruptionStrategy.OBJECT_RANGE for n in negatives)

    def test_deterministic_given_seed(self, world, sample_facts):
        first = NegativeSampler(world, seed=3).corrupt_many(sample_facts, 10)
        second = NegativeSampler(world, seed=3).corrupt_many(sample_facts, 10)
        assert [n.as_fact() for n in first] == [n.as_fact() for n in second]
