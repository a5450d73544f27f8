"""Tests for the ontology-rule screener and the hybrid KG+RAG validator."""

import pytest

from repro.baselines import KnowledgeLinker, build_reference_graph
from repro.datasets.base import LabeledFact
from repro.kg import DBPEDIA_ENCODING
from repro.validation import (
    DirectKnowledgeAssessment,
    HybridValidator,
    OntologyRuleChecker,
    RuleGuardedValidator,
    Verdict,
)


@pytest.fixture(scope="module")
def rule_checker(world):
    return OntologyRuleChecker(world)


def _fact(world, subject_name, predicate, object_name, label=False):
    triple = DBPEDIA_ENCODING.encode_triple(subject_name, predicate, object_name)
    return LabeledFact(
        fact_id=f"manual-{subject_name}-{predicate}-{object_name}"[:60],
        triple=triple,
        label=label,
        dataset="manual",
        subject_name=subject_name,
        object_name=object_name,
        predicate_name=predicate,
        canonical_predicate=predicate,
    )


class TestOntologyRules:
    def test_range_violation_refuted(self, world, rule_checker):
        from repro.worldmodel import EntityType

        person = world.by_type[EntityType.PERSON][0]
        other_person = world.by_type[EntityType.PERSON][1]
        fact = _fact(world, person.name, "birthPlace", other_person.name)
        verdict = rule_checker.check(fact)
        assert verdict.refuted
        assert any("range violation" in reason for reason in verdict.reasons)

    def test_domain_violation_refuted(self, world, rule_checker):
        from repro.worldmodel import EntityType

        city, other_city = world.by_type[EntityType.CITY][:2]
        fact = _fact(world, city.name, "birthPlace", other_city.name)
        verdict = rule_checker.check(fact)
        assert verdict.refuted
        assert [reason.split(":")[0] for reason in verdict.reasons] == ["domain violation"]

    def test_entity_unknown_to_the_world_abstains(self, world, rule_checker):
        from repro.worldmodel import EntityType

        city = world.by_type[EntityType.CITY][0]
        for subject, obj in (("Nobody Known", "Nowhere Known"), ("Nobody Known", city.name)):
            verdict = rule_checker.check(_fact(world, subject, "birthPlace", obj))
            assert verdict.decision is None and verdict.reasons == ()

    def test_predicate_without_a_spec_abstains(self, world, rule_checker):
        from repro.worldmodel import EntityType

        city = world.by_type[EntityType.CITY][0]
        person = world.by_type[EntityType.PERSON][0]
        verdict = rule_checker.check(_fact(world, city.name, "someRandomProperty", person.name))
        assert verdict.decision is None and verdict.reasons == ()

    def test_domain_and_range_violations_are_reported_together(self, world, rule_checker):
        from repro.worldmodel import EntityType

        city = world.by_type[EntityType.CITY][0]
        person = world.by_type[EntityType.PERSON][0]
        verdict = rule_checker.check(_fact(world, city.name, "birthPlace", person.name))
        assert verdict.refuted
        assert [reason.split(":")[0] for reason in verdict.reasons] == [
            "domain violation",
            "range violation",
        ]

    def test_checker_applies_its_ontology(self, world):
        from repro.kg.schema import Ontology
        from repro.worldmodel import EntityType

        person, other_person = world.by_type[EntityType.PERSON][:2]
        fact = _fact(world, person.name, "birthPlace", other_person.name)
        assert OntologyRuleChecker(world).check(fact).refuted
        # An ontology without the predicate has no rule to apply: abstain.
        unconstrained = OntologyRuleChecker(world)
        unconstrained.ontology = Ontology(relations={})
        assert unconstrained.check(fact).decision is None

    def test_functionality_violation_refuted(self, world, rule_checker):
        from repro.worldmodel import EntityType

        person = world.by_type[EntityType.PERSON][0]
        true_city_id = world.true_objects(person.entity_id, "birthPlace")[0]
        wrong_city = next(
            city for city in world.by_type[EntityType.CITY]
            if city.entity_id != true_city_id
        )
        fact = _fact(world, person.name, "birthPlace", wrong_city.name)
        verdict = rule_checker.check(fact)
        assert verdict.refuted
        assert any("functionality" in reason for reason in verdict.reasons)

    def test_true_fact_abstains(self, world, rule_checker):
        from repro.worldmodel import EntityType

        person = world.by_type[EntityType.PERSON][0]
        true_city = world.name(world.true_objects(person.entity_id, "birthPlace")[0])
        fact = _fact(world, person.name, "birthPlace", true_city, label=True)
        verdict = rule_checker.check(fact)
        assert not verdict.refuted
        assert verdict.decision is None

    def test_rules_never_confirm(self, rule_checker, factbench_small):
        for fact in factbench_small.facts()[:30]:
            assert rule_checker.check(fact).decision in (None, False)

    def test_rule_refutations_are_sound_on_generated_data(self, rule_checker, factbench_small):
        # Whenever the rules refute a dataset fact, the gold label must be False.
        for fact in factbench_small:
            if rule_checker.check(fact).refuted:
                assert fact.label is False

    def test_rule_guarded_validator_skips_llm_on_refutation(self, world, rule_checker, gemma, verbalizer):
        from repro.worldmodel import EntityType

        person = world.by_type[EntityType.PERSON][2]
        other_person = world.by_type[EntityType.PERSON][3]
        fact = _fact(world, person.name, "birthPlace", other_person.name)
        guarded = RuleGuardedValidator(rule_checker, DirectKnowledgeAssessment(gemma, verbalizer))
        result = guarded.validate(fact)
        assert result.verdict is Verdict.FALSE
        assert result.prompt_tokens == 0
        assert result.method == "rules+dka"

    def test_rule_guarded_validator_delegates_otherwise(self, rule_checker, gemma, verbalizer, factbench_small):
        guarded = RuleGuardedValidator(rule_checker, DirectKnowledgeAssessment(gemma, verbalizer))
        clean = next(fact for fact in factbench_small if fact.label)
        result = guarded.validate(clean)
        assert result.prompt_tokens > 0


class TestHybridValidator:
    @pytest.fixture(scope="class")
    def hybrid(self, world, gemma, verbalizer):
        graph = build_reference_graph(world, exclude_fraction=0.2, seed=2)
        checker = KnowledgeLinker(graph)
        inner = DirectKnowledgeAssessment(gemma, verbalizer)
        return HybridValidator(checker, inner)

    def test_method_name_mentions_both_components(self, hybrid):
        assert hybrid.method_name == "hybrid(klinker+dka)"

    def test_validate_produces_verdicts(self, hybrid, factbench_small):
        subset = factbench_small.sample(10, seed=2)
        run = hybrid.validate_dataset(subset)
        assert len(run) == len(subset)
        answered = [r for r in run.results if r.verdict in (Verdict.TRUE, Verdict.FALSE)]
        assert answered

    def test_graph_opinion_abstains_in_uncertainty_band(self, hybrid, factbench_small):
        opinions = {hybrid.graph_opinion(fact) for fact in factbench_small.facts()[:20]}
        assert opinions <= {True, False, None}

    def test_llm_preferred_on_disagreement(self, world, gemma, verbalizer, factbench_small):
        graph = build_reference_graph(world, exclude_fraction=0.2, seed=2)
        checker = KnowledgeLinker(graph)
        inner = DirectKnowledgeAssessment(gemma, verbalizer)
        llm_first = HybridValidator(checker, inner)
        # The fused verdict follows the LLM whenever the LLM produced one.
        for fact in factbench_small.facts()[:10]:
            llm_verdict = inner.validate(fact).verdict
            if llm_verdict in (Verdict.TRUE, Verdict.FALSE):
                assert llm_first.validate(fact).verdict == llm_verdict
