"""Ontology-rule screening of triples before (or alongside) LLM validation.

The paper's final remarks propose extending the benchmark with
fact-verification that "also leverages logical rules in the KG, for example
by exploiting the ontologies on which the KG is based (e.g., using
transitivity, domain/range constraints, and other properties)".  This module
implements that extension: a rule-based screener that checks a candidate
triple against the ontology (domain/range conformance, functionality against
already-accepted objects, and type sanity of literals) and a combined
strategy that only invokes the LLM when the rules are inconclusive.

The screener is deliberately conservative: rules can only *refute* a triple
(schema violations are sufficient evidence of falsehood) or abstain — they
never confirm one, because schema conformance says nothing about factual
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..datasets.base import LabeledFact
from ..kg.schema import Ontology, default_ontology
from ..worldmodel.entities import EntityType
from ..worldmodel.generator import World
from .base import ValidationResult, ValidationStrategy, Verdict

__all__ = ["RuleVerdict", "OntologyRuleChecker", "RuleGuardedValidator"]


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of the rule screening for one triple.

    ``decision`` is ``False`` when a rule refutes the triple and ``None``
    when the rules abstain; rules never return ``True`` (see module
    docstring).  ``reasons`` lists the violated constraints.
    """

    decision: Optional[bool]
    reasons: tuple

    @property
    def refuted(self) -> bool:
        return self.decision is False


class OntologyRuleChecker:
    """Checks candidate triples against domain/range/functionality rules."""

    def __init__(self, world: World, ontology: Optional[Ontology] = None) -> None:
        self.world = world
        self.ontology = ontology or default_ontology()

    def _entity_type(self, name: str) -> Optional[EntityType]:
        entity = self.world.entity_by_name(name)
        return entity.etype if entity else None

    def check(self, fact: LabeledFact) -> RuleVerdict:
        """Screen one labeled fact; returns a refutation or an abstention."""
        predicate = fact.base_predicate()
        reasons: List[str] = []
        subject_type = self._entity_type(fact.subject_name)
        object_type = self._entity_type(fact.object_name)

        spec_domain = self.ontology.domain_of(predicate)
        spec_range = self.ontology.range_of(predicate)
        if spec_domain is not None and subject_type is not None and subject_type != spec_domain:
            reasons.append(
                f"domain violation: {predicate} expects a {spec_domain.value} subject, "
                f"got {subject_type.value}"
            )
        if spec_range is not None and object_type is not None and object_type != spec_range:
            reasons.append(
                f"range violation: {predicate} expects a {spec_range.value} object, "
                f"got {object_type.value}"
            )

        # Functionality: a functional predicate whose subject already has a
        # *different* accepted object cannot also hold for the claimed one.
        if self.ontology.is_functional(predicate):
            subject = self.world.entity_by_name(fact.subject_name)
            if subject is not None:
                accepted = self.world.true_objects(subject.entity_id, predicate)
                accepted_names = {self.world.name(obj_id) for obj_id in accepted}
                if accepted_names and fact.object_name not in accepted_names:
                    reasons.append(
                        f"functionality violation: {predicate} of {fact.subject_name} "
                        f"is already {sorted(accepted_names)[0]}"
                    )

        if reasons:
            return RuleVerdict(decision=False, reasons=tuple(reasons))
        return RuleVerdict(decision=None, reasons=())


class RuleGuardedValidator(ValidationStrategy):
    """Combine ontology rules with any LLM strategy.

    Rules run first; when they refute the triple the LLM is skipped entirely
    (saving its latency), otherwise the wrapped strategy decides.  This is
    the cheapest form of the "hybrid logical + LLM" validator the paper
    sketches as future work.
    """

    def __init__(self, rule_checker: OntologyRuleChecker, inner: ValidationStrategy) -> None:
        self.rule_checker = rule_checker
        self.inner = inner
        self.method_name = f"rules+{inner.method_name}"
        self.model = getattr(inner, "model", None)

    def validate(self, fact: LabeledFact) -> ValidationResult:
        verdict = self.rule_checker.check(fact)
        if verdict.refuted:
            return ValidationResult(
                fact_id=fact.fact_id,
                verdict=Verdict.FALSE,
                gold_label=fact.label,
                model=self.model_name(),
                method=self.method_name,
                latency_seconds=0.001,
                prompt_tokens=0,
                completion_tokens=0,
                raw_response="; ".join(verdict.reasons),
            )
        inner_result = self.inner.validate(fact)
        return ValidationResult(
            fact_id=inner_result.fact_id,
            verdict=inner_result.verdict,
            gold_label=inner_result.gold_label,
            model=inner_result.model,
            method=self.method_name,
            latency_seconds=inner_result.latency_seconds,
            prompt_tokens=inner_result.prompt_tokens,
            completion_tokens=inner_result.completion_tokens,
            raw_response=inner_result.raw_response,
            num_evidence_chunks=inner_result.num_evidence_chunks,
            num_retries=inner_result.num_retries,
            evidence_mentions_subject=inner_result.evidence_mentions_subject,
        )
