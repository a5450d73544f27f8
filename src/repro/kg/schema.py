"""Ontology / schema layer: domain-range and functionality constraints.

The paper proposes screening facts with the KG's ontology ("transitivity,
domain/range constraints, and other properties").  This module states those
constraints on top of the world-model relation specs;
:class:`~repro.validation.rules.OntologyRuleChecker` is the one checker that
applies them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..worldmodel.entities import RELATIONS, EntityType, RelationSpec

__all__ = ["Ontology", "default_ontology"]


@dataclass
class Ontology:
    """Domain/range and cardinality constraints over known predicates."""

    relations: Dict[str, RelationSpec] = field(default_factory=lambda: dict(RELATIONS))

    def domain_of(self, predicate: str) -> Optional[EntityType]:
        spec = self.relations.get(predicate)
        return spec.domain if spec else None

    def range_of(self, predicate: str) -> Optional[EntityType]:
        spec = self.relations.get(predicate)
        return spec.range if spec else None

    def is_functional(self, predicate: str) -> bool:
        spec = self.relations.get(predicate)
        return bool(spec and spec.functional)


def default_ontology() -> Ontology:
    """The ontology induced by the world-model relation specs."""
    return Ontology()
