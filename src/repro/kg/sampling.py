"""Negative-fact synthesis strategies.

FactBench builds its negative (incorrect) facts by "altering the correct
ones – ensuring adherence to domain and range constraints"; the literature
on KG accuracy estimation uses several corruption strategies (object
replacement within range, subject replacement within domain, predicate
swap, cross-domain random corruption).  This module implements those
strategies against the synthetic world model, guaranteeing that every
generated negative is indeed false under the ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ..worldmodel.entities import EntityType
from ..worldmodel.facts import Fact
from ..worldmodel.generator import World

__all__ = ["CorruptionStrategy", "CorruptedFact", "NegativeSampler"]

#: Draws :meth:`NegativeSampler.corrupt` makes before it gives up.
MAX_ATTEMPTS = 50


class CorruptionStrategy(str, Enum):
    """Ways of turning a true fact into a false one.

    ``OBJECT_RANGE`` / ``SUBJECT_DOMAIN``
        Replace one term with a different entity of the *same* type, so the
        corrupted triple still satisfies domain/range constraints (the
        FactBench ``domain``/``range``/``domainrange`` strategies).
    ``PREDICATE_SWAP``
        Replace the predicate with a different predicate compatible with the
        subject/object types (FactBench ``property`` strategy).
    ``RANDOM``
        Replace the object with a random entity of any type (the ``random``
        strategy; usually easy to detect).
    """

    OBJECT_RANGE = "object-range"
    SUBJECT_DOMAIN = "subject-domain"
    PREDICATE_SWAP = "predicate-swap"
    RANDOM = "random"


@dataclass(frozen=True)
class CorruptedFact:
    """A synthesized negative: the corrupted triple plus its provenance."""

    subject: str
    predicate: str
    object: str
    strategy: CorruptionStrategy
    source: Fact

    def as_fact(self) -> Fact:
        return Fact(self.subject, self.predicate, self.object)


class NegativeSampler:
    """Generates false facts from true ones, verified against the world."""

    def __init__(self, world: World, seed: int = 0) -> None:
        self.world = world
        self.rng = random.Random(seed)

    # -- public API -----------------------------------------------------------

    def corrupt(
        self,
        fact: Fact,
        strategy: Optional[CorruptionStrategy] = None,
        allowed_predicates: Optional[Sequence[str]] = None,
    ) -> Optional[CorruptedFact]:
        """Produce a negative derived from ``fact``.

        Returns ``None`` when no valid corruption could be found within
        ``MAX_ATTEMPTS`` draws (e.g. the entity pool for the required type is
        too small), so callers can skip and move on.  When
        ``allowed_predicates`` is given, predicate-swap corruptions are
        restricted to that set, so a dataset never acquires predicates outside
        its declared relation inventory.
        """
        chosen = strategy or self.rng.choice(list(CorruptionStrategy))
        for __ in range(MAX_ATTEMPTS):
            candidate = self._attempt(fact, chosen, allowed_predicates)
            if candidate is None:
                continue
            if not self.world.is_true(candidate.subject, candidate.predicate, candidate.object):
                return candidate
        return None

    def corrupt_many(
        self,
        facts: Sequence[Fact],
        count: int,
        strategies: Optional[Sequence[CorruptionStrategy]] = None,
        allowed_predicates: Optional[Sequence[str]] = None,
    ) -> List[CorruptedFact]:
        """Produce ``count`` negatives by cycling over ``facts``.

        The strategy for each negative is drawn from ``strategies`` (all
        strategies by default), mirroring FactBench's mixture of systematic
        negative-sampling procedures.
        """
        if not facts:
            return []
        pool = list(strategies) if strategies else list(CorruptionStrategy)
        negatives: List[CorruptedFact] = []
        attempts = 0
        max_total_attempts = count * 20
        while len(negatives) < count and attempts < max_total_attempts:
            attempts += 1
            fact = facts[self.rng.randrange(len(facts))]
            strategy = pool[self.rng.randrange(len(pool))]
            corrupted = self.corrupt(fact, strategy, allowed_predicates=allowed_predicates)
            if corrupted is not None:
                negatives.append(corrupted)
        return negatives

    # -- strategies -----------------------------------------------------------

    def _attempt(
        self,
        fact: Fact,
        strategy: CorruptionStrategy,
        allowed_predicates: Optional[Sequence[str]] = None,
    ) -> Optional[CorruptedFact]:
        if strategy is CorruptionStrategy.OBJECT_RANGE:
            return self._replace_object_same_type(fact)
        if strategy is CorruptionStrategy.SUBJECT_DOMAIN:
            return self._replace_subject_same_type(fact)
        if strategy is CorruptionStrategy.PREDICATE_SWAP:
            return self._swap_predicate(fact, allowed_predicates)
        return self._replace_object_random(fact)

    def _entity_type(self, entity_id: str) -> Optional[EntityType]:
        entity = self.world.entities.get(entity_id)
        return entity.etype if entity else None

    def _random_entity_of_type(self, etype: EntityType, exclude: str) -> Optional[str]:
        pool = self.world.by_type.get(etype, [])
        candidates = [e.entity_id for e in pool if e.entity_id != exclude]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _replace_object_same_type(self, fact: Fact) -> Optional[CorruptedFact]:
        etype = self._entity_type(fact.object)
        if etype is None:
            return None
        replacement = self._random_entity_of_type(etype, exclude=fact.object)
        if replacement is None:
            return None
        return CorruptedFact(
            fact.subject, fact.predicate, replacement,
            CorruptionStrategy.OBJECT_RANGE, fact,
        )

    def _replace_subject_same_type(self, fact: Fact) -> Optional[CorruptedFact]:
        etype = self._entity_type(fact.subject)
        if etype is None:
            return None
        replacement = self._random_entity_of_type(etype, exclude=fact.subject)
        if replacement is None:
            return None
        return CorruptedFact(
            replacement, fact.predicate, fact.object,
            CorruptionStrategy.SUBJECT_DOMAIN, fact,
        )

    def _swap_predicate(
        self, fact: Fact, allowed_predicates: Optional[Sequence[str]] = None
    ) -> Optional[CorruptedFact]:
        subject_type = self._entity_type(fact.subject)
        object_type = self._entity_type(fact.object)
        if subject_type is None or object_type is None:
            return None
        from ..worldmodel.entities import RELATIONS

        compatible = [
            name
            for name, spec in RELATIONS.items()
            if spec.domain == subject_type
            and spec.range == object_type
            and name != fact.predicate
            and (allowed_predicates is None or name in allowed_predicates)
        ]
        if not compatible:
            return None
        return CorruptedFact(
            fact.subject, self.rng.choice(compatible), fact.object,
            CorruptionStrategy.PREDICATE_SWAP, fact,
        )

    def _replace_object_random(self, fact: Fact) -> Optional[CorruptedFact]:
        all_ids = list(self.world.entities)
        if len(all_ids) < 2:
            return None
        replacement = self.rng.choice(all_ids)
        if replacement == fact.object:
            return None
        return CorruptedFact(
            fact.subject, fact.predicate, replacement,
            CorruptionStrategy.RANDOM, fact,
        )
