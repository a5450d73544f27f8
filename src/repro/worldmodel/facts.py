"""Ground-truth fact store for the synthetic world model."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

__all__ = ["Fact", "FactStore"]


@dataclass(frozen=True, order=True)
class Fact:
    """A ground-truth statement ``(subject, predicate, object)``.

    Subject and object are entity identifiers (strings), which keeps facts
    hashable and cheap to store; the owning :class:`~repro.worldmodel.generator.World`
    resolves identifiers back to :class:`Entity` objects.
    """

    subject: str
    predicate: str
    object: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


class FactStore:
    """Indexed collection of ground-truth facts.

    The store maintains three indexes so that the simulated LLM, the
    synthetic web generator, and the negative samplers can all answer their
    characteristic queries in O(1):

    * ``subject+predicate -> objects`` (used to answer "what is the true
      object?" when judging a claim),
    * ``predicate -> facts`` (used by dataset samplers),
    * ``entity -> facts`` (used to build per-entity documents and to compute
      facts-per-entity statistics).
    """

    def __init__(self) -> None:
        self._facts: Set[Fact] = set()
        self._sp_index: Dict[Tuple[str, str], List[str]] = defaultdict(list)
        self._predicate_index: Dict[str, List[Fact]] = defaultdict(list)
        self._entity_index: Dict[str, List[Fact]] = defaultdict(list)

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts))

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def add(self, subject: str, predicate: str, obj: str) -> Fact:
        """Register a fact; adding an existing fact is a no-op."""
        fact = Fact(subject, predicate, obj)
        if fact in self._facts:
            return fact
        self._facts.add(fact)
        self._sp_index[(subject, predicate)].append(obj)
        self._predicate_index[predicate].append(fact)
        self._entity_index[subject].append(fact)
        self._entity_index[obj].append(fact)
        return fact

    def is_true(self, subject: str, predicate: str, obj: str) -> bool:
        """Check a claim against the ground truth."""
        return Fact(subject, predicate, obj) in self._facts

    def objects(self, subject: str, predicate: str) -> List[str]:
        """All true objects for ``(subject, predicate)`` (empty if none)."""
        return list(self._sp_index.get((subject, predicate), ()))

    def facts_for_predicate(self, predicate: str) -> List[Fact]:
        return list(self._predicate_index.get(predicate, ()))

    def facts_for_entity(self, entity_id: str) -> List[Fact]:
        return list(self._entity_index.get(entity_id, ()))

    def predicates(self) -> List[str]:
        """Predicates that have at least one fact, sorted for determinism."""
        return sorted(self._predicate_index)

    def all_facts(self) -> List[Fact]:
        return sorted(self._facts)
