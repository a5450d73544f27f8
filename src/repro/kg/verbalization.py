"""Rule-based triple verbalization (the non-LLM fallback for phase 1 of RAG).

The paper's RAG pipeline first transforms a structured triple into a
human-readable sentence using an LLM.  The simulated LLM in
:mod:`repro.llm.simulated` delegates to this module, and the pipeline can
also use it directly as a deterministic fallback when the model output is
malformed — which matches how production pipelines guard against
transformation failures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..worldmodel.entities import RELATIONS
from ..worldmodel.generator import World
from .namespaces import decode_label, decode_predicate, split_camel_case
from .triples import Triple

__all__ = ["Verbalizer"]

#: Triples whose statement a :class:`Verbalizer` memoises; emptied whole when full.
STATEMENT_MEMO_CAPACITY = 4096


class Verbalizer:
    """Converts encoded triples into natural-language statements.

    A statement is a pure function of the triple's three strings: the world
    is never changed once built and the relation schema is a module
    constant, so :meth:`statement` memoises each rendering (at most
    :data:`STATEMENT_MEMO_CAPACITY` triples) for the verbalizer's life.
    """

    def __init__(self, world: Optional[World] = None) -> None:
        self.world = world
        self._statements: Dict[Tuple[str, str, str], str] = {}

    def statement(self, triple: Triple) -> str:
        """Render a triple as a declarative English sentence.

        Uses the relation's hand-written template when the predicate is part
        of the world schema and falls back to a generic
        ``"<subject> <predicate words> <object>."`` rendering otherwise —
        the same graceful degradation a template-driven verbalizer over a
        real KG would exhibit for long-tail predicates.
        """
        key = (triple.subject, triple.predicate, triple.object)
        statement = self._statements.get(key)
        if statement is None:
            if len(self._statements) >= STATEMENT_MEMO_CAPACITY:
                self._statements.clear()
            statement = self._statements[key] = self._render(triple)
        return statement

    def _render(self, triple: Triple) -> str:
        subject = self.subject_label(triple)
        obj = self.object_label(triple)
        predicate = decode_predicate(triple.predicate)
        base_predicate = self._strip_yago_prefix(predicate)
        spec = RELATIONS.get(base_predicate)
        if spec is not None:
            return spec.template.format(s=subject, o=obj)
        words = split_camel_case(base_predicate)
        return f"{subject} {words} {obj}."

    def subject_label(self, triple: Triple) -> str:
        return self._label(triple.subject)

    def object_label(self, triple: Triple) -> str:
        return self._label(triple.object)

    def _label(self, term: str) -> str:
        label = decode_label(term)
        if self.world is not None:
            entity = self.world.entities.get(term) or self.world.entities.get(label)
            if entity is not None:
                return entity.name
            by_name = self.world.entity_by_name(label)
            if by_name is not None:
                return by_name.name
        return label

    @staticmethod
    def _strip_yago_prefix(predicate: str) -> str:
        """Map YAGO-style ``hasXxx`` / ``isXxxOf`` predicates back to base names."""
        if predicate in RELATIONS:
            return predicate
        if predicate.startswith("has") and len(predicate) > 3:
            candidate = predicate[3].lower() + predicate[4:]
            if candidate in RELATIONS:
                return candidate
        if predicate.startswith("is") and predicate.endswith("Of"):
            candidate = predicate[2].lower() + predicate[3:-2]
            if candidate in RELATIONS:
                return candidate
        return predicate
