"""Triple representation shared by the KG substrate and the benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Triple"]


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    """An ``<S, P, O>`` statement as stored in a knowledge graph.

    The fields hold *encoded* terms — i.e. whatever convention the source KG
    uses (IRIs, camelCase predicates, underscored labels).  The
    :mod:`repro.kg.namespaces` module converts between encoded terms and the
    world-model identifiers / surface names.
    """

    subject: str
    predicate: str
    object: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)

    def replace(self, **kwargs: str) -> "Triple":
        """Return a copy with one or more terms replaced."""
        return Triple(
            subject=kwargs.get("subject", self.subject),
            predicate=kwargs.get("predicate", self.predicate),
            object=kwargs.get("object", self.object),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.subject}, {self.predicate}, {self.object}>"
