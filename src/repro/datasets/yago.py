"""YAGO evaluation dataset builder.

The YAGO dataset (Ojha & Talukdar) comprises 1,386 crowd-annotated facts over
16 predicates with a gold accuracy of 0.99 — nearly every fact is correct,
which the paper identifies as the hardest setting for LLM validators because
models biased toward "true" inflate their scores while missing the rare
errors.
"""

from __future__ import annotations

from ..kg.namespaces import YAGO_ENCODING
from ..kg.sampling import CorruptionStrategy
from ..worldmodel.facts import Fact
from ..worldmodel.generator import World
from .base import FactDataset
from .builders import DatasetBuilder, DatasetSpec

__all__ = ["YAGO_PREDICATES", "yago_spec", "build_yago"]

# Sixteen predicates, echoing YAGO's hasWonPrize / wasBornIn / isMarriedTo /
# playsFor / created / isCitizenOf style relation inventory.
YAGO_PREDICATES = (
    "award",
    "birthPlace",
    "deathPlace",
    "nationality",
    "spouse",
    "almaMater",
    "team",
    "director",
    "starring",
    "author",
    "capital",
    "locatedIn",
    "officialLanguage",
    "bandMember",
    "religion",
    "nativeLanguage",
)

# YAGO predicate naming: wasBornIn-style verbal forms.
_YAGO_PREDICATE_NAMES = {
    "award": "hasWonPrize",
    "birthPlace": "wasBornIn",
    "deathPlace": "diedIn",
    "nationality": "isCitizenOf",
    "spouse": "isMarriedTo",
    "almaMater": "graduatedFrom",
    "team": "playsFor",
    "director": "directedBy",
    "starring": "actedIn",
    "author": "wasWrittenBy",
    "capital": "hasCapital",
    "locatedIn": "isLocatedIn",
    "officialLanguage": "hasOfficialLanguage",
    "bandMember": "hasMusicalRole",
    "religion": "hasReligion",
    "nativeLanguage": "hasNativeLanguage",
}


class _YagoBuilder(DatasetBuilder):
    """Builder that applies YAGO's verbal predicate naming convention."""

    def _dataset_predicate_name(self, fact: Fact) -> str:
        return _YAGO_PREDICATE_NAMES.get(fact.predicate, fact.predicate)


def yago_spec() -> DatasetSpec:
    """The YAGO Table 2 profile: 1,386 facts, 16 predicates, mu=0.99."""
    return DatasetSpec(
        name="yago",
        num_facts=1386,
        predicates=YAGO_PREDICATES,
        gold_accuracy=0.99,
        encoding=YAGO_ENCODING,
        negative_strategies=(
            CorruptionStrategy.OBJECT_RANGE,
            CorruptionStrategy.SUBJECT_DOMAIN,
        ),
        seed=29,
        negatives_from_tail=True,
    )


def build_yago(world: World, scale: float = 1.0) -> FactDataset:
    """Build the YAGO-style dataset (extreme class imbalance) at the given scale."""
    return _YagoBuilder(world, yago_spec(), scale=scale).build()
