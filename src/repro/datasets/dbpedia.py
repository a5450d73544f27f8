"""DBpedia evaluation dataset builder.

The DBpedia dataset (Marchesin et al.) samples 9,344 A-Box triples from the
2015-10 English DBpedia, annotated by experts and laymen, with gold accuracy
0.85 and — crucially — 1,092 distinct predicates.  That *schema diversity* is
the characteristic the paper blames for RAG's weaker gains on DBpedia, so the
builder reproduces it: every base relation is expressed through a pool of
heterogeneous predicate aliases (``dbo:`` ontology names, raw ``dbp:``
infobox property names, and morphological variants), exactly the kind of
long-tail property naming found in real DBpedia extractions.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..kg.namespaces import DBPEDIA_ENCODING, camel_case, split_camel_case
from ..kg.sampling import CorruptionStrategy
from ..worldmodel.entities import RELATIONS
from ..worldmodel.facts import Fact
from ..worldmodel.generator import World
from .base import FactDataset
from .builders import DatasetBuilder, DatasetSpec

__all__ = ["dbpedia_spec", "build_dbpedia", "predicate_alias_pool"]

# All world relations participate: DBpedia covers the broadest slice of the KG.
_DBPEDIA_PREDICATES = tuple(sorted(RELATIONS))

# Paper-scale number of distinct predicates in the dataset.
_TARGET_PREDICATE_COUNT = 1092

_ALIAS_PREFIXES = ("", "dbp_", "property_", "infobox_")
_ALIAS_SUFFIXES = ("", "Of", "Name", "Label", "Info", "Data", "Field", "Value", "Raw", "Text")


def predicate_alias_pool(base_predicate: str, pool_size: int) -> List[str]:
    """Deterministic pool of alias labels for one base predicate.

    Aliases combine the camelCase ontology name, underscored raw-infobox
    style names, and prefixed/suffixed variants, e.g. ``birthPlace``,
    ``dbp_birth_place``, ``placeOfBirthLabel`` — the heterogeneous property
    naming that gives real DBpedia its long predicate tail.
    """
    words = split_camel_case(base_predicate).split()
    reversed_name = camel_case(" ".join(reversed(words))) if len(words) > 1 else base_predicate
    stems = [base_predicate, "_".join(words), reversed_name, "".join(words)]
    aliases: List[str] = []
    seen = set()
    for suffix in _ALIAS_SUFFIXES:
        for prefix in _ALIAS_PREFIXES:
            for stem in stems:
                alias = f"{prefix}{stem}{suffix}"
                if alias and alias not in seen:
                    seen.add(alias)
                    aliases.append(alias)
                if len(aliases) >= pool_size:
                    return aliases
    return aliases


class _DBpediaBuilder(DatasetBuilder):
    """Builder that injects predicate-alias schema diversity."""

    def __init__(self, world: World, spec: DatasetSpec, scale: float, predicate_target: int) -> None:
        super().__init__(world, spec, scale=scale)
        self._alias_rng = random.Random(spec.seed + 7)
        per_base = max(1, round(predicate_target / max(1, len(spec.predicates))))
        self._alias_pools: Dict[str, List[str]] = {
            predicate: predicate_alias_pool(predicate, per_base)
            for predicate in spec.predicates
        }

    def _dataset_predicate_name(self, fact: Fact) -> str:
        pool = self._alias_pools.get(fact.predicate, [fact.predicate])
        return self._alias_rng.choice(pool)


def dbpedia_spec() -> DatasetSpec:
    """The DBpedia Table 2 profile: 9,344 facts, ~1,092 predicates, mu=0.85."""
    return DatasetSpec(
        name="dbpedia",
        num_facts=9344,
        predicates=_DBPEDIA_PREDICATES,
        gold_accuracy=0.85,
        encoding=DBPEDIA_ENCODING,
        negative_strategies=(
            CorruptionStrategy.OBJECT_RANGE,
            CorruptionStrategy.SUBJECT_DOMAIN,
            CorruptionStrategy.PREDICATE_SWAP,
            CorruptionStrategy.RANDOM,
        ),
        seed=47,
    )


def build_dbpedia(world: World, scale: float = 1.0) -> FactDataset:
    """Build the DBpedia-style dataset at the given scale.

    The alias pools provide ``_TARGET_PREDICATE_COUNT`` distinct predicate
    labels in total, scaled together with the fact count so small test
    datasets are not drowned in aliases.
    """
    spec = dbpedia_spec()
    scaled_target = max(
        len(_DBPEDIA_PREDICATES), int(round(_TARGET_PREDICATE_COUNT * min(1.0, scale * 2)))
    )
    return _DBpediaBuilder(world, spec, scale=scale, predicate_target=scaled_target).build()
