"""FactBench dataset builder.

FactBench (Gerber et al.) evaluates fact-validation systems on ten relation
types, mixing correct facts from DBpedia/Freebase with systematically
generated incorrect facts that respect domain and range constraints.  The
configuration used by the paper has 2,800 facts and gold accuracy
``mu = 0.54``.
"""

from __future__ import annotations

from ..kg.namespaces import DBPEDIA_ENCODING
from ..kg.sampling import CorruptionStrategy
from ..worldmodel.generator import World
from .base import FactDataset
from .builders import DatasetBuilder, DatasetSpec

__all__ = ["FACTBENCH_PREDICATES", "factbench_spec", "build_factbench"]

# Ten relation types, mirroring FactBench's award/birth/death/foundation/
# leader/nbateam/publication/spouse/starring/subsidiary mix with the closest
# world-model relations.
FACTBENCH_PREDICATES = (
    "award",
    "birthPlace",
    "deathPlace",
    "foundedBy",
    "spouse",
    "starring",
    "team",
    "author",
    "publicationYear",
    "foundingYear",
)


def factbench_spec() -> DatasetSpec:
    """The FactBench Table 2 profile: 2,800 facts, 10 predicates, mu=0.54."""
    return DatasetSpec(
        name="factbench",
        num_facts=2800,
        predicates=FACTBENCH_PREDICATES,
        gold_accuracy=0.54,
        encoding=DBPEDIA_ENCODING,
        negative_strategies=(
            CorruptionStrategy.OBJECT_RANGE,
            CorruptionStrategy.SUBJECT_DOMAIN,
            CorruptionStrategy.PREDICATE_SWAP,
            CorruptionStrategy.RANDOM,
        ),
        seed=13,
    )


def build_factbench(world: World, scale: float = 1.0) -> FactDataset:
    """Build the FactBench-style dataset at the given scale.

    Parameters
    ----------
    world:
        The synthetic ground-truth world.
    scale:
        Fraction of the paper-scale 2,800 facts to generate (1.0 = full size).
    """
    return DatasetBuilder(world, factbench_spec(), scale=scale).build()
