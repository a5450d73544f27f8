"""Synthetic world model: the ground-truth universe behind the benchmark.

This package is the offline stand-in for the real-world knowledge the paper
relies on (DBpedia/YAGO/Freebase snapshots, the live web, and the LLMs'
pre-training corpora).  Everything downstream — datasets, retrieval corpus,
and simulated LLM knowledge — is derived from one :class:`World` instance,
so they are mutually consistent by construction.
"""

from .entities import RELATIONS, Entity, EntityType, RelationSpec
from .facts import Fact, FactStore
from .generator import World, build_world
from .names import NameGenerator

__all__ = [
    "Entity",
    "EntityType",
    "Fact",
    "FactStore",
    "NameGenerator",
    "RELATIONS",
    "RelationSpec",
    "World",
    "build_world",
]
