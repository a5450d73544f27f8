"""Knowledge-graph substrate: triples, encodings, storage, schema, sampling.

This package plays the role of the real KGs (DBpedia, YAGO, Freebase) that
the paper's datasets are drawn from: it stores triples with their
source-specific encodings, exposes the path/degree queries needed by the
internal KG-based fact-checking baselines, states the schema constraints the
ontology-rule screener applies, and verbalizes triples into natural language.
"""

from .graph import KnowledgeGraph, Path, PathStep
from .namespaces import (
    DBPEDIA_ENCODING,
    ENCODINGS,
    FREEBASE_ENCODING,
    KGEncoding,
    YAGO_ENCODING,
    camel_case,
    decode_label,
    decode_predicate,
    encode_label,
    split_camel_case,
)
from .sampling import CorruptedFact, CorruptionStrategy, NegativeSampler
from .schema import Ontology, default_ontology
from .triples import Triple
from .verbalization import Verbalizer

__all__ = [
    "CorruptedFact",
    "CorruptionStrategy",
    "DBPEDIA_ENCODING",
    "ENCODINGS",
    "FREEBASE_ENCODING",
    "KGEncoding",
    "KnowledgeGraph",
    "NegativeSampler",
    "Ontology",
    "Path",
    "PathStep",
    "Triple",
    "Verbalizer",
    "YAGO_ENCODING",
    "camel_case",
    "decode_label",
    "decode_predicate",
    "default_ontology",
    "encode_label",
    "split_camel_case",
]
