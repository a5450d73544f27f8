"""Versioned knowledge store: streaming ingestion over the KG + corpus.

The offline substrates (knowledge graph, retrieval corpus, BM25 index,
embedding caches) are frozen at load time everywhere else in the repo;
this package makes them *mutable with history*:

* :mod:`repro.store.log` — :class:`Mutation`, one ``add_triple`` /
  ``remove_triple`` / ``add_document`` of a batch ``apply`` takes, and
  the append-only :class:`MutationLog` that keeps each applied one as a
  flat epoch-stamped record (what replay, the segment writer and the
  replica chain read), with a JSON-lines export/import codec;
* :mod:`repro.store.store` — :class:`VersionedKnowledgeStore`: monotonic
  epochs, point-in-time :meth:`snapshot` views, deterministic
  :meth:`replay` from disk, :meth:`compact`-ion, and **incremental index
  maintenance** (posting arrays/IDF/length norms patched in place, the
  embedder warm cache extended, the interned graph mutated in place, with
  dirty-fraction rebuild fallbacks) verified byte-identical to a
  from-scratch rebuild;
* :mod:`repro.store.segment` — the durable format, a paged binary
  storage engine (the only thing ``load`` opens and every ``save``
  writes by default):
  :class:`SegmentBackedLog` over fixed-size zlib-compressed CRC-checked
  blocks with an LRU :class:`PageCache`, a footer epoch index, and
  interleaved state checkpoints, so cold start and historical
  ``snapshot(epoch)`` *seek-and-replay* a short suffix instead of
  replaying from zero; crash damage recovers to the longest valid batch
  prefix or raises the typed :class:`CorruptSegmentError`;
* :mod:`repro.store.sharding` — :class:`ShardedStore`: the corpus and
  graph partitioned across N store shards by a consistent-hash
  :class:`HashRing` on the subject entity, each shard with its own
  monotonic epoch and mutation log; and :class:`ReplicaGroup`: R
  byte-identical copies of one shard kept in lockstep by log shipping
  with digest enforcement (:class:`ReplicaDivergedError` on drift) —
  together the scale-out and availability substrate behind
  :class:`~repro.service.router.ShardedValidationService`.

Quickstart::

    from repro.store import Mutation, VersionedKnowledgeStore

    store = VersionedKnowledgeStore.bootstrap(triples=kg_triples, documents=docs)
    store.apply([Mutation.add_triple("Ada", "worksFor", "Acme"),
                 Mutation.add_document(new_document)])   # one batch: epoch + 1
    batch = list(store.log.records(after=store.epoch - 1))
    # [(epoch, 0, "Ada", "worksFor", "Acme"), (epoch, 2, new_document)]
    offline_view = store.snapshot(store.epoch - 1)   # reproducible past state
    store.save("store.seg")                          # the durable segment file
    restarted = VersionedKnowledgeStore.load("store.seg")
    store.save("store.jsonl", format="jsonl")        # human-readable export
"""

from .log import (
    ADD_DOCUMENT,
    ADD_TRIPLE,
    REMOVE_TRIPLE,
    Mutation,
    MutationLog,
    atomic_write,
    read_mutations_jsonl,
)
from .geosync import EdgeReplica, GeoReplicator, OutboundQueue
from .segment import (
    CorruptSegmentError,
    PageCache,
    SegmentBackedLog,
    SegmentReader,
    SegmentWriter,
    StoreState,
)
from .sharding import (
    HashRing,
    ReplicaDivergedError,
    ReplicaGroup,
    ShardApplyReport,
    ShardedStore,
    mutation_shard_key,
)
from .store import ApplyReport, StoreSnapshot, VersionedKnowledgeStore

__all__ = [
    "ADD_DOCUMENT",
    "ADD_TRIPLE",
    "ApplyReport",
    "CorruptSegmentError",
    "EdgeReplica",
    "GeoReplicator",
    "HashRing",
    "Mutation",
    "MutationLog",
    "OutboundQueue",
    "PageCache",
    "REMOVE_TRIPLE",
    "ReplicaDivergedError",
    "ReplicaGroup",
    "SegmentBackedLog",
    "SegmentReader",
    "SegmentWriter",
    "ShardApplyReport",
    "ShardedStore",
    "StoreSnapshot",
    "StoreState",
    "VersionedKnowledgeStore",
    "atomic_write",
    "mutation_shard_key",
    "read_mutations_jsonl",
]
