"""Versioned knowledge store: epochs, snapshots, incremental index upkeep.

:class:`VersionedKnowledgeStore` wraps the :class:`~repro.kg.graph.KnowledgeGraph`
and the retrieval :class:`~repro.retrieval.corpus.Corpus` behind an
append-only mutation log.  Every applied batch advances a monotonic epoch,
and the store's invariant is::

    store  ==  replay(store.log)      (byte-identical internal state)

which makes three things fall out for free:

* **persistence** — saving the log as a segment file and loading it back
  reconstructs the store deterministically, down to interning order and
  posting-array layout (the JSONL form is a human-readable export); a
  saved store reads the segment it wrote, so its next save appends;
* **point-in-time snapshots** — ``snapshot(epoch)`` replays the log up to
  an epoch (or, for the current epoch, takes the cheap structure-preserving
  copies) and hands back an immutable view for reproducible offline runs;
  a historical snapshot keeps no log of what it replayed, and repeated
  snapshots behind one checkpoint copy the segment reader's resident
  restore of it instead of decoding it again;
* **verifiable incremental maintenance** — applying a mutation batch
  updates the BM25 posting arrays/IDF/length norms, the embedder warm
  cache, and the interned graph *in place*, and the state digests prove
  the result identical to a from-scratch rebuild.

There is one apply path: a live ``apply``, a replay, a historical snapshot
and the save's shadow replay all hand a batch's triple adds and removes to
:meth:`KnowledgeGraph.apply_batch` in one call, and re-interning and
``compact`` rebuild the graph through it too.

Two module constants bound the cost of incrementality:
:data:`INDEX_REBUILD_FRACTION` sends a batch that adds a large fraction of
the corpus to a full index rebuild (same bytes either way), and
:data:`GRAPH_REBUILD_FRACTION` re-interns a graph that has accumulated too
many removals from its sorted triples (a decision that is a pure function
of the log, so replay takes the same branch at the same batch and
byte-identity is preserved).  Neither is persisted: a saved file holds the
log, and the code that replays it holds the thresholds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..kg.graph import KnowledgeGraph
from ..kg.triples import Triple
from ..retrieval.corpus import Corpus, Document
from ..retrieval.embeddings import HashingEmbedder
from ..retrieval.search import SearchEngine
from .log import ADD_DOCUMENT, ADD_TRIPLE, REMOVE_TRIPLE, Mutation, MutationLog
from . import segment
from .segment import (
    SegmentBackedLog,
    SegmentReader,
    SegmentWriter,
    StoreState,
    encode_record,
)

__all__ = ["ApplyReport", "StoreSnapshot", "VersionedKnowledgeStore"]

#: Called after every applied batch: ``listener(epoch, mutations)``.
MutationListener = Callable[[int, Sequence[Mutation]], None]


#: When one batch adds more than this fraction of the post-batch corpus, the
#: BM25 index is rebuilt from scratch instead of patched incrementally (the
#: concatenation work would exceed a clean build).  Incremental and rebuilt
#: indexes are byte-identical, so this is a pure performance trade-off.
INDEX_REBUILD_FRACTION = 0.5
#: When the removals accumulated since the last re-interning exceed this
#: fraction of the live graph, the graph is rebuilt from its sorted triples
#: to shed ghost interning entries.  The decision is a deterministic function
#: of the log, so replay rebuilds at the same epochs and stays byte-identical.
GRAPH_REBUILD_FRACTION = 0.5


@dataclass(frozen=True)
class ApplyReport:
    """What one mutation batch did to the store."""

    epoch: int
    triples_added: int
    triples_removed: int
    documents_added: int
    index_strategy: str  # "incremental" | "rebuild" | "untouched"
    graph_rebuilt: bool
    seconds: float

    @property
    def total_ops(self) -> int:
        """Operations the batch performed (adds + removals + documents)."""
        return self.triples_added + self.triples_removed + self.documents_added


class StoreSnapshot:
    """An immutable point-in-time view of graph + corpus at one epoch.

    Snapshots of the *current* epoch are cheap: the graph clone preserves
    interning tables and edge order (no re-hashing), the corpus copy shares
    the frozen documents.  Historical epochs are reconstructed by replaying
    the log, which is slower but exactly reproducible; on a saved or loaded
    store the replay starts from the nearest checkpoint, restored from the
    segment reader's resident copy by the same two copies once two
    consecutive seeks have asked for that checkpoint.  The search engine
    is materialised lazily on first use.
    """

    def __init__(self, epoch: int, graph: KnowledgeGraph, corpus: Corpus) -> None:
        self.epoch = epoch
        self.graph = graph
        self.corpus = corpus
        self._engine: Optional[SearchEngine] = None

    def search_engine(self) -> SearchEngine:
        """The BM25 index over this snapshot's corpus, built on first use."""
        if self._engine is None:
            self._engine = SearchEngine(self.corpus)
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreSnapshot(epoch={self.epoch}, triples={len(self.graph)}, "
            f"documents={len(self.corpus)})"
        )


class VersionedKnowledgeStore:
    """Mutable, versioned wrapper over the KG and retrieval substrates."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self.graph = KnowledgeGraph(name=f"{name}-kg")
        self.corpus = Corpus()
        self.log = MutationLog()
        self.embedder: Optional[HashingEmbedder] = None
        self._engine: Optional[SearchEngine] = None
        self._epoch = 0
        self._removed_since_reintern = 0
        # The chained digest (see :attr:`chain_digest`) and how many more
        # mutations it may fold before a full audit is due again: the live
        # size at the last anchor, counted down (never anchored = due).
        self._chain = hashlib.sha256().hexdigest()
        self._ops_to_audit = 0
        self._listeners: List[MutationListener] = []
        #: Optional :class:`~repro.obs.trace.Tracer`; when armed, every
        #: :meth:`apply` records a ``store.apply`` span (set by
        #: ``set_observability`` on the owning service/router).
        self.tracer = None

    # ------------------------------------------------------------- construction

    @classmethod
    def bootstrap(
        cls,
        triples: Iterable[Triple] = (),
        documents: Iterable[Document] = (),
        embedder: Optional[HashingEmbedder] = None,
        name: str = "store",
    ) -> "VersionedKnowledgeStore":
        """A fresh store seeded with one genesis batch (epoch 1 if non-empty)."""
        store = cls(name=name)
        store.embedder = embedder
        genesis = [Mutation(ADD_TRIPLE, triple=triple) for triple in triples]
        genesis.extend(Mutation(ADD_DOCUMENT, document=document) for document in documents)
        if genesis:
            store.apply(genesis)
        return store

    @classmethod
    def adopt(
        cls,
        corpus: Corpus,
        search_engine: Optional[SearchEngine] = None,
        triples: Sequence[Triple] = (),
        embedder: Optional[HashingEmbedder] = None,
        name: str = "store",
    ) -> "VersionedKnowledgeStore":
        """Wrap *existing* retrieval substrates without rebuilding them.

        The given corpus (and, when provided, the search engine already
        built over it — e.g. a ``MockSearchAPI.engine``) become the store's
        live substrates, maintained in place by subsequent ``apply`` calls,
        so strategies holding references to them observe mutations
        immediately.  A genesis batch recording the adopted documents (in
        corpus order) and the given triples is written to the log, keeping
        the ``store == replay(log)`` invariant intact.
        """
        store = cls(name=name)
        store.embedder = embedder
        store.corpus = corpus
        if search_engine is not None and search_engine.corpus is not corpus:
            raise ValueError("search_engine must be built over the adopted corpus")
        store._engine = search_engine
        genesis: List[Mutation] = [
            Mutation(ADD_TRIPLE, triple=triple) for triple in triples
        ]
        genesis.extend(
            Mutation(ADD_DOCUMENT, document=document) for document in corpus
        )
        if genesis:
            # The documents are already in the corpus (and indexed); only the
            # triples need applying.  The log records the full genesis batch
            # so replay rebuilds the identical corpus in the identical order.
            store._epoch = 1
            store.log.append_batch(1, genesis)
            store.graph.add_all(triples)
        return store

    @classmethod
    def replay(
        cls,
        log: MutationLog,
        embedder: Optional[HashingEmbedder] = None,
        upto: Optional[int] = None,
        name: str = "store",
    ) -> "VersionedKnowledgeStore":
        """Rebuild a store deterministically from a mutation log.

        ``upto`` bounds the replay at an epoch (inclusive); the result's
        epoch is the last replayed batch's epoch (or the log floor when no
        batch qualifies).  Replaying the full log of a live store yields a
        byte-identical twin (``state_digest`` matches).

        A saved or loaded store's :class:`SegmentBackedLog` is *seeked*,
        not replayed from zero: the nearest checkpoint at or below ``upto`` is
        restored (the graph comes back with its derived indexes unhydrated)
        and only the record suffix behind it is applied.  Checkpoints are
        themselves produced by this replay, so the seeked result is
        byte-identical to the from-zero path.  A full replay decodes the
        head checkpoint and owns it; a bounded one may restore copies of
        the reader's resident checkpoint instead
        (:meth:`~repro.store.segment.SegmentReader.seek_checkpoint`).

        A full replay's log is a fork of ``log`` (sharing a segment's
        reader and page cache); a bounded one records what it applied into
        a fresh log floored where it started.
        """
        store = cls(name=name)
        store.embedder = embedder
        full = upto is None
        if full:
            store.log = log.fork()
        floor = store._replay(log, upto, record=not full)
        if not full:
            # Raised only now: a compacted log's one batch sits *at* its floor.
            store.log.floor_epoch = floor
        return store

    def _replay(self, log: MutationLog, upto: Optional[int], record: bool) -> int:
        """Bring this fresh store to ``log``'s state at ``upto``: restore
        the nearest checkpoint at or below it, then apply the batches
        behind it (recording them into :attr:`log` only when ``record``).
        Returns the epoch the applied suffix starts from."""
        self._epoch = log.floor_epoch
        after = None
        base = log.replay_base(upto=upto)
        if base is not None:
            self.graph, self.corpus = base.restore(self.name)
            self._epoch = after = base.epoch
            self._removed_since_reintern = base.removed_since_reintern
        start = self._epoch
        for epoch, mutations in log.batches(upto=upto, after=after):
            self._apply_batch(epoch, mutations, record)
        return start

    # ------------------------------------------------------------- properties

    @property
    def epoch(self) -> int:
        """The monotonic version: bumped by one per applied mutation batch."""
        return self._epoch

    @property
    def chain_digest(self) -> str:
        """Running digest of what :meth:`apply` did since the last anchor.

        Every live batch folds in its records and the state-dependent part
        of its :class:`ApplyReport` (:meth:`compact` folds a marker;
        ``replay``/``load``/``snapshot`` fold nothing), so two stores that
        a full audit found byte-identical (:meth:`ReplicaGroup.verify`
        anchors both chains there) and whose chains still agree applied
        the same batches with the same effects in the same order since.
        """
        return self._chain

    @property
    def search_engine(self) -> SearchEngine:
        """The BM25 index over the store's corpus, maintained incrementally."""
        if self._engine is None:
            self._engine = SearchEngine(self.corpus)
        return self._engine

    def subscribe(self, listener: MutationListener) -> None:
        """Register a callback invoked after every applied batch.

        The geo replicator uses this to enqueue each batch for the edges.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------- mutation

    def add_triple(self, subject: str, predicate: str, obj: str) -> ApplyReport:
        """Apply a single-triple add batch (see :meth:`apply`)."""
        return self.apply([Mutation.add_triple(subject, predicate, obj)])

    def remove_triple(self, subject: str, predicate: str, obj: str) -> ApplyReport:
        """Apply a single-triple removal batch (see :meth:`apply`);
        raises :class:`ValueError` when the triple is absent."""
        return self.apply([Mutation.remove_triple(subject, predicate, obj)])

    def add_document(self, document: Document) -> ApplyReport:
        """Apply a single-document add batch (see :meth:`apply`);
        raises :class:`ValueError` on a duplicate ``doc_id``."""
        return self.apply([Mutation.add_document(document)])

    def apply(self, mutations: Sequence[Mutation]) -> ApplyReport:
        """Apply one mutation batch atomically; returns what changed.

        The whole batch is validated against the current state first —
        an empty batch, a remove of an absent triple, or a duplicate
        document id raises :class:`ValueError` before anything is
        touched — then applied, logged at ``epoch + 1``, and pushed
        through the incremental index maintenance.  Duplicate triple adds
        are permitted no-ops, matching :meth:`KnowledgeGraph.add`.
        """
        batch = list(mutations)
        if not batch:
            raise ValueError("mutation batch must not be empty")
        self.validate(batch)
        epoch = self._epoch + 1
        if self.tracer is not None:
            with self.tracer.span("store.apply", self.name) as span:
                span.attributes["epoch"] = epoch
                span.attributes["ops"] = len(batch)
                report = self._apply_batch(epoch, batch, record=True)
        else:
            report = self._apply_batch(epoch, batch, record=True)
        chain = hashlib.sha256(self._chain.encode("ascii"))
        for mutation in batch:
            chain.update(encode_record(epoch, mutation))
        # ...and what the batch did, which depends on the state it met.
        chain.update(
            b"%d %d %d %d"
            % (
                report.triples_added,
                report.triples_removed,
                report.documents_added,
                report.graph_rebuilt,
            )
        )
        self._chain = chain.hexdigest()
        self._ops_to_audit -= len(batch)
        for listener in self._listeners:
            listener(epoch, batch)
        return report

    def _anchor_chain(self, digest: str) -> None:
        """Restart the chain at a full audit's shared digest
        (:meth:`ReplicaGroup.verify` anchors every member it audited)."""
        self._chain = digest
        self._ops_to_audit = len(self.graph) + len(self.corpus)

    def validate(self, batch: Sequence[Mutation]) -> None:
        """Raise :class:`ValueError` if the live state refuses ``batch`` (it
        removes an absent triple or adds a duplicate document id).

        Costs O(batch) and touches nothing: membership is asked of the live
        graph and corpus, with a batch-local overlay for what earlier
        mutations of the same batch added or removed.
        """
        live: Dict[Triple, bool] = {}
        new_doc_ids: Set[str] = set()
        for position, mutation in enumerate(batch):
            if mutation.op == ADD_TRIPLE:
                live[mutation.triple] = True
            elif mutation.op == REMOVE_TRIPLE:
                triple = mutation.triple
                if not live.get(triple, triple in self.graph):
                    raise ValueError(
                        f"batch[{position}]: cannot remove absent triple {triple}"
                    )
                live[triple] = False
            else:  # ADD_DOCUMENT
                doc_id = mutation.document.doc_id
                if doc_id in new_doc_ids or doc_id in self.corpus:
                    raise ValueError(f"batch[{position}]: duplicate document id {doc_id!r}")
                new_doc_ids.add(doc_id)

    def _apply_batch(
        self, epoch: int, batch: Sequence[Mutation], record: bool
    ) -> ApplyReport:
        started = time.perf_counter()
        triples_added, triples_removed = self.graph.apply_batch(
            [(mutation.op == ADD_TRIPLE, mutation.triple)
             for mutation in batch if mutation.document is None]
        )
        new_documents = [
            mutation.document for mutation in batch if mutation.document is not None
        ]
        for document in new_documents:
            self.corpus.add(document)

        index_strategy = self._maintain_index(new_documents)
        graph_rebuilt = self._maybe_reintern_graph(triples_removed)
        self._warm_embedder(new_documents)

        self._epoch = epoch
        if record:
            self.log.append_batch(epoch, batch)
        return ApplyReport(
            epoch=epoch,
            triples_added=triples_added,
            triples_removed=triples_removed,
            documents_added=len(new_documents),
            index_strategy=index_strategy,
            graph_rebuilt=graph_rebuilt,
            seconds=time.perf_counter() - started,
        )

    def _maintain_index(self, new_documents: Sequence[Document]) -> str:
        """Keep the BM25 index consistent with the corpus; returns the path taken."""
        if self._engine is None or not new_documents:
            return "untouched"
        dirty = len(new_documents) / max(1, len(self.corpus))
        if dirty > INDEX_REBUILD_FRACTION:
            self._engine.rebuild()
            return "rebuild"
        self._engine.add_documents(new_documents)
        return "incremental"

    def _maybe_reintern_graph(self, removed: int) -> bool:
        """Shed ghost interning entries once removals pile up.

        Deterministic from the log: the counter evolves identically during
        replay, so both stores re-intern at the same epochs and the interned
        layouts (and hence ``find_paths`` order) stay byte-identical.
        """
        self._removed_since_reintern += removed
        live = len(self.graph)
        if self._removed_since_reintern <= GRAPH_REBUILD_FRACTION * max(1, live):
            return False
        self._reintern_graph()
        return True

    def _reintern_graph(self) -> None:
        """Rebuild the graph from its sorted triples: dense interning
        tables again, with no entry for a node or predicate no edge uses."""
        rebuilt = KnowledgeGraph(name=self.graph.name)
        rebuilt.add_all(self.graph)
        self.graph = rebuilt
        self._removed_since_reintern = 0

    def _warm_embedder(self, new_documents: Sequence[Document]) -> None:
        if self.embedder is None or not new_documents:
            return
        texts = [document.text for document in new_documents if document.text.strip()]
        if texts:
            self.embedder.warm(texts)

    # ------------------------------------------------------------- snapshots

    def snapshot(self, epoch: Optional[int] = None) -> StoreSnapshot:
        """An immutable view of the store at ``epoch`` (default: current).

        The current epoch is served from cheap structure-preserving copies;
        historical epochs replay the log without recording what they apply
        (and are unavailable below the log's compaction floor).  On a
        segment-backed log the replay seeks the nearest checkpoint at or
        below ``epoch``: the first seek of a checkpoint decodes it, the
        second consecutive one decodes it into the reader's resident copy,
        and later ones copy that resident, so the digest is the from-zero
        replay's whichever way the checkpoint was restored.
        """
        if epoch is None or epoch == self._epoch:
            return StoreSnapshot(self._epoch, self.graph.copy(), self.corpus.copy())
        if epoch > self._epoch:
            raise ValueError(f"epoch {epoch} is in the future (store at {self._epoch})")
        if epoch < self.log.floor_epoch:
            raise ValueError(
                f"epoch {epoch} predates the log's compaction floor {self.log.floor_epoch}"
            )
        # Replayed into a store whose log stays empty: nothing reads it.
        replayed = VersionedKnowledgeStore(name=self.name)
        replayed._replay(self.log, epoch, record=False)
        return StoreSnapshot(epoch, replayed.graph, replayed.corpus)

    # ------------------------------------------------------------- persistence

    def save(self, path: str, format: str = "segment") -> None:
        """Persist the mutation log.

        ``"segment"`` is the durable format (paged binary with checkpoints
        — see :mod:`repro.store.segment`) and the only one :meth:`load`
        opens.  ``"jsonl"`` writes the human-readable export instead
        (line-per-mutation; read back with :meth:`MutationLog.load` +
        :meth:`replay`).  The choice is per call — nothing remembers it —
        and both writers are crash-atomic.  After a segment save the store
        reads that file, as a loaded store does, so the next save appends:
        the segment engine's checkpoint cadence and block size shape a full
        rewrite only.  A JSONL export does not switch the log.
        """
        if format == "segment":
            self._save_segment(path)
            self.log = SegmentBackedLog(SegmentReader.open(path))
        elif format == "jsonl":
            self.log.save(path)
        else:
            raise ValueError(
                f"unknown store format {format!r}; expected 'segment' or 'jsonl'"
            )

    def _checkpoint_state(self) -> StoreState:
        """The live state as a checkpoint payload (serialised immediately
        by the writer, before any further mutation can alias the live
        containers :meth:`KnowledgeGraph.core_state` hands out)."""
        return StoreState(
            epoch=self._epoch,
            graph_core=self.graph.core_state(),
            documents=list(self.corpus),
            removed_since_reintern=self._removed_since_reintern,
        )

    def _save_segment(self, path: str) -> None:
        log = self.log
        if isinstance(log, SegmentBackedLog) and not log.reader.recovered:
            self._save_segment_incremental(log, path)
            return
        # Full rewrite.  Each interleaved checkpoint must carry exactly the
        # state a from-zero replay has at its epoch, so a shadow store
        # replays the log — but only while another one can still come due.
        # The head checkpoint is the live store (``store == replay(log)``):
        # a log shorter than the checkpoint interval replays nothing here.
        checkpoint_interval = segment.CHECKPOINT_INTERVAL
        shadow = VersionedKnowledgeStore(name=self.name)
        shadow._epoch = log.floor_epoch
        since_checkpoint = 0
        remaining = len(log)
        with SegmentWriter(path, floor_epoch=log.floor_epoch) as writer:
            for epoch, mutations in log.batches():
                writer.append_batch(epoch, mutations)
                if since_checkpoint + remaining >= checkpoint_interval:
                    shadow._apply_batch(epoch, mutations, record=False)
                since_checkpoint += len(mutations)
                remaining -= len(mutations)
                if since_checkpoint >= checkpoint_interval:
                    writer.checkpoint(shadow._checkpoint_state())
                    since_checkpoint = 0
            if since_checkpoint > 0 or not writer.blocks:
                # Always leave a head checkpoint so cold start restores
                # state instead of replaying a suffix.
                writer.checkpoint(self._checkpoint_state())

    def _save_segment_incremental(self, log: SegmentBackedLog, path: str) -> None:
        """Append-style save: copy the existing compressed blocks verbatim
        and encode only the in-memory tail, plus a head checkpoint if any."""
        reader = log.reader
        with SegmentWriter(path, floor_epoch=reader.floor_epoch) as writer:
            for block in reader.blocks:
                writer.copy_raw_block(block, reader.read_raw_block(block))
            tail = log.tail_batches()
            for epoch, mutations in tail:
                writer.append_batch(epoch, mutations)
            if tail:
                writer.checkpoint(self._checkpoint_state())

    @classmethod
    def load(cls, path: str, name: str = "store") -> "VersionedKnowledgeStore":
        """Rebuild a store from a saved segment: restore the newest
        checkpoint, replay the suffix behind it.

        Raises :class:`~repro.store.segment.CorruptSegmentError` for
        anything that is not a segment file — an empty file, binary junk,
        or a JSONL export (which ``convert`` imports).
        """
        return cls.replay(SegmentBackedLog(SegmentReader.open(path)), name=name)

    def compact(self) -> int:
        """Collapse history into one canonical batch at the current epoch.

        The live state is re-expressed as sorted triple adds followed by
        document adds in corpus order, the log floor rises to the current
        epoch (earlier snapshots become unavailable), and the in-memory
        substrates are canonicalised to match — so ``store == replay(log)``
        still holds afterwards.  Returns the number of log records dropped.
        """
        before = len(self.log)
        canonical: List[Mutation] = [
            Mutation(ADD_TRIPLE, triple=triple) for triple in self.graph
        ]
        canonical.extend(
            Mutation(ADD_DOCUMENT, document=document) for document in self.corpus
        )
        compacted = MutationLog()
        if canonical:
            compacted.append_batch(self._epoch, canonical)
        compacted.floor_epoch = self._epoch
        self.log = compacted
        # Canonicalise the live substrates so the invariant keeps holding.
        self._reintern_graph()
        if self._engine is not None:
            self._engine.rebuild()
        # A member that compacted alone must stop matching its group.
        self._chain = hashlib.sha256(self._chain.encode("ascii") + b"compact").hexdigest()
        return before - len(self.log)

    # ------------------------------------------------------------- verification

    def state_digest(self, include_index: bool = True) -> str:
        """Combined digest of graph, corpus, and (optionally) the BM25 index.

        Two stores share a digest iff their observable behaviour is
        identical — including traversal and ranking order.  ``include_index``
        materialises the search engine when it has not been used yet.
        """
        digest = hashlib.sha256()
        digest.update(self.graph.state_digest().encode("ascii"))
        for document in self.corpus:
            digest.update(document.doc_id.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(document.text.encode("utf-8"))
            digest.update(b"\x00")
        if include_index:
            digest.update(self.search_engine.state_digest().encode("ascii"))
        return digest.hexdigest()
