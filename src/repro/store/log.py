"""Append-only mutation log with a JSON-lines export/import codec.

The versioned knowledge store records every state change as a
:class:`Mutation` stamped with the monotonic epoch it was applied at, and
the log keeps each as one flat record (:data:`Record`), the unit a
segment's page cache holds and replay applies.  The log is the store's
source of truth: replaying it into a fresh store is
deterministic down to the byte (same interning order, same posting-array
layout), which is what makes on-disk persistence, point-in-time snapshots,
and the incremental-vs-rebuild equivalence checks possible.

The durable on-disk form is the segment file (:mod:`repro.store.segment`);
the JSONL form written here is the human-readable export, re-imported by
``MutationLog.load`` + ``VersionedKnowledgeStore.replay`` (the CLI's
``convert``).  It is newline-delimited JSON: a header line carrying the
format version and the log's floor epoch, followed by one record per
mutation with its epoch.  Compaction (performed by the store, which owns
the current state) rewrites the log as a single batch reproducing the
live state at the current epoch and raises the log's *floor*: epochs below
the floor are no longer reconstructible.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..kg.graph import KnowledgeGraph
from ..kg.triples import Triple
from ..retrieval.corpus import Corpus, Document

__all__ = [
    "Mutation",
    "MutationLog",
    "atomic_write",
    "read_mutations_jsonl",
    "ADD_TRIPLE",
    "REMOVE_TRIPLE",
    "ADD_DOCUMENT",
]


@contextlib.contextmanager
def atomic_write(path: str):
    """Crash-atomic replacement of a UTF-8 text file: temp file + fsync +
    ``os.replace``.

    The payload is written to ``{path}.tmp.{pid}`` in the same directory
    (so the final rename never crosses a filesystem), flushed and fsynced
    before the atomic :func:`os.replace` into place.  A crash — or any
    exception — mid-write leaves the previous file untouched and removes
    the temp file; readers never observe a half-written log.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    handle = open(tmp_path, "w", encoding="utf-8")
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise


def decode_line(raw: bytes, where: str) -> Dict[str, object]:
    """One line of a persisted line format (the JSONL log, a mutations
    file, a durable queue, the segment header) as the object it holds.

    Raises :class:`ValueError` starting ``<where>: `` for bytes that are
    not UTF-8, malformed JSON, a value nested too deep to decode, and a
    value that is not an object.
    """
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: not valid JSON ({exc})") from exc
    if type(value) is not dict:
        raise ValueError(f"{where}: record is not a JSON object")
    return value


def read_records(path: str) -> Iterator[Tuple[str, Dict[str, object]]]:
    """``(where, record)`` for each non-blank line of a JSONL file, in file
    order: ``where`` is ``<path>:<line>`` and the record is what
    :func:`decode_line` makes of the line."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            if not raw.isspace():
                where = f"{path}:{number}"
                yield where, decode_line(raw, where)


def read_header(
    header: Dict[str, object], where: str, version: int, *fields: str
) -> List[int]:
    """The header rule every persisted format shares: ``version`` is
    exactly the ``int`` its format is at (1 for a JSONL log and a queue, 2
    for a segment), and each named field (absent: 0) is a non-negative
    ``int`` (a ``bool`` or a float is not one).  Returns the fields'
    values; raises :class:`ValueError` starting ``<where>: ``."""
    found = header.get("version")
    if type(found) is not int or found != version:
        raise ValueError(f"{where}: header version {found!r} is not {version}")
    values = [header.get(field, 0) for field in fields]
    for field, value in zip(fields, values):
        if type(value) is not int or value < 0:
            raise ValueError(
                f"{where}: header {field} {value!r} is not a non-negative integer"
            )
    return values


ADD_TRIPLE = "add_triple"
REMOVE_TRIPLE = "remove_triple"
ADD_DOCUMENT = "add_document"

_OPS = frozenset({ADD_TRIPLE, REMOVE_TRIPLE, ADD_DOCUMENT})
#: Each op's code in a :data:`Record` and in a segment's record bytes.  A
#: triple's code is the ``remove`` flag
#: :meth:`~repro.kg.graph.KnowledgeGraph.apply_batch` reads.
ADD_TRIPLE_CODE, REMOVE_TRIPLE_CODE, ADD_DOCUMENT_CODE = 0, 1, 2
OP_CODES = {
    ADD_TRIPLE: ADD_TRIPLE_CODE,
    REMOVE_TRIPLE: REMOVE_TRIPLE_CODE,
    ADD_DOCUMENT: ADD_DOCUMENT_CODE,
}
OP_NAMES = {code: op for op, code in OP_CODES.items()}

#: One log record: ``(epoch, code, subject, predicate, object)`` for a
#: triple add or remove, ``(epoch, ADD_DOCUMENT_CODE, document)`` for a
#: document add.  Every log stores these, a segment's page cache holds
#: them and replay hands a triple record to
#: :meth:`~repro.kg.graph.KnowledgeGraph.apply_batch` as it stands.  A
#: triple record holds only ``int`` and ``str``, so the cycle collector
#: stops tracking it at its first young collection.
Record = Tuple[object, ...]

#: A document's fields in the order a JSONL ``add_document`` record and a
#: segment's record bytes carry them.
_DOC_FIELDS = ("doc_id", "url", "title", "text", "source", "fact_id", "kind")
#: The fields an ``add_document`` record may leave out, with their defaults.
_DOC_DEFAULTS = {"url": "", "title": "", "source": "", "fact_id": "", "kind": "generic"}
_TRIPLE_FIELDS = ("subject", "predicate", "object")


@dataclass(frozen=True, slots=True)
class Mutation:
    """One state change: a triple add/remove or a document add.

    Exactly one of ``triple`` / ``document`` is set, matching ``op``.
    Instances are immutable and JSON round-trippable, so a log of them can
    be persisted and replayed without loss.
    """

    op: str
    triple: Optional[Triple] = None
    document: Optional[Document] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"Unknown mutation op {self.op!r}; expected one of {sorted(_OPS)}")
        if self.op == ADD_DOCUMENT:
            if self.document is None or self.triple is not None:
                raise ValueError(f"{self.op} requires a document payload")
        else:
            if self.triple is None or self.document is not None:
                raise ValueError(f"{self.op} requires a triple payload")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def add_triple(subject: str, predicate: str, obj: str) -> "Mutation":
        """An ``add_triple`` mutation for ``(subject, predicate, obj)``."""
        return Mutation(ADD_TRIPLE, triple=Triple(subject, predicate, obj))

    @staticmethod
    def remove_triple(subject: str, predicate: str, obj: str) -> "Mutation":
        """A ``remove_triple`` mutation for ``(subject, predicate, obj)``."""
        return Mutation(REMOVE_TRIPLE, triple=Triple(subject, predicate, obj))

    @staticmethod
    def add_document(document: Document) -> "Mutation":
        """An ``add_document`` mutation carrying ``document`` verbatim."""
        return Mutation(ADD_DOCUMENT, document=document)

    # -- records -------------------------------------------------------------

    def record(self, epoch: int) -> Record:
        """This mutation as the log :data:`Record` stamped ``epoch``;
        inverse of :meth:`from_record`."""
        if self.document is not None:
            return (epoch, ADD_DOCUMENT_CODE, self.document)
        triple = self.triple
        return (epoch, OP_CODES[self.op], triple.subject, triple.predicate, triple.object)

    @staticmethod
    def from_record(record: Record) -> "Mutation":
        """The mutation a :data:`Record` holds (its epoch is dropped)."""
        op = OP_NAMES[record[1]]
        if op == ADD_DOCUMENT:
            return Mutation(op, document=record[2])
        return Mutation(op, triple=Triple(*record[2:]))

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """This mutation as a JSON-serialisable dict (no epoch stamp —
        the log adds that per record); inverse of :meth:`from_json`."""
        if self.op == ADD_DOCUMENT:
            payload = {name: getattr(self.document, name) for name in _DOC_FIELDS}
            return {"op": self.op, "document": payload}
        return {
            "op": self.op,
            "subject": self.triple.subject,
            "predicate": self.triple.predicate,
            "object": self.triple.object,
        }

    @staticmethod
    def from_json(record: Dict[str, object]) -> "Mutation":
        """Rebuild a mutation from :meth:`to_json` output.

        Raises :class:`ValueError` for an unknown ``op``, a triple field
        that is not a string, or an ``add_document`` record whose
        ``doc_id`` or ``text`` is missing or whose fields are not strings
        (the other fields default).  Other keys (a log record's ``epoch``)
        are ignored.
        """
        op = record.get("op")
        if op == ADD_TRIPLE or op == REMOVE_TRIPLE:
            subject, predicate, obj = (
                record.get("subject"), record.get("predicate"), record.get("object")
            )
            if type(subject) is str and type(predicate) is str and type(obj) is str:
                return Mutation(op, triple=Triple(subject, predicate, obj))
            fields, names = record, _TRIPLE_FIELDS
        elif op == ADD_DOCUMENT:
            payload = record.get("document")
            if not isinstance(payload, dict):
                raise ValueError("add_document record requires a 'document' object")
            # A truncated record must fail loudly, not round-trip into an
            # empty document: identity and content are required, only the
            # genuinely optional metadata fields may default.
            fields, names = {**_DOC_DEFAULTS, **payload}, _DOC_FIELDS
            values = [fields.get(name) for name in names]
            if all(type(value) is str for value in values):
                return Mutation(op, document=Document(*values))
        else:
            shown = type(op).__name__ if isinstance(op, (list, dict)) else op
            raise ValueError(f"Unknown mutation op {shown!r}; expected one of {sorted(_OPS)}")
        name = next(name for name in names if type(fields.get(name)) is not str)
        raise ValueError(f"{op} record field {name!r} is missing or not a string")


def mutation_at(record: Dict[str, object], where: str) -> Mutation:
    """:meth:`Mutation.from_json` for a record read at ``where``: its
    :class:`ValueError` starts ``<where>: ``."""
    try:
        return Mutation.from_json(record)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def group_batches(records: Iterable[Record]) -> List[Tuple[int, List[Record]]]:
    """Group records, already in epoch order, into one ``(epoch,
    [records])`` entry per epoch."""
    grouped: List[Tuple[int, List[Record]]] = []
    batch: List[Record] = []
    for record in records:
        if not batch or batch[0][0] != record[0]:
            batch = []
            grouped.append((record[0], batch))
        batch.append(record)
    return grouped


def split_batch(records: Sequence[Record]) -> Tuple[Sequence[Record], List[Document]]:
    """One batch's ``(triple records, documents)``, each in batch order:
    the graph kernel's ops as they are, and what joins the corpus."""
    documents = [r[2] for r in records if r[1] == ADD_DOCUMENT_CODE]
    if not documents:
        return records, documents
    return [r for r in records if r[1] != ADD_DOCUMENT_CODE], documents


def epoch_window(
    records: Iterable[Record], after: Optional[int], upto: Optional[int]
) -> Iterator[Record]:
    """The records with ``after < epoch <= upto`` (None: unbounded) of an
    epoch-ordered run, stopping at the first one past ``upto``."""
    for record in records:
        epoch = record[0]
        if after is not None and epoch <= after:
            continue
        if upto is not None and epoch > upto:
            return
        yield record


@dataclass(frozen=True)
class ReplayBase:
    """A materialised state at ``epoch`` that a replay starts from: the
    replaying store adopts ``graph`` and ``corpus`` as they are, takes
    over the re-intern counter and applies only the batches after
    ``epoch``."""

    epoch: int
    graph: KnowledgeGraph
    corpus: Corpus
    removed_since_reintern: int

    def copy(self) -> "ReplayBase":
        """The same state in structure-preserving copies, sharing nothing
        mutable with this one."""
        return ReplayBase(
            self.epoch, self.graph.copy(), self.corpus.copy(), self.removed_since_reintern
        )


class MutationLog:
    """Ordered log records plus JSONL persistence.

    Each entry is a flat :data:`Record`, and replay reads them as they
    are (:meth:`records`, :meth:`batches`).  Iterating the log yields
    ``(epoch, Mutation)`` pairs built from the records on demand, for the
    JSONL export, ``convert`` and tests.

    ``floor_epoch`` is the earliest epoch the log can reconstruct: ``0``
    for a full-history log (replaying nothing yields the empty store at
    epoch 0), or the compaction epoch after :meth:`MutationLog` has been
    rewritten by ``VersionedKnowledgeStore.compact``.
    """

    def __init__(self, floor_epoch: int = 0) -> None:
        if floor_epoch < 0:
            raise ValueError("floor_epoch must be >= 0")
        self.floor_epoch = floor_epoch
        self._records: List[Record] = []
        # The last historical snapshot's state, with the graph version and
        # corpus size it was handed out at: see :meth:`snapshot_base`.
        self._kept: Optional[Tuple[ReplayBase, int, int]] = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Tuple[int, Mutation]]:
        for record in self.records():
            yield record[0], Mutation.from_record(record)

    @property
    def max_epoch(self) -> int:
        """The epoch the fully replayed log lands on."""
        return self._records[-1][0] if self._records else self.floor_epoch

    def append_records(self, epoch: int, records: Sequence[Record]) -> None:
        """Record one applied batch: its records, each stamped ``epoch``.

        Raises :class:`ValueError` when ``epoch`` does not advance the log
        (epochs are strictly monotonic — one per applied batch).
        """
        if epoch <= self.max_epoch:
            raise ValueError(
                f"epoch {epoch} is not monotonic (log already at {self.max_epoch})"
            )
        self._records.extend(records)

    def records(
        self, after: Optional[int] = None, upto: Optional[int] = None
    ) -> Iterator[Record]:
        """Records with ``after < epoch <= upto``, in log order."""
        return epoch_window(self._records, after, upto)

    def batches(
        self, upto: Optional[int] = None, after: Optional[int] = None
    ) -> List[Tuple[int, List[Record]]]:
        """Records grouped by epoch, in epoch order, optionally bounded to
        ``after < epoch <= upto``: what replay applies."""
        return group_batches(self.records(after=after, upto=upto))

    def replay_base(self, upto: Optional[int] = None) -> Optional[ReplayBase]:
        """The materialised state replay may start from: a plain log has
        none, so it replays from its floor (a segment-backed log hands
        back its newest checkpoint at or below ``upto``)."""
        return None

    def base_epoch(self, upto: Optional[int] = None) -> int:
        """The epoch :meth:`replay_base` starts a replay to ``upto`` from,
        found without materialising anything."""
        return self.floor_epoch

    def snapshot_base(self, upto: int) -> Optional[ReplayBase]:
        """The state a historical snapshot at ``upto`` replays from.

        That is a copy of the last snapshot's state (:meth:`keep`) when it
        lies between :meth:`base_epoch` and ``upto`` and the graph and
        corpus handed out with it are unchanged, so a forward walk through
        history applies each batch once.  Anything else — a first, a
        backward or an out-of-range seek, or a kept state its holder
        changed — starts where :meth:`replay_base` does, copying nothing
        more.  Either way the kept state is let go here, before the replay
        allocates, and the snapshot keeps its own state when it is done;
        a snapshot racing another on the same log may so find none.
        """
        kept, self._kept = self._kept, None
        if kept is not None and self.base_epoch(upto) <= kept[0].epoch <= upto:
            base, version, size = kept
            # Read before and after the copy: a change racing it shows.
            if base.graph.version == version and len(base.corpus) == size:
                copy = base.copy()
                if base.graph.version == version and len(base.corpus) == size:
                    return copy
        return self.replay_base(upto)

    def keep(self, base: ReplayBase) -> None:
        """Hold ``base`` — a historical snapshot's state, handed out by
        reference — as the next :meth:`snapshot_base`'s candidate, replacing
        any other.  A new log, a fork among them, keeps nothing."""
        self._kept = (base, base.graph.version, len(base.corpus))

    def fork(self) -> "MutationLog":
        """An independent copy of the log — what a full replay of it
        would have recorded."""
        twin = MutationLog(self.floor_epoch)
        twin._records = list(self._records)
        return twin

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the log as JSONL: one header line, then one line per record.

        The write is crash-atomic (see :func:`atomic_write`): an
        interrupted save leaves any previous log at ``path`` intact.
        """
        header = {"kind": "header", "version": 1, "floor_epoch": self.floor_epoch}
        with atomic_write(path) as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for epoch, mutation in self:
                record = mutation.to_json()
                record["epoch"] = epoch
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "MutationLog":
        """Read a JSONL log.

        Raises :class:`ValueError` naming the offending ``<path>:<line>``
        for a line :func:`decode_line`, :func:`read_header` or
        :meth:`Mutation.from_json` refuses, a header past the first
        non-blank line, and an ``epoch`` that breaks the contract
        :meth:`append_records` enforces at write time (this bypasses it for
        speed) or the density every store's log has: an integer at or
        above the floor, equal epochs in one run, each batch directly
        above the one before (a segment refuses a gap too).
        """
        log = cls()
        first, previous = True, 0
        for where, record in read_records(path):
            if record.get("kind") == "header":
                if not first:
                    raise ValueError(f"{where}: a header after the first line")
                (previous,) = read_header(record, where, 1, "floor_epoch")
                log.floor_epoch = previous
            else:
                epoch = record.get("epoch")
                if type(epoch) is not int or not previous <= epoch <= previous + 1:
                    if type(epoch) is not int:
                        problem = "record missing integer 'epoch'"
                    elif epoch < log.floor_epoch:
                        problem = f"epoch {epoch} is below the log floor {log.floor_epoch}"
                    elif epoch < previous:
                        problem = (
                            f"epoch {epoch} is not grouped-monotonic "
                            f"(previous record at epoch {previous})"
                        )
                    else:
                        problem = f"epoch {epoch} leaves a gap after epoch {previous}"
                    raise ValueError(f"{where}: {problem}")
                log._records.append(mutation_at(record, where).record(epoch))
                previous = epoch
            first = False
        return log


def read_mutations_jsonl(path: str) -> List[Mutation]:
    """Parse a plain mutations file (one op per line, no epochs) for ingestion.

    Header lines (``{"kind": "header", …}``) and blank lines are skipped,
    so a saved store log is itself a valid mutations file.  Raises
    :class:`ValueError` naming the offending ``<path>:<line>`` for a line
    :func:`decode_line` or :meth:`Mutation.from_json` refuses, and
    :class:`OSError` when unreadable.
    """
    return [
        mutation_at(record, where)
        for where, record in read_records(path)
        if record.get("kind") != "header"
    ]
