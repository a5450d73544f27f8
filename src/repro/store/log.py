"""Append-only mutation log with a JSON-lines export/import codec.

The versioned knowledge store records every state change as a
:class:`Mutation` stamped with the monotonic epoch it was applied at.  The
log is the store's source of truth: replaying it into a fresh store is
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

from ..kg.triples import Triple
from ..retrieval.corpus import Document

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


def is_floor_epoch(value: object) -> bool:
    """Whether a header's ``floor_epoch`` is usable: a non-negative ``int``
    (a ``bool`` or a float is not one)."""
    return type(value) is int and value >= 0


ADD_TRIPLE = "add_triple"
REMOVE_TRIPLE = "remove_triple"
ADD_DOCUMENT = "add_document"

_OPS = frozenset({ADD_TRIPLE, REMOVE_TRIPLE, ADD_DOCUMENT})

#: Document fields serialised into ``add_document`` records, in order.
_DOC_FIELDS = ("doc_id", "url", "title", "text", "source", "fact_id", "kind")


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

        Raises :class:`ValueError` for an unknown ``op`` or a record
        missing the payload fields its op requires.
        """
        op = record.get("op")
        if op == ADD_DOCUMENT:
            payload = record.get("document")
            if not isinstance(payload, dict):
                raise ValueError("add_document record requires a 'document' object")
            # A truncated record must fail loudly, not round-trip into an
            # empty document: identity and content are required, only the
            # genuinely optional metadata fields may default.
            for required in ("doc_id", "text"):
                if not isinstance(payload.get(required), str):
                    raise ValueError(
                        f"add_document record missing required field {required!r}"
                    )
            fields = {name: payload.get(name, "") for name in _DOC_FIELDS[:-1]}
            fields["kind"] = payload.get("kind", "generic")
            return Mutation(ADD_DOCUMENT, document=Document(**fields))
        if op in (ADD_TRIPLE, REMOVE_TRIPLE):
            try:
                triple = Triple(record["subject"], record["predicate"], record["object"])
            except KeyError as exc:
                raise ValueError(f"{op} record missing field {exc}") from exc
            return Mutation(op, triple=triple)
        raise ValueError(f"Unknown mutation op {op!r}")


def group_batches(
    records: Iterable[Tuple[int, Mutation]]
) -> List[Tuple[int, List[Mutation]]]:
    """Group ``(epoch, mutation)`` records, already in epoch order, into
    one ``(epoch, [mutations])`` entry per epoch."""
    grouped: List[Tuple[int, List[Mutation]]] = []
    for epoch, mutation in records:
        if grouped and grouped[-1][0] == epoch:
            grouped[-1][1].append(mutation)
        else:
            grouped.append((epoch, [mutation]))
    return grouped


class MutationLog:
    """Ordered ``(epoch, Mutation)`` records plus JSONL persistence.

    ``floor_epoch`` is the earliest epoch the log can reconstruct: ``0``
    for a full-history log (replaying nothing yields the empty store at
    epoch 0), or the compaction epoch after :meth:`MutationLog` has been
    rewritten by ``VersionedKnowledgeStore.compact``.
    """

    def __init__(self, floor_epoch: int = 0) -> None:
        if floor_epoch < 0:
            raise ValueError("floor_epoch must be >= 0")
        self.floor_epoch = floor_epoch
        self._records: List[Tuple[int, Mutation]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Tuple[int, Mutation]]:
        return iter(self._records)

    @property
    def max_epoch(self) -> int:
        """The epoch the fully replayed log lands on."""
        return self._records[-1][0] if self._records else self.floor_epoch

    def append_batch(self, epoch: int, mutations: Sequence[Mutation]) -> None:
        """Record one applied batch at ``epoch``.

        Raises :class:`ValueError` when ``epoch`` does not advance the log
        (epochs are strictly monotonic — one per applied batch).
        """
        if epoch <= self.max_epoch:
            raise ValueError(
                f"epoch {epoch} is not monotonic (log already at {self.max_epoch})"
            )
        self._records.extend((epoch, mutation) for mutation in mutations)

    def records_between(
        self, after: Optional[int] = None, upto: Optional[int] = None
    ) -> Iterator[Tuple[int, Mutation]]:
        """Records with ``after < epoch <= upto``, in log order."""
        for epoch, mutation in self._records:
            if after is not None and epoch <= after:
                continue
            if upto is not None and epoch > upto:
                break
            yield epoch, mutation

    def batches(
        self, upto: Optional[int] = None, after: Optional[int] = None
    ) -> List[Tuple[int, List[Mutation]]]:
        """Records grouped by epoch, in epoch order, optionally bounded to
        ``after < epoch <= upto``."""
        return group_batches(self.records_between(after=after, upto=upto))

    def replay_base(self, upto: Optional[int] = None) -> None:
        """The materialised state replay may start from: a plain log has
        none, so it replays from its floor (a segment-backed log hands
        back its newest checkpoint at or below ``upto``)."""
        return None

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

    def _check_loaded_epoch(
        self, epoch: object, last_epoch: Optional[int], where: str
    ) -> int:
        """Validate one loaded record's epoch against the append contract.

        Loading bypasses :meth:`append_batch` for speed, so the same
        invariants — integer epochs at or above the floor, grouped
        strictly-monotonic (equal epochs form one contiguous batch, batch
        epochs strictly increase) — are enforced here; a hand-edited or
        corrupted log fails loudly instead of replaying to a wrong state.
        ``where`` locates the offending record (e.g. ``file.jsonl:17``).
        """
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise ValueError(f"{where}: record missing integer 'epoch'")
        if epoch < self.floor_epoch:
            raise ValueError(
                f"{where}: epoch {epoch} is below the log floor {self.floor_epoch}"
            )
        if last_epoch is not None and epoch < last_epoch:
            raise ValueError(
                f"{where}: epoch {epoch} is not grouped-monotonic "
                f"(previous record at epoch {last_epoch})"
            )
        return epoch

    @classmethod
    def load(cls, path: str) -> "MutationLog":
        """Read a JSONL log.

        Raises :class:`ValueError` (with the offending line number) for a
        line that is not a JSON object, a header anywhere but the first
        non-blank line, a header whose ``version`` is not ``1``, a header
        floor that is not a non-negative integer, and a record whose epoch
        is missing, below the header floor, or breaks the grouped-monotonic
        ordering :meth:`append_batch` would have enforced at write time.
        """
        log = cls()
        last_epoch: Optional[int] = None
        first = True
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_number}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not valid JSON ({exc})") from exc
                if not isinstance(record, dict):
                    raise ValueError(f"{where}: record is not a JSON object")
                if record.get("kind") == "header":
                    if not first:
                        raise ValueError(f"{where}: a header after the first line")
                    version = record.get("version")
                    if type(version) is not int or version != 1:
                        raise ValueError(f"{where}: header version {version!r} is not 1")
                    floor = record.get("floor_epoch", 0)
                    if not is_floor_epoch(floor):
                        raise ValueError(
                            f"{where}: header floor_epoch {floor!r} is not a "
                            "non-negative integer"
                        )
                    log.floor_epoch = floor
                else:
                    last_epoch = log._check_loaded_epoch(
                        record.get("epoch"), last_epoch, where
                    )
                    log._records.append((last_epoch, Mutation.from_json(record)))
                first = False
        return log


def read_mutations_jsonl(path: str) -> List[Mutation]:
    """Parse a plain mutations file (one op per line, no epochs) for ingestion.

    Header lines (``{"kind": "header", …}``) and blank lines are skipped,
    so a saved store log is itself a valid mutations file.  Raises
    :class:`ValueError` on malformed JSON or unknown ops (with the
    offending line number) and :class:`OSError` when unreadable.
    """
    mutations: List[Mutation] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON ({exc})") from exc
            if record.get("kind") == "header":
                continue
            mutations.append(Mutation.from_json(record))
    return mutations
