"""Paged, segmented binary storage engine under the mutation log — the
store's one durable format.

A JSONL log (:mod:`repro.store.log`, now only the export/import codec)
replays from zero: cold start and ``snapshot(historical_epoch)`` both pay
a full parse-and-apply pass over the whole history.  This engine is shaped
like the paged ESE-database explorers referenced in PAPERS.md — pages
walked through a page cache, compression at the block boundary:

* **Blocks.**  Log records (:data:`~repro.store.log.Record`, as the store
  keeps them) are struct-packed by :func:`encode_record` into fixed-size
  blocks (:data:`BLOCK_SIZE` uncompressed bytes), each zlib-compressed
  independently and guarded by a CRC32 over the compressed payload.  A
  torn final record or a truncated segment fails its CRC/length check and
  recovery truncates to the longest valid *batch* prefix instead of
  loading garbage.
* **Page cache.**  Reads decompress and decode one block at a time
  through a bounded LRU :class:`PageCache`, so historical snapshots touch
  only the blocks their epoch window needs.  A cached page is the block's
  flat log records (:data:`~repro.store.log.Record`), which replay hands
  to the graph kernel as they are: a snapshot builds no ``Mutation`` or
  ``Triple``, and a page of triple records holds only ``int`` and
  ``str``, so the cycle collector has nothing in it to scan.
* **Footer index.**  A per-segment footer maps every block to its
  ``(offset, first_epoch, last_epoch)`` so ``snapshot(epoch)`` and cold
  start *seek* to the needed suffix instead of replaying from zero.
* **Checkpoints.**  Interleaved checkpoint blocks carry the materialised
  store state (the graph's interned core, the corpus documents, and the
  replay counters) at their epoch.  Restoring a checkpoint and replaying
  the short record suffix behind it is byte-identical to a from-zero
  replay; adopting the saved core
  (:meth:`~repro.kg.graph.KnowledgeGraph.from_core_state`) instead of
  re-applying the history is what makes cold-start-to-first-verdict ~an order of magnitude faster than
  JSONL replay (floor enforced by ``benchmarks/bench_segment.py``).
  Every seek — a cold start, a replica bootstrap, a historical
  ``snapshot`` — decodes the checkpoint it restores and owns the
  decode.  A historical ``snapshot`` seeks a
  checkpoint only when its log's kept snapshot (the last one,
  :meth:`~repro.store.log.MutationLog.snapshot_base`) does not lie
  between that checkpoint and the target, so a forward walk decodes each
  checkpoint once.

Checkpoint payloads are serialised with :mod:`pickle` *inside* the
CRC-checked block envelope.  A CRC proves nothing about who wrote the
file, and every ``load`` restores a checkpoint, so checkpoints are read
through an unpickler that resolves exactly one global —
:class:`~repro.retrieval.corpus.Document` — and raises
:class:`CorruptSegmentError` for any other: a crafted segment can make
``load`` fail, not run code.  Record blocks use a plain length-prefixed
struct encoding and are readable without unpickling: the writer encodes
the records it is handed and one pass over a block decodes it back into
records (:func:`decode_records`), so neither side builds a ``Mutation``.

A checkpoint's graph core holds each edge as one packed
``pred << 32 | other`` int (:meth:`KnowledgeGraph.core_state`), so the
layout is part of the format: the header's ``version`` is 2.  Version 1
held ``(pred, other)`` tuples, which read as packed ints would restore a
wrong graph, so :meth:`SegmentReader.open` refuses a version-1 file.

Layout::

    [ header ]  magic, u32 len | u32 crc | JSON (version 2, floor_epoch)
    [ block ]*  u8 kind | u8 flags | u32 count | u32 raw | u32 comp
                | u32 crc | payload
    [ footer ]  zlib(JSON block index) | u32 len | u32 crc | end magic

Writes are crash-atomic (temp file + fsync + ``os.replace``).  When the
footer is missing or corrupt — the crash-mid-append case — the reader
scans the blocks forward, CRC-checking each, and recovers the longest
valid prefix, dropping any trailing records of a batch that continued
into the lost tail (``FLAG_CONTINUES``) so no half-applied batch is ever
replayed.  Any other inconsistency raises :class:`CorruptSegmentError`.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..kg.graph import KnowledgeGraph
from ..retrieval.corpus import Corpus, Document
from .log import (
    _DOC_FIELDS,
    ADD_DOCUMENT_CODE,
    OP_NAMES,
    MutationLog,
    Record,
    StoreSnapshot,
    decode_line,
    epoch_window,
    read_header,
)

__all__ = [
    "CorruptSegmentError",
    "PageCache",
    "SegmentBackedLog",
    "SegmentReader",
    "SegmentWriter",
    "StoreState",
    "BLOCK_SIZE",
    "CHECKPOINT_INTERVAL",
    "COMPRESSION_LEVEL",
    "PAGE_CACHE_BLOCKS",
    "SEGMENT_MAGIC",
]

SEGMENT_MAGIC = b"RSEGMT01"
_END_MAGIC = b"RSEGEND1"

# The engine's settings.  Each is read where it is used, so a test can
# shrink one with ``monkeypatch.setattr``; none is persisted, and a reader
# opens a file written under any of them.

#: Uncompressed record bytes per block before the writer cuts a new one.
BLOCK_SIZE = 64 * 1024
#: Records between interleaved state checkpoints of a full rewrite.
CHECKPOINT_INTERVAL = 5_000
#: zlib level of record blocks (checkpoints use 1: pickled ints).
COMPRESSION_LEVEL = 6
#: Decoded blocks each reader's LRU page cache keeps resident.
PAGE_CACHE_BLOCKS = 64

BLOCK_RECORDS = 0
BLOCK_CHECKPOINT = 1
_BLOCK_KINDS = (BLOCK_RECORDS, BLOCK_CHECKPOINT)

#: The block's final batch continues in the next block: recovery that
#: loses the next block must drop this batch's trailing records too.
FLAG_CONTINUES = 1

_BLOCK_HEADER = struct.Struct("<BBIIII")  # kind, flags, count, raw, comp, crc
_FOOTER_TAIL = struct.Struct("<II8s")  # footer len, footer crc, end magic
_RECORD_HEAD = struct.Struct("<IB")  # epoch, op
_FIELD_LENGTH = struct.Struct("<I")  # each field's UTF-8 byte count
#: Largest footer index the reader inflates (~80k blocks, ~5 GiB of records
#: at the default block size); a larger one is treated as lost.
_FOOTER_MAX_RAW = 8 * 1024 * 1024


class CorruptSegmentError(RuntimeError):
    """A segment file failed a structural, CRC, or epoch-order check.

    Raised instead of ever returning silently-wrong state; crash-shaped
    damage (a truncated tail behind an intact prefix) is *recovered*
    rather than raised — see :meth:`SegmentReader.open`.
    """


def _inflate(comp: bytes, limit: int) -> Optional[bytes]:
    """``comp`` inflated, or None unless it is one complete zlib stream of
    at most ``limit`` bytes with no input left over.  Output stops at
    ``limit + 1`` bytes, so a block that inflates far past what its
    header states costs no more than that to reject."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(comp, limit + 1)
    except zlib.error:
        return None
    if len(raw) > limit or not inflater.eof or inflater.unused_data:
        return None
    return raw


# --------------------------------------------------------------------------
# record codec


def encode_record(record: Record) -> bytes:
    """One log record as its epoch and op code, then each field as a
    length-prefixed UTF-8 string; inverse of :func:`decode_records`."""
    epoch, code = record[0], record[1]
    parts = [_RECORD_HEAD.pack(epoch, code)]
    if code == ADD_DOCUMENT_CODE:
        fields = [getattr(record[2], name) for name in _DOC_FIELDS]
    else:
        fields = record[2:]
    for value in fields:
        raw = value.encode("utf-8")
        parts.append(_FIELD_LENGTH.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_records(payload: bytes, count: int, where: str) -> List[Record]:
    """Decode one record block's payload into log records (a triple's
    ``(epoch, code, subject, predicate, object)``, a document's ``(epoch,
    ADD_DOCUMENT_CODE, Document)``); inverse of :func:`encode_record`.

    One pass over ``payload``: a triple record's three fields are read in
    line, each a length then a ``bytes`` slice decoded on the spot, so a
    damaged record raises the same error at the same field as a
    field-by-field reader would.
    """
    records: List[Record] = []
    append = records.append
    unpack_head, unpack_length = _RECORD_HEAD.unpack_from, _FIELD_LENGTH.unpack_from
    head_size, op_names = _RECORD_HEAD.size, OP_NAMES
    overrun = f"{where}: record overruns block"
    offset = 0
    limit = len(payload)
    try:
        for _ in range(count):
            epoch, code = unpack_head(payload, offset)
            offset += head_size
            if code not in op_names:
                raise CorruptSegmentError(f"{where}: unknown op code {code}")
            if code == ADD_DOCUMENT_CODE:
                fields: List[str] = []
                for _ in _DOC_FIELDS:
                    (length,) = unpack_length(payload, offset)
                    start = offset + 4
                    offset = start + length
                    if offset > limit:
                        raise CorruptSegmentError(overrun)
                    fields.append(payload[start:offset].decode("utf-8"))
                append((epoch, code, Document(**dict(zip(_DOC_FIELDS, fields)))))
                continue
            # A triple: its three fields unrolled.
            (length,) = unpack_length(payload, offset)
            start = offset + 4
            offset = start + length
            if offset > limit:
                raise CorruptSegmentError(overrun)
            subject = payload[start:offset].decode("utf-8")
            (length,) = unpack_length(payload, offset)
            start = offset + 4
            offset = start + length
            if offset > limit:
                raise CorruptSegmentError(overrun)
            predicate = payload[start:offset].decode("utf-8")
            (length,) = unpack_length(payload, offset)
            start = offset + 4
            offset = start + length
            if offset > limit:
                raise CorruptSegmentError(overrun)
            append((epoch, code, subject, predicate, payload[start:offset].decode("utf-8")))
    except struct.error as exc:
        raise CorruptSegmentError(f"{where}: truncated record ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise CorruptSegmentError(f"{where}: record field is not UTF-8 ({exc})") from exc
    if offset != limit:
        raise CorruptSegmentError(f"{where}: {limit - offset} trailing bytes in block")
    return records


# --------------------------------------------------------------------------
# checkpoint payloads


@dataclass
class StoreState:
    """Materialised store state carried by one checkpoint block.

    ``graph_core`` is :meth:`KnowledgeGraph.core_state` output — the
    interned name tables and edge lists, the graph's whole state — so
    restoring adopts containers instead of re-applying triples.
    """

    epoch: int
    graph_core: Dict[str, object]
    documents: List[Document]
    removed_since_reintern: int

    def restore(self) -> StoreSnapshot:
        """Materialise the graph and corpus (the graph adopts the core)."""
        corpus = Corpus()
        for document in self.documents:
            corpus.add(document)
        return StoreSnapshot(
            self.epoch, KnowledgeGraph.from_core_state(self.graph_core), corpus,
            self.removed_since_reintern,
        )


class _CheckpointUnpickler(pickle.Unpickler):
    """Checkpoints are builtin containers plus :class:`Document`: refuse
    to import anything else a pickle stream names."""

    def find_class(self, module: str, name: str):
        if (module, name) == (Document.__module__, Document.__qualname__):
            return Document
        raise CorruptSegmentError(
            f"checkpoint pickle references {module}.{name}; only "
            f"{Document.__module__}.{Document.__qualname__} is admitted"
        )


def _unpickle_checkpoint(payload: bytes) -> Dict[str, object]:
    return _CheckpointUnpickler(io.BytesIO(payload)).load()


# --------------------------------------------------------------------------
# block index


@dataclass(frozen=True)
class BlockInfo:
    """Footer-index entry locating one block inside the segment file."""

    kind: int
    offset: int
    flags: int
    count: int
    raw_len: int
    comp_len: int
    crc: int
    first_epoch: int
    last_epoch: int

    @property
    def continues(self) -> bool:
        return bool(self.flags & FLAG_CONTINUES)

    def to_json(self) -> List[int]:
        return [
            self.kind, self.offset, self.flags, self.count, self.raw_len,
            self.comp_len, self.crc, self.first_epoch, self.last_epoch,
        ]

    @staticmethod
    def from_json(row: Sequence[int]) -> "BlockInfo":
        return BlockInfo(*row)


class PageCache:
    """LRU cache of up to :data:`PAGE_CACHE_BLOCKS` decoded record blocks,
    keyed by file offset.

    One entry is one block's list of log records
    (:data:`~repro.store.log.Record`, as :func:`decode_records` made
    them) — the unit a historical snapshot or suffix replay touches and
    applies as it is.  Thread-safe: replica stores forked off one segment
    share a single reader and cache.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._pages: "OrderedDict[int, List[Record]]" = OrderedDict()

    def get(self, offset: int) -> Optional[List[Record]]:
        with self._lock:
            page = self._pages.get(offset)
            if page is None:
                self.misses += 1
                return None
            self._pages.move_to_end(offset)
            self.hits += 1
            return page

    def put(self, offset: int, page: List[Record]) -> None:
        with self._lock:
            self._pages[offset] = page
            self._pages.move_to_end(offset)
            while len(self._pages) > PAGE_CACHE_BLOCKS:
                self._pages.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident": len(self._pages),
                "capacity": PAGE_CACHE_BLOCKS,
            }


# --------------------------------------------------------------------------
# writer


class SegmentWriter:
    """Streams batches and checkpoints into a crash-atomic segment file.

    Use as a context manager; the target path is only replaced on a clean
    :meth:`close` (the ``atomic_write`` contract), so an interrupted save
    leaves any previous segment intact.
    """

    def __init__(self, path: str, floor_epoch: int = 0) -> None:
        self.path = path
        self.blocks: List[BlockInfo] = []
        self._tmp_path = f"{path}.tmp.{os.getpid()}"
        self._handle = open(self._tmp_path, "wb")
        # Each buffered record's epoch and encoded bytes.
        self._buffer: List[Tuple[int, bytes]] = []
        self._buffer_bytes = 0
        self._closed = False
        header = {"version": 2, "floor_epoch": floor_epoch}
        header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
        self._handle.write(SEGMENT_MAGIC)
        self._handle.write(struct.pack("<II", len(header_raw), zlib.crc32(header_raw)))
        self._handle.write(header_raw)

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- appending -----------------------------------------------------------

    def append_batch(self, records: Sequence[Record]) -> None:
        """Encode and buffer log records, in epoch order, cutting blocks as
        the size threshold passes.

        A block boundary may fall inside a batch; the earlier block then
        carries :data:`FLAG_CONTINUES` so crash recovery can tell a
        complete batch from one whose tail was lost.  The threshold is
        checked per record, so the buffer holds at most one block and one
        record whatever the call's length; a cut waits for the next record
        so its flag sees that record's epoch.
        """
        for record in records:
            full = self._buffer_bytes >= BLOCK_SIZE
            raw = encode_record(record)
            self._buffer.append((record[0], raw))
            self._buffer_bytes += len(raw)
            if full:
                self._flush_records(partial_ok=True)
        if self._buffer_bytes >= BLOCK_SIZE:
            self._flush_records(partial_ok=True)

    def checkpoint(self, state: StoreState) -> None:
        """Write one checkpoint block carrying ``state`` at its epoch."""
        self._flush_records(partial_ok=False)
        payload = pickle.dumps(
            {
                "epoch": state.epoch,
                "graph_core": state.graph_core,
                "documents": state.documents,
                "removed_since_reintern": state.removed_since_reintern,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._write_block(
            BLOCK_CHECKPOINT, 0, 0, payload, state.epoch, state.epoch,
            compression_level=1,  # pickled ints: favour speed
        )

    def copy_raw_block(self, info: BlockInfo, payload: bytes) -> None:
        """Append one already-compressed block verbatim (incremental save)."""
        self._flush_records(partial_ok=False)
        offset = self._handle.tell()
        self._handle.write(
            _BLOCK_HEADER.pack(
                info.kind, info.flags, info.count, info.raw_len, len(payload), info.crc
            )
        )
        self._handle.write(payload)
        self.blocks.append(
            BlockInfo(
                info.kind, offset, info.flags, info.count, info.raw_len,
                len(payload), info.crc, info.first_epoch, info.last_epoch,
            )
        )

    # -- internals -----------------------------------------------------------

    def _flush_records(self, partial_ok: bool) -> None:
        if not self._buffer:
            return
        if partial_ok and self._buffer_bytes > BLOCK_SIZE:
            # Cut at the record whose encoded bytes cross the threshold.
            size = 0
            cut = 0
            for _, raw in self._buffer:
                size += len(raw)
                cut += 1
                if size >= BLOCK_SIZE:
                    break
        else:
            cut = len(self._buffer)
        chunk = self._buffer[:cut]
        self._buffer = self._buffer[cut:]
        flags = 0
        if self._buffer and self._buffer[0][0] == chunk[-1][0]:
            flags |= FLAG_CONTINUES
        payload = b"".join([raw for _, raw in chunk])
        self._buffer_bytes -= len(payload)
        self._write_block(
            BLOCK_RECORDS, flags, len(chunk), payload, chunk[0][0], chunk[-1][0]
        )

    def _write_block(
        self,
        kind: int,
        flags: int,
        count: int,
        payload: bytes,
        first_epoch: int,
        last_epoch: int,
        compression_level: Optional[int] = None,
    ) -> None:
        level = COMPRESSION_LEVEL if compression_level is None else compression_level
        comp = zlib.compress(payload, level)
        crc = zlib.crc32(comp)
        offset = self._handle.tell()
        self._handle.write(
            _BLOCK_HEADER.pack(kind, flags, count, len(payload), len(comp), crc)
        )
        self._handle.write(comp)
        self.blocks.append(
            BlockInfo(
                kind, offset, flags, count, len(payload), len(comp), crc,
                first_epoch, last_epoch,
            )
        )

    def close(self) -> None:
        """Flush, write the footer index, fsync, and atomically replace.

        Any failure before the final rename (a full disk, a dying process'
        fsync) removes the temp file and leaves the previous segment at
        ``path`` untouched — the same contract as :func:`atomic_write`.
        """
        if self._closed:
            return
        try:
            self._flush_records(partial_ok=False)
            footer_raw = zlib.compress(
                json.dumps(
                    {"blocks": [block.to_json() for block in self.blocks]},
                    separators=(",", ":"),
                ).encode("utf-8"),
                6,
            )
            self._handle.write(footer_raw)
            self._handle.write(
                _FOOTER_TAIL.pack(len(footer_raw), zlib.crc32(footer_raw), _END_MAGIC)
            )
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp_path, self.path)
        except BaseException:
            self.abort()
            raise
        self._closed = True

    def abort(self) -> None:
        """Drop the temp file without touching the target path."""
        if self._closed:
            return
        self._closed = True
        self._handle.close()
        if os.path.exists(self._tmp_path):
            os.remove(self._tmp_path)


# --------------------------------------------------------------------------
# reader


class SegmentReader:
    """Random access over one segment file through the page cache."""

    def __init__(
        self, path: str, floor_epoch: int, blocks: List[BlockInfo], recovered: bool
    ) -> None:
        self.path = path
        self.floor_epoch = floor_epoch
        self.blocks = blocks
        #: True when the footer was lost and the index was rebuilt by a
        #: forward CRC scan (crash recovery path).
        self.recovered = recovered
        self.page_cache = PageCache()
        #: Blocks whose on-disk record count no longer matches the logical
        #: view (a recovered torn batch was trimmed): pinned outside the
        #: LRU so eviction can never resurrect the dropped records.
        self._pinned_pages: Dict[int, List[Record]] = {}
        self._lock = threading.Lock()
        self._handle = open(path, "rb")
        weakref.finalize(self, self._handle.close)  # a store reads it for life
        self.record_blocks = [b for b in blocks if b.kind == BLOCK_RECORDS]
        self.checkpoints = [b for b in blocks if b.kind == BLOCK_CHECKPOINT]
        self.record_count = sum(b.count for b in self.record_blocks)

    # -- construction --------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> "SegmentReader":
        """Open a segment: footer-indexed fast path, scan recovery fallback.

        Raises :class:`CorruptSegmentError` when even the header is
        unreadable, or :func:`~repro.store.log.read_header` refuses it;
        a valid header with a damaged tail recovers the longest valid
        batch prefix instead (``reader.recovered``).
        """
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            magic = handle.read(len(SEGMENT_MAGIC))
            if magic != SEGMENT_MAGIC:
                raise CorruptSegmentError(
                    f"{path}: not a segment file (bad magic); if it is a JSONL "
                    "log, import it with `convert`"
                )
            head = handle.read(8)
            if len(head) != 8:
                raise CorruptSegmentError(f"{path}: truncated header")
            header_len, header_crc = struct.unpack("<II", head)
            header_raw = handle.read(header_len)
            if len(header_raw) != header_len or zlib.crc32(header_raw) != header_crc:
                raise CorruptSegmentError(f"{path}: header failed its CRC check")
            try:
                header = decode_line(header_raw, f"{path}: header")
                (floor,) = read_header(header, path, 2, "floor_epoch")
            except ValueError as exc:
                raise CorruptSegmentError(str(exc)) from exc
            data_start = handle.tell()
            blocks = cls._read_footer(handle, path, data_start, size)
            recovered = blocks is None
            if blocks is None:
                blocks = cls._scan_blocks(handle, path, data_start, size)
        reader = cls(path, floor, blocks, recovered)
        reader._validate_index()
        return reader

    @staticmethod
    def _read_footer(
        handle: io.BufferedReader, path: str, data_start: int, size: int
    ) -> Optional[List[BlockInfo]]:
        """The footer's block index, or None when it needs scan recovery."""
        tail_size = _FOOTER_TAIL.size
        if size < data_start + tail_size:
            return None
        handle.seek(size - tail_size)
        footer_len, footer_crc, magic = _FOOTER_TAIL.unpack(handle.read(tail_size))
        if magic != _END_MAGIC:
            return None
        footer_start = size - tail_size - footer_len
        if footer_start < data_start:
            return None
        handle.seek(footer_start)
        footer_raw = handle.read(footer_len)
        if zlib.crc32(footer_raw) != footer_crc:
            return None
        index = _inflate(footer_raw, _FOOTER_MAX_RAW)
        if index is None:
            return None
        try:
            # ``decode_line`` maps nesting too deep to decode to ValueError.
            rows = decode_line(index, f"{path}: footer")["blocks"]
            blocks = [BlockInfo.from_json(row) for row in rows]
        except (KeyError, TypeError, ValueError):
            return None
        if not all(type(value) is int for row in rows for value in row):
            return None
        # A CRC proves the footer intact, not honest: trust it only when
        # each row fits a block header and the blocks lie end to end over
        # exactly the data region.
        end = data_start
        for block in blocks:
            try:
                _BLOCK_HEADER.pack(
                    block.kind, block.flags, block.count, block.raw_len,
                    block.comp_len, block.crc,
                )
            except struct.error:
                return None
            if block.kind not in _BLOCK_KINDS or block.offset != end:
                return None
            end = block.offset + _BLOCK_HEADER.size + block.comp_len
        return blocks if end == footer_start else None

    @staticmethod
    def _scan_blocks(
        handle: io.BufferedReader, path: str, data_start: int, size: int
    ) -> List[BlockInfo]:
        """Forward CRC scan: index every intact block, stop at damage.

        Every block before the damage point is kept; the damaged tail is
        logically truncated.  When the last intact block's final batch
        continued into the lost tail, the partial batch is dropped later
        by :meth:`_validate_index` via the ``continues`` flag.
        """
        blocks: List[BlockInfo] = []
        offset = data_start
        handle.seek(data_start)
        while offset + _BLOCK_HEADER.size <= size:
            head = handle.read(_BLOCK_HEADER.size)
            if len(head) != _BLOCK_HEADER.size:
                break
            kind, flags, count, raw_len, comp_len, crc = _BLOCK_HEADER.unpack(head)
            if kind not in _BLOCK_KINDS:
                break
            if offset + _BLOCK_HEADER.size + comp_len > size:
                break  # torn final block
            comp = handle.read(comp_len)
            if zlib.crc32(comp) != crc:
                break
            payload = _inflate(comp, raw_len)
            if payload is None or len(payload) != raw_len:
                break
            first = last = 0
            if kind == BLOCK_RECORDS:
                try:
                    records = decode_records(payload, count, f"{path}@{offset}")
                except CorruptSegmentError:
                    break
                if not records:
                    break
                first, last = records[0][0], records[-1][0]
            else:
                try:
                    first = last = int(_unpickle_checkpoint(payload)["epoch"])
                except CorruptSegmentError:
                    raise  # a forbidden global is an attack, not a torn tail
                except Exception:
                    break
            blocks.append(
                BlockInfo(kind, offset, flags, count, raw_len, comp_len, crc, first, last)
            )
            offset = handle.tell()
        return blocks

    def _validate_index(self) -> None:
        """Require epoch-contiguous record blocks; drop a recovered partial batch.

        A block starts at the previous block's last epoch when that block
        ``continues``, else one above it; the first starts at the floor or
        one above it.  A CRC proves a footer intact, not honest: a row that
        misplaces a block no bounded seek decodes is caught here, in
        O(blocks) and decoding nothing (a decoded block's range is checked
        against its records by :meth:`_block_records`).
        """
        if self.recovered and self.record_blocks:
            final = self.record_blocks[-1]
            if final.continues:
                # The final batch continued into the lost tail: drop its
                # records (they are a half-applied batch) by truncating the
                # index at epoch granularity during reads.
                self._drop_trailing_epoch(final.last_epoch)
        starts = (self.floor_epoch, self.floor_epoch + 1)
        for block in self.record_blocks:
            if block.first_epoch not in starts:
                raise CorruptSegmentError(
                    f"{self.path}@{block.offset}: block epochs "
                    f"[{block.first_epoch}, {block.last_epoch}] do not start at "
                    f"{' or '.join(map(str, starts))}"
                )
            if block.last_epoch < block.first_epoch:
                raise CorruptSegmentError(
                    f"{self.path}@{block.offset}: inverted block epoch range"
                )
            starts = (block.last_epoch if block.continues else block.last_epoch + 1,)

    def _drop_trailing_epoch(self, epoch: int) -> None:
        """Remove all trailing records at ``epoch`` (a torn batch) from view."""
        kept: List[BlockInfo] = []
        for block in self.record_blocks:
            if block.first_epoch >= epoch:
                continue
            if block.last_epoch >= epoch:
                records = [r for r in self._block_records(block) if r[0] < epoch]
                trimmed = BlockInfo(
                    block.kind, block.offset, 0, len(records), block.raw_len,
                    block.comp_len, block.crc, records[0][0] if records else 0,
                    records[-1][0] if records else 0,
                )
                if records:
                    self._pinned_pages[block.offset] = records
                    kept.append(trimmed)
                continue
            kept.append(block)
        self.record_blocks = kept
        self.checkpoints = [b for b in self.checkpoints if b.first_epoch < epoch]
        self.blocks = sorted(
            self.record_blocks + self.checkpoints, key=lambda b: b.offset
        )
        self.record_count = sum(b.count for b in self.record_blocks)

    # -- access --------------------------------------------------------------

    @property
    def max_epoch(self) -> int:
        return (
            self.record_blocks[-1].last_epoch if self.record_blocks else self.floor_epoch
        )

    def _read_payload(self, block: BlockInfo) -> bytes:
        payload = _inflate(self.read_raw_block(block), block.raw_len)
        if payload is None or len(payload) != block.raw_len:
            raise CorruptSegmentError(
                f"{self.path}@{block.offset}: block does not inflate to its "
                f"stated {block.raw_len} bytes"
            )
        return payload

    def read_raw_block(self, block: BlockInfo) -> bytes:
        """One block's still-compressed payload, CRC-checked — for the
        incremental save path, which copies blocks verbatim."""
        with self._lock:
            self._handle.seek(block.offset + _BLOCK_HEADER.size)
            comp = self._handle.read(block.comp_len)
        if len(comp) != block.comp_len or zlib.crc32(comp) != block.crc:
            raise CorruptSegmentError(
                f"{self.path}@{block.offset}: block failed its CRC check"
            )
        return comp

    def _block_records(self, block: BlockInfo) -> List[Record]:
        """One block's decoded records, through the page cache."""
        pinned = self._pinned_pages.get(block.offset)
        if pinned is not None:
            return pinned
        page = self.page_cache.get(block.offset)
        if page is not None:
            return page
        payload = self._read_payload(block)
        page = decode_records(payload, block.count, f"{self.path}@{block.offset}")
        if not page or (page[0][0], page[-1][0]) != (block.first_epoch, block.last_epoch):
            raise CorruptSegmentError(
                f"{self.path}@{block.offset}: records do not span the indexed "
                f"epochs [{block.first_epoch}, {block.last_epoch}]"
            )
        self.page_cache.put(block.offset, page)
        return page

    def records(
        self, after: Optional[int] = None, upto: Optional[int] = None
    ) -> Iterator[Record]:
        """Records with ``after < epoch <= upto``, seeking past whole
        blocks: the cached pages' own tuples."""
        for block in self.record_blocks:
            if after is not None and block.last_epoch <= after:
                continue
            if upto is not None and block.first_epoch > upto:
                break
            yield from epoch_window(self._block_records(block), after, upto)

    def latest_checkpoint(self, upto: Optional[int] = None) -> Optional[BlockInfo]:
        """The newest checkpoint block at or below ``upto`` (None: any)."""
        best: Optional[BlockInfo] = None
        for block in self.checkpoints:
            if upto is not None and block.first_epoch > upto:
                continue
            if best is None or block.first_epoch > best.first_epoch:
                best = block
        return best

    def load_checkpoint(self, block: BlockInfo) -> StoreState:
        """Deserialise one checkpoint block into a :class:`StoreState`."""
        payload = self._read_payload(block)
        try:
            state = _unpickle_checkpoint(payload)
            epoch = int(state["epoch"])
            if epoch != block.first_epoch:
                raise CorruptSegmentError(
                    f"{self.path}@{block.offset}: checkpoint holds epoch {epoch}, "
                    f"indexed at {block.first_epoch}"
                )
            graph_core = state["graph_core"]
            tables = [graph_core[key] for key in ("node_names", "pred_names", "out", "in")]
            names, preds, out, in_ = tables
            if not all(type(table) is list for table in tables) or not (
                len(names) == len(out) == len(in_)
            ):
                raise CorruptSegmentError(
                    f"{self.path}@{block.offset}: checkpoint graph core is not four "
                    f"lists with one out and one in edge list per node name"
                )
            if max(len(names), len(preds)) > 1 << 32:
                # An edge packs each id into 32 bits.
                raise CorruptSegmentError(
                    f"{self.path}@{block.offset}: checkpoint graph core names more "
                    f"than 2**32 nodes or predicates"
                )
            return StoreState(
                epoch=epoch,
                graph_core=graph_core,
                documents=list(state["documents"]),
                removed_since_reintern=int(state["removed_since_reintern"]),
            )
        except CorruptSegmentError:
            raise
        except Exception as exc:
            raise CorruptSegmentError(
                f"{self.path}@{block.offset}: checkpoint does not deserialise ({exc})"
            ) from exc

    def close(self) -> None:
        self._handle.close()


# --------------------------------------------------------------------------
# segment-backed mutation log


class SegmentBackedLog(MutationLog):
    """A :class:`MutationLog` whose history lives in a segment file.

    Disk records are decoded lazily through the reader's page cache; the
    inherited in-memory record list is only the *tail* — batches appended
    since the segment was opened — until the next save rewrites the
    segment (the incremental save path copies the existing compressed
    blocks verbatim and only encodes the tail).
    """

    def __init__(self, reader: SegmentReader, tail: Sequence[Record] = ()) -> None:
        super().__init__(floor_epoch=reader.floor_epoch)
        self.reader = reader
        self._records = list(tail)

    def __len__(self) -> int:
        return self.reader.record_count + len(self._records)

    @property
    def max_epoch(self) -> int:
        if self._records:
            return self._records[-1][0]
        return self.reader.max_epoch

    def records(
        self, after: Optional[int] = None, upto: Optional[int] = None
    ) -> Iterator[Record]:
        yield from self.reader.records(after=after, upto=upto)
        yield from super().records(after=after, upto=upto)

    def replay_base(self, upto: Optional[int] = None) -> Optional[StoreSnapshot]:
        """The newest checkpoint state at or below ``upto``, decoded, for
        seeking.

        ``VersionedKnowledgeStore.replay`` seeds from this instead of
        replaying from zero, then applies only ``(base.epoch, upto]``; the
        caller owns the decode.
        """
        checkpoint = self.reader.latest_checkpoint(upto=upto)
        if checkpoint is None:
            return None
        return self.reader.load_checkpoint(checkpoint).restore()

    def base_epoch(self, upto: Optional[int] = None) -> int:
        checkpoint = self.reader.latest_checkpoint(upto=upto)
        return self.floor_epoch if checkpoint is None else checkpoint.first_epoch

    def fork(self) -> "SegmentBackedLog":
        """A twin sharing the reader (and page cache) with its own tail.

        Replica bootstrap replays the primary's log; forking keeps the
        disk history shared-read while each copy appends independently.
        """
        return SegmentBackedLog(self.reader, tail=self._records)
