"""Asynchronous geo-tier replication: durable outbound queues + edge sync.

PR 5's :class:`~repro.store.sharding.ReplicaGroup` keeps replicas in
lockstep — every write pays the slowest copy.  This module is the
*asynchronous* tier modeled on multi-branch enterprise sync over durable
message queues (arXiv:0912.2134): the primary fleet appends every applied
batch to a per-shard :class:`OutboundQueue`, and **edge** replica sets
subscribe and apply those batches at their own pace.  Consistency is
tracked, not enforced:

* each queue record is an ``(epoch, batch)`` pair mirroring the owning
  shard's dense monotonic epochs, so an edge's applied epoch *is* its
  watermark — replaying an edge's own log after a crash resumes exactly
  where it stopped, and :meth:`OutboundQueue.pending_after` can never
  skip or double-apply a batch;
* edges report applied-epoch **watermarks** back to the primary via
  :meth:`OutboundQueue.ack`; the serving tier reads those reported
  watermarks to route read-your-writes sessions and to stamp visible
  staleness on edge-served responses;
* queues are durable when given a path, and *written* is not *durable*:
  enqueues and acks append flushed JSON lines, :meth:`OutboundQueue.commit`
  fsyncs them, and a batch ships only once a commit covers it, so no edge
  gets what a primary restart could lose.  An ack never syncs alone: a
  restart that loses it finds a watermark behind, the safe side
  everywhere.  A torn final line from a crash is cut off on load;
* a cold edge **bootstraps** from a snapshot: the primary shard logs are
  replayed to their heads (deterministic replay makes the copy
  byte-identical by construction), the watermark starts there, and the
  queue replays only what is enqueued afterwards.

Convergence is provable: once every queue drains, each edge's per-shard
``state_digest`` is byte-identical to the primary's
(:meth:`GeoReplicator.verify_converged`).
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .log import Mutation, atomic_write, decode_line, mutation_at, read_header
from .sharding import ReplicaDivergedError, ShardedStore
from .store import VersionedKnowledgeStore

__all__ = ["EdgeReplica", "GeoReplicator", "OutboundQueue", "sync_and_close"]


def sync_and_close(fd: int) -> None:
    """fsync and close a descriptor :meth:`OutboundQueue.committing` handed
    out: all of a commit that may leave the caller's thread."""
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class OutboundQueue:
    """One shard's durable outbound replication queue with watermark acks.

    Batches enter at the epoch the primary applied them, and the epochs
    are **dense**: batch *n* of the queue is epoch ``floor_epoch + n``,
    enforced by :meth:`enqueue`, so a batch lost on its way here is
    noticed at the next one instead of at an edge.  Each subscribed edge
    has a **watermark**: the highest epoch it has acknowledged applying.
    :meth:`pending_after` answers the suffix an edge still owes (a slice —
    its cost is the batches returned, not the batches queued), so a
    consumer that acks after every applied batch resumes exactly at its
    watermark after a crash.

    ``floor_epoch`` is the epoch the queue started recording at (the
    primary's epoch when the queue was created): batches at or below the
    floor predate the queue and must come from a snapshot bootstrap
    instead (:meth:`GeoReplicator.add_edge`).

    With ``path`` set the queue is durable: every enqueue and ack appends
    one flushed JSON line and :meth:`commit` fsyncs what has been written;
    :meth:`pending_after` never answers above ``durable_epoch``, the newest
    batch a commit covers.  ``enqueue`` commits before it returns while
    ``autocommit`` is set (a started router clears it and commits off the
    event loop before it acknowledges the write), ``register`` always; an
    ``ack`` is durable with the file's next commit (``commit``, ``close``,
    ``truncate``) and losing it costs a redundant report.  Without a path a
    batch is durable at ``enqueue``.  :meth:`load` cuts off a torn final
    line (the crash contract of an append-only log), acks replay last-wins.
    """

    def __init__(
        self, shard_index: int = 0, floor_epoch: int = 0, path: Optional[str] = None
    ) -> None:
        if floor_epoch < 0:
            raise ValueError("floor_epoch must be >= 0")
        self.shard_index = shard_index
        #: Epochs at or below this predate the queue (snapshot territory).
        self.floor_epoch = floor_epoch
        #: ``_batches[i]`` is the batch applied at epoch ``floor_epoch + 1 + i``.
        self._batches: List[Tuple[Mutation, ...]] = []
        self._watermarks: Dict[str, int] = {}
        #: The newest batch a finished commit covers; nothing above ships.
        self.durable_epoch = floor_epoch
        self.autocommit = True
        self._path = path
        self._handle = None
        # Records appended, and how many of them a finished sync covers.
        self._written = self._synced = 0
        if path is not None and not os.path.exists(path):
            self._append(self._header())
            self.commit()

    # ------------------------------------------------------------- properties

    @property
    def max_epoch(self) -> int:
        """The newest enqueued batch's epoch (the primary's shard epoch)."""
        return self.floor_epoch + len(self._batches)

    @property
    def watermarks(self) -> Dict[str, int]:
        """Reported applied-epoch watermark per edge (a copy)."""
        return dict(self._watermarks)

    def watermark(self, edge: str) -> int:
        """``edge``'s reported watermark (its registration epoch before any
        ack; raises :class:`KeyError` for an unregistered edge)."""
        return self._watermarks[edge]

    def depth(self, edge: str) -> int:
        """Batches enqueued but not yet acknowledged by ``edge``."""
        return max(self.max_epoch - self.watermark(edge), 0)

    # ------------------------------------------------------------- producing

    def enqueue(self, epoch: int, mutations: Sequence[Mutation]) -> bool:
        """Record one applied batch; returns whether it was new.

        Idempotent on a queued ``epoch``: with replicated primaries every
        store copy reports the same batch at the same epoch, and only the
        first report is recorded.  Anything else but the next epoch — a
        gap above the newest batch, or an epoch at or below the floor —
        raises :class:`ValueError`: a batch went missing between the
        store and the queue, and no edge could ever be caught up past it.
        """
        if self.floor_epoch < epoch <= self.max_epoch:
            return False
        if epoch != self.max_epoch + 1:
            raise ValueError(
                f"epoch {epoch} breaks shard {self.shard_index}'s dense queue "
                f"(floor {self.floor_epoch}, newest {self.max_epoch})"
            )
        batch = tuple(mutations)
        self._batches.append(batch)
        self._append(self._batch_record(epoch, batch))
        if self.autocommit or self._path is None:
            self.commit()
        return True

    # ------------------------------------------------------------- consuming

    def pending_after(
        self, watermark: int, limit: Optional[int] = None
    ) -> List[Tuple[int, Sequence[Mutation]]]:
        """The *durable* ``(epoch, batch)`` suffix strictly above ``watermark``.

        Epoch order, at most ``limit`` batches when set, none above
        ``durable_epoch``.  Raises
        :class:`ValueError` when ``watermark`` is below the queue floor —
        those batches predate the queue, so replaying from it would
        silently skip history (a bootstrap must supply them instead).
        """
        if watermark < self.floor_epoch:
            raise ValueError(
                f"watermark {watermark} is below the queue floor "
                f"{self.floor_epoch}; bootstrap from a snapshot first"
            )
        start = watermark - self.floor_epoch
        stop = self.durable_epoch - self.floor_epoch
        if limit is not None:
            stop = min(stop, start + limit)
        return list(enumerate(self._batches[start:stop], start=watermark + 1))

    def register(self, edge: str, watermark: int) -> None:
        """Start tracking ``edge`` at ``watermark`` (its bootstrap epoch)."""
        if edge in self._watermarks:
            raise ValueError(f"edge {edge!r} is already registered")
        self._watermarks[edge] = watermark
        self._append({"kind": "ack", "edge": edge, "epoch": watermark})
        self.commit()  # a lost registration lets truncate() drop owed batches

    def ack(self, edge: str, epoch: int) -> None:
        """Record ``edge``'s applied-epoch watermark (monotonic, last-wins).

        A stale ack (an epoch at or below the current watermark) is a
        no-op: watermarks only advance.  Durable with the next commit.
        """
        current = self._watermarks.get(edge)
        if current is not None and epoch <= current:
            return
        self._watermarks[edge] = epoch
        self._append({"kind": "ack", "edge": edge, "epoch": epoch})

    def truncate(self) -> int:
        """Drop batches every registered edge has acknowledged; returns the
        number dropped.  The floor rises to the lowest watermark, so a
        *future* edge must bootstrap at or above it.  No-op without
        registered edges (nothing is provably shipped yet)."""
        if not self._watermarks:
            return 0
        low = min(self._watermarks.values())
        if low <= self.floor_epoch:
            return 0
        dropped = min(low - self.floor_epoch, len(self._batches))
        del self._batches[:dropped]
        self.floor_epoch = low
        self._rewrite()
        return dropped

    # ------------------------------------------------------------- durability

    def _append(self, record: Dict[str, object]) -> None:
        if self._path is None:
            return
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._written += 1

    @contextlib.contextmanager
    def committing(self) -> Iterator[Optional[int]]:
        """The one commit, its fsync left to the caller: yields a descriptor
        for :func:`sync_and_close` (``None`` when a finished sync covers
        every record) and, on a clean exit, makes what was written *before
        entry* durable.  All queue state changes here, on the caller's
        thread; an error leaves it for the next commit."""
        written, target = self._written, self.max_epoch
        yield os.dup(self._handle.fileno()) if written > self._synced else None
        self._synced = max(self._synced, written)
        self.durable_epoch = max(self.durable_epoch, target)

    def commit(self) -> None:
        """fsync every record written so far; advances ``durable_epoch``."""
        with self.committing() as fd:
            if fd is not None:
                sync_and_close(fd)

    def _header(self) -> Dict[str, object]:
        return {
            "kind": "header",
            "version": 1,
            "shard": self.shard_index,
            "floor_epoch": self.floor_epoch,
        }

    @staticmethod
    def _batch_record(epoch: int, batch: Sequence[Mutation]) -> Dict[str, object]:
        return {
            "kind": "batch",
            "epoch": epoch,
            "mutations": [mutation.to_json() for mutation in batch],
        }

    def _rewrite(self) -> None:
        """Compact the durable file after :meth:`truncate` (atomic replace)."""
        if self._path is None:
            return
        self.close()
        records = [self._header()]
        records += [
            self._batch_record(epoch, batch)
            for epoch, batch in enumerate(self._batches, start=self.floor_epoch + 1)
        ]
        records += [
            {"kind": "ack", "edge": edge, "epoch": epoch}
            for edge, epoch in sorted(self._watermarks.items())
        ]
        with atomic_write(self._path) as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._synced, self.durable_epoch = self._written, self.max_epoch

    def close(self) -> None:
        """Commit; release the append handle (the queue stays usable)."""
        if self._handle is not None:
            self.commit()
            self._handle.close()
            self._handle = None

    @classmethod
    def load(cls, path: str, shard_index: int = 0) -> "OutboundQueue":
        """Rebuild a durable queue from its append-only file.

        Batches and acks replay in file order (acks last-wins); a torn
        final line — the only damage an fsynced append-only log can take:
        one that lacks its newline, or that :func:`decode_line` refuses —
        is cut out of the file, so the next append starts a record of its
        own.  Any other bad line raises :class:`ValueError` naming its path
        and line: a line :func:`decode_line` refuses, a header past the
        first line, one :func:`read_header` refuses or of another shard
        than ``shard_index`` (a swapped file), and a record whose
        ``epoch``, ``edge`` or ``mutations`` is missing or mistyped or
        whose mutation :meth:`Mutation.from_json` refuses.
        """
        queue = cls(shard_index=shard_index)
        queue._path = path
        with open(path, "rb") as handle:
            lines = handle.readlines()
        first = True
        for number, raw in enumerate(lines, start=1):
            if raw.isspace():
                continue
            where = f"{path}:{number}"
            try:
                if not raw.endswith(b"\n"):
                    raise ValueError("the append never finished")
                record = decode_line(raw, where)
            except ValueError:
                if number < len(lines):
                    raise
                with open(path, "r+b") as handle:  # torn tail from a crash mid-append
                    handle.truncate(sum(map(len, lines[:-1])))
                    os.fsync(handle.fileno())
                break
            kind = record.get("kind")
            epoch = record.get("epoch")
            if kind == "header":
                if not first:
                    raise ValueError(f"{where}: a header after the first line")
                queue.floor_epoch, shard = read_header(record, where, 1, "floor_epoch", "shard")
                if shard != shard_index:
                    raise ValueError(f"{where}: header shard {shard} is not {shard_index}")
            elif kind in ("batch", "ack") and type(epoch) is not int:
                raise ValueError(f"{where}: {kind} record missing integer 'epoch'")
            elif kind == "batch":
                mutations = record.get("mutations")
                if not isinstance(mutations, list) or not all(
                    isinstance(mutation, dict) for mutation in mutations
                ):
                    raise ValueError(f"{where}: batch record missing a 'mutations' list")
                if epoch != queue.max_epoch + 1:
                    raise ValueError(
                        f"{where}: epoch {epoch} breaks the dense sequence "
                        f"(newest {queue.max_epoch})"
                    )
                queue._batches.append(tuple(mutation_at(m, where) for m in mutations))
            elif kind == "ack":
                edge = record.get("edge")
                if not isinstance(edge, str):
                    raise ValueError(f"{where}: ack record missing string 'edge'")
                queue._watermarks[edge] = max(epoch, queue._watermarks.get(edge, epoch))
            else:
                raise ValueError(f"{where}: unknown queue record {kind!r}")
            first = False
        queue.durable_epoch = queue.max_epoch
        return queue

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutboundQueue(shard={self.shard_index}, max_epoch={self.max_epoch}, "
            f"edges={sorted(self._watermarks)})"
        )


class EdgeReplica:
    """One edge site: per-shard store copies applying queued batches.

    The edge's **applied vector** is its per-shard store epochs — because
    shard epochs are dense and batches apply in epoch order, the applied
    epoch is the durable watermark (replaying the edge's own logs after a
    crash resumes exactly there; see :meth:`save` / :meth:`load`).
    """

    def __init__(self, name: str, stores: Sequence[VersionedKnowledgeStore]) -> None:
        if not stores:
            raise ValueError("an EdgeReplica needs at least one shard store")
        self.name = name
        self.stores: List[VersionedKnowledgeStore] = list(stores)

    @property
    def num_shards(self) -> int:
        return len(self.stores)

    @property
    def applied_vector(self) -> Tuple[int, ...]:
        """Per-shard applied epochs — the edge's true (durable) watermarks."""
        return tuple(store.epoch for store in self.stores)

    def save(self, prefix: str) -> List[str]:
        """Persist every shard copy as a fleet's files
        (:meth:`ShardedStore.save`) — the edge's durable state: reloading
        resumes at the applied watermarks."""
        return ShardedStore(self.stores).save(prefix)

    @classmethod
    def load(cls, name: str, prefix: str, num_shards: int) -> "EdgeReplica":
        """Reload a saved edge (:meth:`ShardedStore.load`); its applied
        vector is the resume point."""
        return cls(name, ShardedStore.load(prefix, num_shards, name=name).shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeReplica({self.name!r}, applied={self.applied_vector})"


class GeoReplicator:
    """Per-shard outbound queues plus the edge fleet draining them.

    Construction subscribes every primary shard store (and, via
    :meth:`wire_replicas`, every replica copy — enqueueing is idempotent
    on the epoch, so replicated primaries report each batch once): any
    apply path — :meth:`ShardedStore.apply`, a
    :class:`~repro.store.sharding.ReplicaGroup` ship, the serving tier's
    ingest — lands the batch in the owning shard's queue with no extra
    bookkeeping at the call sites.

    ``queue_dir`` makes the queues durable (one JSONL file per shard,
    named by :meth:`_queue_path`); pass the same directory to
    :meth:`resume` after a primary restart to recover queued-but-unshipped
    batches and the watermarks of the last commit.
    """

    def __init__(
        self,
        primary: ShardedStore,
        queue_dir: Optional[str] = None,
        queues: Optional[Sequence[OutboundQueue]] = None,
    ) -> None:
        self.primary = primary
        self.queue_dir = queue_dir
        if queues is not None:
            if len(queues) != primary.num_shards:
                raise ValueError(
                    f"{len(queues)} queues for {primary.num_shards} shards"
                )
            self.queues = list(queues)
        else:
            self.queues = [
                OutboundQueue(
                    shard_index=index,
                    floor_epoch=shard.epoch,
                    path=self._queue_path(queue_dir, index),
                )
                for index, shard in enumerate(primary.shards)
            ]
        self.edges: Dict[str, EdgeReplica] = {}
        self._subscribed: set = set()
        for index, shard in enumerate(primary.shards):
            self._subscribe(index, shard)

    @staticmethod
    def _queue_path(queue_dir: Optional[str], index: int) -> Optional[str]:
        """Shard ``index``'s durable queue file (``None`` without a directory)."""
        if queue_dir is None:
            return None
        os.makedirs(queue_dir, exist_ok=True)
        return os.path.join(queue_dir, f"queue.shard{index}.jsonl")

    @classmethod
    def resume(cls, primary: ShardedStore, queue_dir: str) -> "GeoReplicator":
        """Rebuild the replicator after a primary restart.

        Durable queue files in ``queue_dir`` are reloaded: every committed
        batch, and the watermarks as of the last commit — acks written
        since may be gone, so a watermark can trail what its edge applied
        until :meth:`adopt_edge` or the next drain re-reports it.  Missing
        files (a shard that never enqueued) start at the shard's epoch.

        A queue is only as durable as the primary it feeds: when a queue
        holds epochs *above* its shard's (the primary was restored from a
        save older than its last write), those batches belong to a
        timeline the primary no longer has, and the idempotent
        :meth:`OutboundQueue.enqueue` would silently drop the new batches
        that reuse their epochs.  That raises
        :class:`ReplicaDivergedError` here instead of shipping them.
        """
        queues = []
        for index, shard in enumerate(primary.shards):
            path = cls._queue_path(queue_dir, index)
            if not os.path.exists(path):
                queues.append(
                    OutboundQueue(shard_index=index, floor_epoch=shard.epoch, path=path)
                )
                continue
            queue = OutboundQueue.load(path, shard_index=index)
            if queue.max_epoch > shard.epoch:
                raise ReplicaDivergedError(
                    f"queue for shard {index} holds epoch {queue.max_epoch} but "
                    f"the primary resumed at epoch {shard.epoch}: the primary "
                    "was saved before its last write; restore a newer save or "
                    "re-bootstrap the edges"
                )
            queues.append(queue)
        return cls(primary, queue_dir=queue_dir, queues=queues)

    # ------------------------------------------------------------- wiring

    def _subscribe(self, index: int, store: VersionedKnowledgeStore) -> None:
        if id(store) in self._subscribed:
            return
        self._subscribed.add(id(store))
        queue = self.queues[index]

        def on_batch(epoch: int, mutations: Sequence[Mutation]) -> None:
            queue.enqueue(epoch, mutations)

        store.subscribe(on_batch)

    def wire_replicas(self, replica_groups: Sequence) -> None:
        """Also subscribe every replica store copy (kill-tolerant feed).

        With lockstep replica groups the primary copy can be killed while
        siblings keep applying; subscribing every copy (idempotent
        enqueue) keeps the queue fed by whichever copies stay live.
        """
        if len(replica_groups) != len(self.queues):
            raise ValueError(
                f"{len(replica_groups)} replica groups for {len(self.queues)} shards"
            )
        for index, group in enumerate(replica_groups):
            for store in group.stores:
                self._subscribe(index, store)

    # ------------------------------------------------------------- edges

    def add_edge(self, name: str) -> EdgeReplica:
        """Cold-bootstrap an edge: snapshot at the primary's heads, then
        catch up.

        Each shard is rebuilt by deterministic replay of the primary's
        whole log (the snapshot transfer — byte-identical by
        construction), the edge's watermarks register at the epochs the
        replay landed on, and subsequent :meth:`drain` calls replay only
        what the queues receive afterwards.  Raises :class:`ValueError`
        for a duplicate name.
        """
        if name in self.edges:
            raise ValueError(f"edge {name!r} already exists")
        stores = [
            VersionedKnowledgeStore.replay(
                primary.log,
                embedder=primary.embedder,
                name=f"{name}-s{index}",
            )
            for index, primary in enumerate(self.primary.shards)
        ]
        edge = EdgeReplica(name, stores)
        self.edges[name] = edge
        for index, store in enumerate(stores):
            self.queues[index].register(name, store.epoch)
        return edge

    def adopt_edge(self, edge: EdgeReplica) -> None:
        """Re-attach a recovered edge (e.g. reloaded from disk after a
        crash): its applied vector becomes the reported watermarks.  The
        queue keeps the higher of any previously reported watermark — a
        recovered edge can only be at or behind what it acked."""
        self.edges[edge.name] = edge
        for index, store in enumerate(edge.stores):
            if edge.name in self.queues[index].watermarks:
                self.queues[index].ack(edge.name, store.epoch)
            else:
                self.queues[index].register(edge.name, store.epoch)

    # ------------------------------------------------------------- draining

    def drain(
        self,
        name: str,
        shard_index: Optional[int] = None,
        max_batches: Optional[int] = None,
    ) -> int:
        """Apply pending batches to one edge; returns batches applied.

        Resumes from the edge's **applied** epoch (its durable watermark),
        not the reported one — a lost ack can only cause a redundant
        report, never a skipped or double-applied batch: the queue's
        epochs are dense, so each batch lands on exactly the epoch it was
        queued at.  Each applied batch is acked back to the queue
        immediately.  ``shard_index`` limits the drain to one shard and
        ``max_batches`` to that many batches per shard.
        """
        edge = self.edges[name]
        applied = 0
        shards = (
            [shard_index] if shard_index is not None else range(len(self.queues))
        )
        for index in shards:
            queue = self.queues[index]
            store = edge.stores[index]
            for epoch, batch in queue.pending_after(store.epoch, limit=max_batches):
                store.apply(batch)
                queue.ack(name, epoch)
                applied += 1
        return applied

    def drain_all(self) -> int:
        """Drain every edge fully."""
        return sum(self.drain(name) for name in sorted(self.edges))

    # ------------------------------------------------------------- accounting

    def watermark_vector(self, name: str) -> Tuple[int, ...]:
        """``name``'s *reported* per-shard watermarks (what the primary
        knows — the routing tier's eligibility input)."""
        return tuple(queue.watermark(name) for queue in self.queues)

    def lag_vector(self, name: str) -> Tuple[int, ...]:
        """Per-shard epochs the edge's reported watermark trails the primary."""
        return tuple(
            max(shard.epoch - queue.watermark(name), 0)
            for shard, queue in zip(self.primary.shards, self.queues)
        )

    def depth(self, name: str) -> int:
        """Total batches queued for ``name`` across every shard."""
        return sum(queue.depth(name) for queue in self.queues)

    def truncate(self) -> int:
        """Garbage-collect fully-acknowledged batches across every queue."""
        return sum(queue.truncate() for queue in self.queues)

    # ------------------------------------------------------------- convergence

    def verify_converged(self, name: str) -> List[str]:
        """Prove one drained edge byte-identical to the primary per shard.

        Returns the shared per-shard graph + corpus digests; raises
        :class:`ReplicaDivergedError` on any epoch or digest mismatch —
        with deterministic replay that can only mean a copy was mutated
        outside the queue path.
        """
        edge = self.edges[name]
        digests = []
        for index, (primary, store) in enumerate(zip(self.primary.shards, edge.stores)):
            if store.epoch != primary.epoch:
                raise ReplicaDivergedError(
                    f"edge {name!r} shard {index} at epoch {store.epoch}, "
                    f"primary at {primary.epoch} (queue not drained?)"
                )
            ours = store.state_digest(include_index=False)
            theirs = primary.state_digest(include_index=False)
            if ours != theirs:
                raise ReplicaDivergedError(
                    f"edge {name!r} shard {index} digest diverged from primary"
                )
            digests.append(ours)
        return digests

    def close(self) -> None:
        """Release every queue's durable file handle."""
        for queue in self.queues:
            queue.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeoReplicator(shards={len(self.queues)}, "
            f"edges={sorted(self.edges)})"
        )
