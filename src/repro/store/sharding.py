"""Horizontal partitioning of the versioned knowledge store.

The single-process :class:`~repro.store.store.VersionedKnowledgeStore` caps
out at one mutation stream and one set of warm substrates; this module is
the scale-out axis the ROADMAP names next: the corpus and knowledge graph
are partitioned across N independent store shards by **consistent hashing
on the subject entity**, so

* every fact (and every mutation touching it) has exactly one *owning*
  shard, computable by any router from the key alone;
* each shard keeps its **own monotonic epoch** and its own mutation log —
  an ingest routed to one shard advances only that shard's version, which
  is what keeps verdict-cache invalidation per-shard rather than global;
* growing the fleet from N to N+1 shards remaps only ~1/(N+1) of the key
  space (the consistent-hashing property), not everything.

Routing keys: triples route by their subject; documents route by the fact
they evidence (``fact_id``) when known, falling back to ``doc_id`` for
free-floating documents.  The same key function is used for reads and
writes, so a fact's verdicts and the mutations that would invalidate them
always land on the same shard.

Cross-shard batches are validated per shard *before* any shard applies, so
a rejected sub-batch (e.g. removing an absent triple) leaves every shard
untouched; per-shard application itself is atomic as in the unsharded
store.  There is deliberately no cross-shard transaction beyond that — the
multi-branch-synchronisation literature (PAPERS.md) and this repo's own
benchmarks treat partition-local epochs as the consistency unit.

Replication (:class:`ReplicaGroup`) is the availability axis on top of the
partitioning axis: one logical shard becomes R byte-identical
:class:`VersionedKnowledgeStore` copies kept in sync by *log shipping* —
a batch is validated on the first live copy, then the identical batch is
shipped to every copy at the same epoch, exactly the MSMQ-style
multi-branch synchronisation scheme (arXiv:0912.2134) the append-only
:class:`~repro.store.log.MutationLog` makes cheap.  Because replay is
deterministic down to interning order and posting-array layout, shipping
the same batches in the same order *must* produce byte-identical replicas.
The group proves it with a full state-digest audit at construction and,
after every ship, an O(1) comparison of the members' *chained* digests
(:meth:`ReplicaGroup.lockstep`), which escalates back to the audit when
the chains disagree or a store-size of writes has passed since the last
one.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..kg.triples import Triple
from ..retrieval.corpus import Document
from ..retrieval.embeddings import HashingEmbedder
from .log import ADD_DOCUMENT, Mutation
from .store import ApplyReport, StoreConfig, VersionedKnowledgeStore

__all__ = [
    "HashRing",
    "ReplicaDivergedError",
    "ReplicaGroup",
    "ShardApplyReport",
    "ShardedStore",
    "mutation_shard_key",
]


#: Bound on :class:`HashRing`'s per-key owner memo, emptied whole when full
#: (a miss costs only the hash it would cost without one).
RING_MEMO_CAPACITY = 4096

def _point(key: str) -> int:
    """Process-stable 64-bit hash (builtin ``hash`` varies with PYTHONHASHSEED)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping string keys to shard indexes.

    Each shard owns ``replicas`` virtual points on a 64-bit ring; a key is
    owned by the first point at or after its own hash (wrapping).  The
    assignment is a pure function of ``(key, num_shards, replicas)`` —
    stable across processes and runs — and adding a shard moves only the
    keys that fall between the new shard's points and their predecessors.
    Because it is, :meth:`shard_for` memoises each key's owner (at most
    :data:`RING_MEMO_CAPACITY` keys).
    """

    def __init__(self, num_shards: int, replicas: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.num_shards = num_shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(replicas):
                points.append((_point(f"shard-{shard}:{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]
        self._memo: Dict[str, int] = {}

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key``."""
        if self.num_shards == 1:
            return 0
        owner = self._memo.get(key)
        if owner is None:
            if len(self._memo) >= RING_MEMO_CAPACITY:
                self._memo.clear()
            index = bisect_right(self._points, _point(key)) % len(self._points)
            owner = self._memo[key] = self._owners[index]
        return owner

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashRing)
            and other.num_shards == self.num_shards
            and other.replicas == self.replicas
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashRing(num_shards={self.num_shards}, replicas={self.replicas})"


def mutation_shard_key(mutation: Mutation) -> str:
    """The routing key of one mutation: triple subject, or the document's fact.

    Documents evidence a fact: keying them by ``fact_id`` co-locates a
    fact's evidence with the fact's own mutations so a targeted ingest
    invalidates exactly the owning shard.  Documents without a fact id
    route by ``doc_id`` (still deterministic, just not fact-aligned).
    """
    if mutation.op == ADD_DOCUMENT:
        document = mutation.document
        return document.fact_id or document.doc_id
    return mutation.triple.subject


@dataclass(frozen=True)
class ShardApplyReport:
    """What one cross-shard mutation batch did, per owning shard.

    Duck-type compatible with :class:`~repro.store.store.ApplyReport`
    where the serving layer needs it: ``total_ops`` sums the per-shard
    work and ``epoch`` is the *composite* epoch (the sum of the post-batch
    epoch vector — monotonic under any single- or multi-shard ingest).
    """

    shard_reports: Tuple[Tuple[int, ApplyReport], ...]
    epoch_vector: Tuple[int, ...]

    @property
    def epoch(self) -> int:
        """Composite scalar epoch: the sum of the post-batch epoch vector."""
        return sum(self.epoch_vector)

    @property
    def total_ops(self) -> int:
        """Operations performed across every owning shard."""
        return sum(report.total_ops for _, report in self.shard_reports)

    @property
    def shards_touched(self) -> Tuple[int, ...]:
        """Indexes of the shards the batch actually routed work to."""
        return tuple(index for index, _ in self.shard_reports)


class ReplicaDivergedError(RuntimeError):
    """A replica stopped matching its group's primary.

    Raised by the full state-digest audit when a member's epoch or bytes
    disagree, and by :meth:`ReplicaGroup.settle` when a member refuses a
    batch another member already applied.  With deterministic replay this
    can only happen when a replica's store was mutated outside a ship
    (or a bug broke replay determinism);
    the group refuses to keep serving a diverged copy rather than
    returning split-brain verdicts.
    """


class ReplicaGroup:
    """R byte-identical copies of one logical shard, synced by log shipping.

    A ship has four steps: validate on the first live member; every member
    tries the batch; a member refusing what another applied is
    :class:`ReplicaDivergedError`; :meth:`lockstep` runs over the members
    that applied.  :meth:`apply` runs all four over every member; the
    serving router runs the first two through its replica services and
    hands their outcomes to :meth:`settle`, which owns the last two.
    :meth:`verify` proves the copies byte-identical at construction; a
    group of one is never audited (there is nothing to compare it with).

    The group exists so a serving tier can fan *reads* across the copies
    and fail over when one copy's worker dies; the store layer itself only
    guarantees the copies agree.

    Parameters
    ----------
    stores:
        The member stores, primary first.  All members must share one epoch
        and one state digest at construction time.
    include_index:
        Whether the audits cover the BM25 index layout as well as the
        graph + corpus bytes.  Defaults to ``False``: the serving tier's
        replica stores are versioning substrates (strategies read the
        runner's own indexes), and hashing the index would force a full
        index build per ingest.  Property tests flip it on.

    Raises
    ------
    ValueError
        If ``stores`` is empty or the members' epochs disagree.
    ReplicaDivergedError
        From the constructor or :meth:`apply` when digests disagree.
    """

    def __init__(
        self,
        stores: Sequence[VersionedKnowledgeStore],
        include_index: bool = False,
    ) -> None:
        if not stores:
            raise ValueError("a ReplicaGroup needs at least one store")
        self.stores: List[VersionedKnowledgeStore] = list(stores)
        self.include_index = include_index
        epochs = {store.epoch for store in self.stores}
        if len(epochs) != 1:
            raise ValueError(
                f"replica epochs diverge at construction: {sorted(epochs)}"
            )
        if len(self.stores) > 1:
            self.verify()

    @classmethod
    def replicate(
        cls,
        primary: VersionedKnowledgeStore,
        replicas: int,
        include_index: bool = False,
    ) -> "ReplicaGroup":
        """Grow one store into a group of ``replicas`` total copies.

        The secondaries are built by replaying the primary's mutation log —
        the bootstrap is itself a log ship, so a fresh replica is
        byte-identical by construction (each copy re-checks
        ``store == replay(log)`` for free).

        Raises :class:`ValueError` when ``replicas < 1``.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        copies = [primary]
        copies.extend(
            VersionedKnowledgeStore.replay(
                primary.log,
                config=primary.config,
                embedder=primary.embedder,
                name=f"{primary.name}-replica{index}",
            )
            for index in range(1, replicas)
        )
        return cls(copies, include_index=include_index)

    # ------------------------------------------------------------- properties

    @property
    def primary(self) -> VersionedKnowledgeStore:
        """The copy that validates and applies every batch first."""
        return self.stores[0]

    @property
    def num_replicas(self) -> int:
        """Total member count, the primary included."""
        return len(self.stores)

    @property
    def epoch(self) -> int:
        """The group's epoch (all members advance in lockstep)."""
        return self.primary.epoch

    # ------------------------------------------------------------- mutation

    def apply(self, mutations: Sequence[Mutation]) -> ApplyReport:
        """Ship one batch to every member: validate on the primary, apply
        on each member, then :meth:`settle`.

        A batch the primary refuses leaves every copy untouched.  Returns
        the **primary's** :class:`~repro.store.store.ApplyReport` (the
        replicas' reports are byte-for-byte the same story).

        Raises :class:`ValueError` for an empty batch or one the primary
        refuses, and :class:`ReplicaDivergedError` when a member refuses
        the batch another applied or the lockstep check fails.
        """
        batch = list(mutations)
        self.primary.validate(batch)
        outcomes: List[object] = []
        for store in self.stores:
            try:
                outcomes.append(store.apply(batch))
            except ValueError as exc:
                outcomes.append(exc)
        return self.settle(self.stores, outcomes)[0]

    def settle(
        self, members: Sequence[VersionedKnowledgeStore], outcomes: Sequence[object]
    ) -> Tuple[ApplyReport, bool]:
        """Conclude a ship from what each member's apply did.

        ``outcomes[i]`` is ``members[i]``'s report, or the exception its
        (atomic) apply raised.  A :class:`ValueError` beside a member that
        applied is :class:`ReplicaDivergedError`; any other exception, or a
        batch every member refused, is re-raised as it came.  Otherwise
        :meth:`lockstep` runs over ``members``.  Returns the first report
        and whether the lockstep check escalated to the full audit.
        """
        applied = [
            (store, outcome)
            for store, outcome in zip(members, outcomes)
            if not isinstance(outcome, BaseException)
        ]
        for store, outcome in zip(members, outcomes):
            if isinstance(outcome, ValueError) and applied:
                source, report = applied[0]
                raise ReplicaDivergedError(
                    f"replica {store.name} at epoch {store.epoch} refused the batch "
                    f"{source.name} applied at epoch {report.epoch}: {outcome}"
                ) from outcome
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes[0], self.lockstep(members)

    # ------------------------------------------------------------- verification

    def lockstep(self, members: Sequence[VersionedKnowledgeStore]) -> bool:
        """Check the live ``members`` agree after a ship; O(1) when they do.

        Equal epochs and equal chained digests
        (:attr:`VersionedKnowledgeStore.chain_digest`) mean the members
        were byte-identical at their last audit and have applied the same
        batches with the same effects in the same order since.  The chain
        is only a filter: when epochs or chains differ, the full audit of
        :meth:`verify` runs over ``members`` and either raises
        :class:`ReplicaDivergedError` or — equal bytes reached by different
        streams — re-anchors them.  The audit also runs once a member has
        folded as many mutations as it held live items at its anchor
        (``len(graph) + len(corpus)`` then): an edit that bypassed
        ``apply`` leaves the chain untouched, so this bounds how long it
        can hide to one store-size of writes while keeping the hashing
        amortised O(1) per mutation.  A lone member has nothing to be
        compared with and is never audited.  Returns whether the audit ran.
        """
        if len(members) < 2 or (
            len({store.epoch for store in members}) == 1
            and len({store.chain_digest for store in members}) == 1
            and all(store._ops_to_audit > 0 for store in members)
        ):
            return False
        self._audit(members, self.include_index)
        return True

    def digests(self, include_index: Optional[bool] = None) -> List[str]:
        """Per-member state digests, primary first."""
        include = self.include_index if include_index is None else include_index
        return [store.state_digest(include_index=include) for store in self.stores]

    def verify(self, include_index: Optional[bool] = None) -> str:
        """Prove the group byte-identical; returns the shared digest.

        The full audit: every member's ``state_digest`` is computed and
        compared, then each member's chained digest is anchored at the
        shared value (see :meth:`lockstep`).  Raises
        :class:`ReplicaDivergedError` when any member's digest (or epoch)
        disagrees with the primary's.
        """
        include = self.include_index if include_index is None else include_index
        return self._audit(self.stores, include)

    @staticmethod
    def _audit(members: Sequence[VersionedKnowledgeStore], include_index: bool) -> str:
        epochs = [store.epoch for store in members]
        if len(set(epochs)) != 1:
            raise ReplicaDivergedError(f"replica epochs diverge: {epochs}")
        digests = [store.state_digest(include_index=include_index) for store in members]
        if len(set(digests)) != 1:
            diverged = [
                store.name
                for store, digest in zip(members, digests)
                if digest != digests[0]
            ]
            raise ReplicaDivergedError(
                f"replicas diverged from {members[0].name}: {diverged}"
            )
        for store in members:
            store._anchor_chain(digests[0])
        return digests[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaGroup(primary={self.primary.name!r}, "
            f"replicas={self.num_replicas}, epoch={self.epoch})"
        )


class ShardedStore:
    """N :class:`VersionedKnowledgeStore` shards behind one routing ring."""

    def __init__(
        self, shards: Sequence[VersionedKnowledgeStore], ring: Optional[HashRing] = None
    ) -> None:
        if not shards:
            raise ValueError("a ShardedStore needs at least one shard")
        self.shards: List[VersionedKnowledgeStore] = list(shards)
        self.ring = ring or HashRing(len(self.shards))
        if self.ring.num_shards != len(self.shards):
            raise ValueError(
                f"ring routes over {self.ring.num_shards} shards but "
                f"{len(self.shards)} were given"
            )

    # ------------------------------------------------------------- construction

    @classmethod
    def partition(
        cls,
        triples: Iterable[Triple] = (),
        documents: Iterable[Document] = (),
        num_shards: int = 4,
        config: Optional[StoreConfig] = None,
        embedder: Optional[HashingEmbedder] = None,
        name: str = "store",
        replicas: int = 64,
    ) -> "ShardedStore":
        """Partition a corpus + graph across ``num_shards`` fresh shards.

        Each shard is bootstrapped with its slice as a genesis batch, so
        every shard independently satisfies ``shard == replay(shard.log)``.
        """
        ring = HashRing(num_shards, replicas)
        shard_triples: List[List[Triple]] = [[] for _ in range(num_shards)]
        shard_documents: List[List[Document]] = [[] for _ in range(num_shards)]
        for triple in triples:
            shard_triples[ring.shard_for(triple.subject)].append(triple)
        for document in documents:
            shard_documents[ring.shard_for(document.fact_id or document.doc_id)].append(
                document
            )
        shards = [
            VersionedKnowledgeStore.bootstrap(
                triples=shard_triples[index],
                documents=shard_documents[index],
                config=config,
                embedder=embedder,
                name=f"{name}-shard{index}",
            )
            for index in range(num_shards)
        ]
        return cls(shards, ring)

    # ------------------------------------------------------------- properties

    @property
    def num_shards(self) -> int:
        """How many ways the partition splits the key space."""
        return len(self.shards)

    @property
    def epoch_vector(self) -> Tuple[int, ...]:
        """Per-shard monotonic epochs, in shard order."""
        return tuple(shard.epoch for shard in self.shards)

    @property
    def epoch(self) -> int:
        """Composite scalar epoch: the sum of the per-shard epochs.

        Any applied batch strictly increases it (each owning shard bumps by
        one), so consumers that tracked the unsharded scalar epoch — the
        verdict-table slicing in :class:`~repro.service.loadgen.LoadReport`,
        for instance — keep working unchanged.
        """
        return sum(shard.epoch for shard in self.shards)

    @property
    def total_triples(self) -> int:
        """Live triples across the whole partition."""
        return sum(len(shard.graph) for shard in self.shards)

    @property
    def total_documents(self) -> int:
        """Documents across the whole partition."""
        return sum(len(shard.corpus) for shard in self.shards)

    def shard_for(self, key: str) -> int:
        """The index of the shard owning a routing ``key`` (subject entity
        or fact id)."""
        return self.ring.shard_for(key)

    def shard_of(self, mutation: Mutation) -> int:
        """The index of the shard owning one mutation (via
        :func:`mutation_shard_key`)."""
        return self.ring.shard_for(mutation_shard_key(mutation))

    # ------------------------------------------------------------- mutation

    def route(self, mutations: Sequence[Mutation]) -> Dict[int, List[Mutation]]:
        """Group a batch by owning shard, preserving in-shard order."""
        groups: Dict[int, List[Mutation]] = {}
        for mutation in mutations:
            groups.setdefault(self.shard_of(mutation), []).append(mutation)
        return groups

    def apply(self, mutations: Sequence[Mutation]) -> ShardApplyReport:
        """Apply one batch across the owning shards.

        All sub-batches are validated against their shards first; only when
        every shard accepts does any shard apply, so a rejected batch
        leaves the whole fleet untouched (the unsharded all-or-nothing
        contract, extended across the partition).

        Raises :class:`ValueError` when the batch is empty or any
        sub-batch fails its shard's validation.
        """
        batch = list(mutations)
        if not batch:
            raise ValueError("mutation batch must not be empty")
        groups = self.route(batch)
        for index in sorted(groups):
            self.shards[index].validate(groups[index])
        reports: List[Tuple[int, ApplyReport]] = []
        for index in sorted(groups):
            reports.append((index, self.shards[index].apply(groups[index])))
        return ShardApplyReport(tuple(reports), self.epoch_vector)

    # ------------------------------------------------------------- verification

    def state_digests(self, include_index: bool = True) -> List[str]:
        """Per-shard state digests, in shard order."""
        return [shard.state_digest(include_index=include_index) for shard in self.shards]

    def state_digest(self, include_index: bool = True) -> str:
        """One digest over the whole fleet (order-sensitive over shards)."""
        digest = hashlib.sha256()
        for shard_digest in self.state_digests(include_index=include_index):
            digest.update(shard_digest.encode("ascii"))
        return digest.hexdigest()

    def replicate(self, replicas: int, include_index: bool = False) -> List[ReplicaGroup]:
        """One :class:`ReplicaGroup` per shard, each ``replicas`` copies deep.

        The live shards become the group primaries; the secondaries are
        replayed from each shard's own log.  Returns the groups in shard
        order — the substrate the serving tier
        (:class:`~repro.service.router.ShardedValidationService`) hands one
        store copy per replica worker and ships every ingest through.

        Raises :class:`ValueError` when ``replicas < 1``.
        """
        return [
            ReplicaGroup.replicate(shard, replicas, include_index=include_index)
            for shard in self.shards
        ]

    def replay_twin(self) -> "ShardedStore":
        """Rebuild every shard from its own mutation log (byte-identical)."""
        twins = [
            VersionedKnowledgeStore.replay(
                shard.log, config=shard.config, embedder=shard.embedder, name=shard.name
            )
            for shard in self.shards
        ]
        return ShardedStore(twins, HashRing(self.ring.num_shards, self.ring.replicas))

    # ------------------------------------------------------------- persistence

    def shard_path(self, prefix: str, index: int) -> str:
        """The on-disk log path of shard ``index`` under ``prefix``."""
        return f"{prefix}.shard{index}"

    def save(self, prefix: str) -> List[str]:
        """Persist each shard as the segment file ``{prefix}.shard{i}``;
        returns the paths."""
        paths = []
        for index, shard in enumerate(self.shards):
            path = self.shard_path(prefix, index)
            shard.save(path)
            paths.append(path)
        return paths

    @classmethod
    def load(
        cls,
        prefix: str,
        num_shards: int,
        embedder: Optional[HashingEmbedder] = None,
        name: str = "store",
        replicas: int = 64,
    ) -> "ShardedStore":
        """Rebuild a fleet from ``{prefix}.shard{i}`` logs (all must exist)."""
        shards = [
            VersionedKnowledgeStore.load(
                f"{prefix}.shard{index}", embedder=embedder, name=f"{name}-shard{index}"
            )
            for index in range(num_shards)
        ]
        return cls(shards, HashRing(num_shards, replicas))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStore(shards={self.num_shards}, epochs={list(self.epoch_vector)}, "
            f"triples={self.total_triples}, documents={self.total_documents})"
        )
