"""Property-based replay tests: random mutation interleavings are replayable.

The store's contract is ``store == replay(store.log)`` *for any history*.
These tests drive seeded-random interleavings of ``add_triple`` /
``remove_triple`` / ``add_document`` — in random batch sizes, across the
shards of a :class:`~repro.store.ShardedStore` and against a single
:class:`~repro.store.VersionedKnowledgeStore` — and assert that replaying
the mutation logs reproduces, per shard:

* ``state_digest()`` (graph interning + corpus bytes + BM25 index layout);
* search results, ids *and* scores, byte-identical to the head state;
* path enumeration, content *and* order, byte-identical to the head state.

Rebuild fallbacks are exercised too: one configuration uses aggressive
dirty-fraction thresholds so replay must take the same rebuild branches at
the same epochs to stay byte-identical.  Seeds are fixed (no new deps, no
flakes): every sequence that ever fails can be replayed exactly.

The same histories pin the replica group's O(batch) lockstep check — a
tampered member stream is refused at the next ship exactly when the full
state digests would refuse it — and ``validate`` against its set-copy
reference.
"""

from __future__ import annotations

import random
from typing import List, Set

import pytest

from repro.kg import Triple
from repro.retrieval.corpus import Document
from repro.store import (
    Mutation,
    MutationLog,
    ReplicaDivergedError,
    ReplicaGroup,
    ShardedStore,
    VersionedKnowledgeStore,
)
from repro.store import segment as segment_module
from repro.store import store as store_module

NUM_SHARDS = 3


def _seed_triples(count: int, rng: random.Random) -> List[Triple]:
    triples: Set[Triple] = set()
    while len(triples) < count:
        triples.add(
            Triple(
                f"entity{rng.randrange(30)}",
                f"pred{rng.randrange(5)}",
                f"entity{rng.randrange(30)}",
            )
        )
    return sorted(triples)


def _document(index: int, rng: random.Random) -> Document:
    subject = rng.randrange(30)
    return Document(
        doc_id=f"doc{index}",
        url=f"https://corpus.example/doc{index}",
        title=f"entity{subject} dossier",
        text=(
            f"entity{subject} connects to entity{rng.randrange(30)} via "
            f"pred{rng.randrange(5)}; archival item {index}."
        ),
        source="corpus.example",
        fact_id=f"fact-{rng.randrange(20)}" if rng.random() < 0.7 else "",
    )


def _random_history(rng: random.Random, operations: int):
    """Seed state plus a list of valid mutation batches over it."""
    triples = _seed_triples(40, rng)
    documents = [_document(i, rng) for i in range(20)]
    live: Set[Triple] = set(triples)
    next_doc = len(documents)
    batches: List[List[Mutation]] = []
    emitted = 0
    while emitted < operations:
        batch: List[Mutation] = []
        batch_live = set(live)
        for _ in range(rng.randrange(1, 8)):
            roll = rng.random()
            if roll < 0.45:
                triple = Triple(
                    f"entity{rng.randrange(30)}",
                    f"pred{rng.randrange(5)}",
                    f"entity{rng.randrange(30)}",
                )
                # Duplicate adds are permitted no-ops; both paths are valid
                # history, so emit whichever the dice produced.
                batch.append(Mutation(op="add_triple", triple=triple))
                batch_live.add(triple)
            elif roll < 0.75 and batch_live:
                victim = rng.choice(sorted(batch_live))
                batch.append(Mutation(op="remove_triple", triple=victim))
                batch_live.discard(victim)
            else:
                batch.append(Mutation.add_document(_document(next_doc, rng)))
                next_doc += 1
        live = batch_live
        emitted += len(batch)
        batches.append(batch)
    return triples, documents, batches


def _assert_search_parity(head, twin, rng: random.Random) -> None:
    queries = [
        f"entity{rng.randrange(30)} dossier archival item"
        for _ in range(12)
    ]
    for query in queries:
        head_hits = [
            (result.document.doc_id, result.score)
            for result in head.search_engine.search(query, 10)
        ]
        twin_hits = [
            (result.document.doc_id, result.score)
            for result in twin.search_engine.search(query, 10)
        ]
        assert head_hits == twin_hits, f"search diverged for {query!r}"


def _assert_path_parity(head, twin, rng: random.Random) -> None:
    nodes = head.graph.nodes()
    if not nodes:
        return
    for _ in range(15):
        source, target = rng.choice(nodes), rng.choice(nodes)
        assert head.graph.find_paths(source, target, max_length=3) == (
            twin.graph.find_paths(source, target, max_length=3)
        ), f"paths diverged for {source} -> {target}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_any_sharded_interleaving_replays_byte_identical(seed):
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=120)
    store = ShardedStore.partition(triples, documents, num_shards=NUM_SHARDS)
    # Materialise the search engines up front so every batch maintains the
    # indexes incrementally — the interesting (stateful) code path.
    for shard in store.shards:
        _ = shard.search_engine
    for batch in batches:
        store.apply(batch)

    twin = store.replay_twin()
    assert twin.epoch_vector == store.epoch_vector
    assert twin.state_digests() == store.state_digests(), (
        f"seed {seed}: replay diverged from head state"
    )
    check_rng = random.Random(seed + 1000)
    for head_shard, twin_shard in zip(store.shards, twin.shards):
        _assert_search_parity(head_shard, twin_shard, check_rng)
        _assert_path_parity(head_shard, twin_shard, check_rng)


@pytest.mark.parametrize("seed", [5, 6])
def test_aggressive_rebuild_thresholds_replay_identically(seed, monkeypatch):
    # Tiny dirty fractions force the rebuild fallbacks (index rebuild,
    # graph re-interning) to fire repeatedly; the decisions are functions
    # of the log, so replay must take the same branches and stay identical.
    monkeypatch.setattr(store_module, "INDEX_REBUILD_FRACTION", 0.01)
    monkeypatch.setattr(store_module, "GRAPH_REBUILD_FRACTION", 0.05)
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=90)
    store = ShardedStore.partition(triples, documents, num_shards=NUM_SHARDS)
    for shard in store.shards:
        _ = shard.search_engine
    for batch in batches:
        store.apply(batch)
    twin = store.replay_twin()
    assert twin.state_digests() == store.state_digests()


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_unsharded_history_replay_and_snapshots(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=80)
    store = VersionedKnowledgeStore.bootstrap(triples=triples, documents=documents)
    _ = store.search_engine
    digests_by_epoch = {store.epoch: store.state_digest()}
    views_by_epoch = {}
    for batch in batches:
        store.apply(batch)
        digests_by_epoch[store.epoch] = store.state_digest()
        views_by_epoch[store.epoch] = (
            store.graph.state_digest(), [d.doc_id for d in store.corpus]
        )

    # Full replay reproduces the head digest...
    twin = VersionedKnowledgeStore.replay(store.log)
    assert twin.state_digest() == store.state_digest()
    # ...bounded replay reproduces every historical digest...
    for epoch in sorted(digests_by_epoch):
        partial = VersionedKnowledgeStore.replay(store.log, upto=epoch)
        assert partial.epoch == epoch
        assert partial.state_digest() == digests_by_epoch[epoch], (
            f"seed {seed}: epoch {epoch} not reproducible from the log"
        )
    # ...and a save/load round-trip preserves all of it.
    path = str(tmp_path / "store.jsonl")
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 25)
    store.save(path)
    loaded = VersionedKnowledgeStore.load(path)
    assert loaded.state_digest() == store.state_digest()
    # ...and the saved store, which now seeks its own file's checkpoints.
    for epoch, view in views_by_epoch.items():
        snapshot = store.snapshot(epoch)
        assert (snapshot.graph.state_digest(), [d.doc_id for d in snapshot.corpus]) == view


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_any_interleaving_log_ships_byte_identical_replicas(seed):
    """Replication determinism: any write history shipped to R replicas
    leaves every copy byte-identical to the primary, at every epoch along
    the way — and replaying any replica's own log reproduces it again."""
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=100)
    primary = VersionedKnowledgeStore.bootstrap(triples=triples, documents=documents)
    _ = primary.search_engine
    group = ReplicaGroup.replicate(primary, replicas=3)
    for store in group.stores:
        _ = store.search_engine  # exercise the incremental path on every copy
    for batch in batches:
        report = group.apply(batch)
        # Lockstep at every epoch, full-index digests included (apply()
        # itself enforces this via verify(); re-check explicitly so a
        # silently-disabled check cannot pass the test).
        assert all(store.epoch == report.epoch for store in group.stores)
        digests = [store.state_digest(include_index=True) for store in group.stores]
        assert len(set(digests)) == 1, f"seed {seed}: diverged at {report.epoch}"

    check_rng = random.Random(seed + 2000)
    for replica in group.stores[1:]:
        _assert_search_parity(primary, replica, check_rng)
        _assert_path_parity(primary, replica, check_rng)
        # Each replica's own log is a complete, independently replayable
        # history of the shipped batches.
        twin = VersionedKnowledgeStore.replay(replica.log)
        assert twin.state_digest() == replica.state_digest()


@pytest.mark.parametrize("seed", [14, 15])
def test_replica_groups_over_sharded_fleet_stay_identical(seed):
    """Sharded + replicated: route random batches to their owning shard's
    replica group; every group stays internally byte-identical and agrees
    with an unreplicated fleet fed the same history."""
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=80)
    fleet = ShardedStore.partition(triples, documents, num_shards=NUM_SHARDS)
    reference = ShardedStore.partition(triples, documents, num_shards=NUM_SHARDS)
    groups = fleet.replicate(3)
    for batch in batches:
        reference.apply(batch)
        for index, sub_batch in sorted(fleet.route(batch).items()):
            groups[index].apply(sub_batch)
    for index, group in enumerate(groups):
        assert len({store.state_digest(include_index=True) for store in group.stores}) == 1
        assert group.primary.state_digest() == reference.shards[index].state_digest(), (
            f"seed {seed}: shard {index} replica group diverged from the "
            f"unreplicated fleet"
        )


TAMPER_KINDS = ("flip", "extra", "swap")
TAMPER_SEEDS = range(100, 130)


def _random_add(rng: random.Random) -> Mutation:
    """An add from the generator's own triple space (so sometimes a no-op)."""
    return Mutation.add_triple(
        f"entity{rng.randrange(30)}", f"pred{rng.randrange(5)}", f"entity{rng.randrange(30)}"
    )


def _tampered_ship(seed: int, kind: str):
    """Ship a random history through an R=2 group, tamper the replica's
    stream once through its public ``apply``, then ship one more batch.

    Returns ``(raised, diverged)`` — whether that last ship raised
    :class:`ReplicaDivergedError`, and whether the members' epochs or full
    state digests, computed here afterwards, differ — or ``None`` when the
    dice produced a tamper the replica's own validation refuses.
    """
    rng = random.Random(seed)
    # Fewer operations than the 60 items the group is anchored over: the
    # size rule never comes due, so only the chain can notice the tamper.
    triples, documents, batches = _random_history(rng, operations=40)
    primary = VersionedKnowledgeStore.bootstrap(triples=triples, documents=documents)
    group = ReplicaGroup.replicate(primary, 2)
    replica = group.stores[1]
    *history, first, second, last = batches
    for batch in history:
        group.apply(batch)  # untampered: never raises
    if kind == "flip":  # one mutation of one batch differs on the replica
        group.apply(first)
        position = rng.randrange(len(second))
        flipped = list(second)
        while flipped[position] == second[position]:
            flipped[position] = _random_add(rng)
        streams = ([second], [flipped])
    elif kind == "extra":  # the replica applies a batch nobody shipped
        group.apply(first)
        streams = ([second], [second, [_random_add(rng)]])
    else:  # swap: two adjacent batches land in the other order
        streams = ([first, second], [second, first])
    try:
        # Validating the concatenation is validating the sequence.
        replica.validate([mutation for batch in streams[1] for mutation in batch])
    except ValueError:
        return None
    for store, stream in zip(group.stores, streams):
        for batch in stream:
            store.apply(batch)
    try:
        group.apply(last)
        raised = False
    except ReplicaDivergedError:
        raised = True
    diverged = (
        primary.epoch != replica.epoch
        or primary.state_digest(include_index=False)
        != replica.state_digest(include_index=False)
    )
    return raised, diverged


@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_tampered_stream_is_refused_iff_the_full_digests_would(kind):
    """ROADMAP item 6's bar: one flipped mutation, one extra batch or one
    swapped pair on one member is caught at the next ship by the chained
    digest exactly when the full digest would catch it — no false negative
    on the apply path, and a chain-only mismatch over converged state
    re-anchors instead of raising."""
    outcomes = {seed: _tampered_ship(seed, kind) for seed in TAMPER_SEEDS}
    concluded = {seed: outcome for seed, outcome in outcomes.items() if outcome}
    assert len(concluded) >= 25
    for seed, (raised, diverged) in concluded.items():
        assert raised == diverged, f"seed {seed} ({kind}): {raised=}, {diverged=}"
    # Not vacuous: some seed of every kind ended diverged.
    assert any(diverged for _, diverged in concluded.values())


def test_chain_only_mismatch_over_converged_state_reanchors(digest_calls):
    """Two batches adding edges between already-interned, disjoint nodes
    commute byte-for-byte: swapped on one member, the epochs and the full
    digests agree and only the chains differ.  The next ship escalates,
    finds nothing, re-anchors — and the ship after it is O(1) again."""
    primary = VersionedKnowledgeStore.bootstrap(
        triples=[Triple(f"n{i}", "p", f"n{i + 1}") for i in range(0, 16, 2)]
        + [Triple("n0", "q", "n1")]
    )
    group = ReplicaGroup.replicate(primary, 2)
    replica = group.stores[1]
    left = [Mutation.add_triple("n2", "q", "n3")]
    right = [Mutation.add_triple("n4", "q", "n5")]
    primary.apply(left), primary.apply(right)
    replica.apply(right), replica.apply(left)
    assert primary.epoch == replica.epoch
    assert primary.state_digest() == replica.state_digest()
    assert primary.chain_digest != replica.chain_digest

    digest_calls.clear()
    group.apply([Mutation.add_triple("n6", "q", "n7")])  # escalates, does not raise
    assert sorted(digest_calls) == sorted(store.name for store in group.stores)
    assert primary.chain_digest == replica.chain_digest
    digest_calls.clear()
    group.apply([Mutation.add_triple("n8", "q", "n9")])
    assert digest_calls == []


def _reference_validate(store: VersionedKnowledgeStore, batch) -> None:
    """``validate`` as it was before it went O(batch): a copy of the whole
    triple set and of every document id, mutated as the batch is walked."""
    triples = set(store.graph)
    doc_ids = {document.doc_id for document in store.corpus}
    for position, mutation in enumerate(batch):
        if mutation.op == "add_triple":
            triples.add(mutation.triple)
        elif mutation.op == "remove_triple":
            if mutation.triple not in triples:
                raise ValueError(
                    f"batch[{position}]: cannot remove absent triple {mutation.triple}"
                )
            triples.discard(mutation.triple)
        else:
            doc_id = mutation.document.doc_id
            if doc_id in doc_ids:
                raise ValueError(f"batch[{position}]: duplicate document id {doc_id!r}")
            doc_ids.add(doc_id)


def _verdict(check, store, batch):
    try:
        check(store, batch)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", [20, 21, 22, 23])
def test_validate_matches_the_set_copy_reference(seed, monkeypatch):
    rng = random.Random(seed)
    triples, documents, batches = _random_history(rng, operations=120)
    store = VersionedKnowledgeStore.bootstrap(triples=triples, documents=documents)
    live, absent = Triple("entity0", "hand", "built"), Triple("never", "was", "here")
    store.apply([Mutation(op="add_triple", triple=live)])
    doc = _document(10_000, rng)
    add, remove = (
        lambda triple: Mutation(op="add_triple", triple=triple),
        lambda triple: Mutation(op="remove_triple", triple=triple),
    )
    hand_built = [  # (batch, refused)
        ([add(absent), remove(absent)], False),
        ([remove(live), add(live), remove(live)], False),
        ([remove(live), remove(live)], True),
        ([remove(absent)], True),
        ([Mutation.add_document(doc), Mutation.add_document(doc)], True),
        ([Mutation.add_document(documents[0])], True),
    ]
    live_validate = VersionedKnowledgeStore.validate
    rejected = accepted = 0

    def same_verdict(batch):
        nonlocal rejected, accepted
        reference = _verdict(_reference_validate, store, batch)
        with monkeypatch.context() as patch:
            # O(batch) means never materialising the triple set.
            patch.setattr(
                type(store.graph), "__iter__",
                lambda self: pytest.fail("validate copied the whole triple set"),
            )
            assert _verdict(live_validate, store, batch) == reference
        rejected += reference is not None
        accepted += reference is None
        return reference

    for batch, refused in hand_built:
        assert (same_verdict(batch) is not None) == refused
    for batch in batches:
        # The batch that is due (valid by construction) and two from
        # anywhere in the history, which the current state may well refuse.
        for candidate in (batch, rng.choice(batches), rng.choice(batches)):
            same_verdict(candidate)
        store.apply(batch)
    assert accepted > len(batches) and rejected > 10


def test_log_persistence_round_trips_random_mutations(tmp_path):
    rng = random.Random(42)
    _, _, batches = _random_history(rng, operations=60)
    log = MutationLog()
    for epoch, batch in enumerate(batches, start=1):
        log.append_records(epoch, [mutation.record(epoch) for mutation in batch])
    path = str(tmp_path / "log.jsonl")
    log.save(path)
    loaded = MutationLog.load(path)
    assert len(loaded) == len(log)
    assert [
        (epoch, mutation.to_json()) for epoch, mutation in loaded
    ] == [(epoch, mutation.to_json()) for epoch, mutation in log]
