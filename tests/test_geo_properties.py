"""Property-based geo-replication tests: convergence and session safety.

The geo tier's contract, for *any* write schedule, batch sizing, edge
count, bootstrap checkpoint, and drain interleaving:

* once every queue drains, each edge's per-shard ``state_digest`` is
  byte-identical to the primary's (deterministic replay makes convergence
  provable, not probabilistic);
* reported watermarks only advance, and draining never skips or
  double-applies a batch — an edge's applied epochs march densely from
  its bootstrap checkpoint to the primary's head;
* through the serving tier, a session never observes an epoch vector
  below its own last write, no matter how reads race the drain loops
  (edge-served reads are gated on reported watermarks; everything else
  falls back to the primary).

Hypothesis drives the interleavings; failures shrink to a minimal
schedule and replay exactly.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from typing import Dict, List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kg import Triple
from repro.retrieval.corpus import Document
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
)
from repro.store import GeoReplicator, Mutation, OutboundQueue, ShardedStore

NUM_SHARDS = 2


# ----------------------------------------------------------- history builder


def _seed_triples(count: int, rng: random.Random) -> List[Triple]:
    triples: Set[Triple] = set()
    while len(triples) < count:
        triples.add(
            Triple(
                f"entity{rng.randrange(20)}",
                f"pred{rng.randrange(4)}",
                f"entity{rng.randrange(20)}",
            )
        )
    return sorted(triples)


def _document(index: int, rng: random.Random) -> Document:
    subject = rng.randrange(20)
    return Document(
        doc_id=f"geo-doc{index}",
        url=f"https://corpus.example/geo{index}",
        title=f"entity{subject} dossier",
        text=f"entity{subject} links entity{rng.randrange(20)}; item {index}.",
        source="corpus.example",
    )


def _random_batches(
    rng: random.Random, count: int, live: Set[Triple]
) -> List[List[Mutation]]:
    """``count`` valid mutation batches over ``live`` (the store's triples)."""
    next_doc = 0
    batches: List[List[Mutation]] = []
    for _ in range(count):
        batch: List[Mutation] = []
        for _ in range(rng.randrange(1, 5)):
            roll = rng.random()
            if roll < 0.5:
                triple = Triple(
                    f"entity{rng.randrange(20)}",
                    f"pred{rng.randrange(4)}",
                    f"entity{rng.randrange(20)}",
                )
                batch.append(Mutation(op="add_triple", triple=triple))
                live.add(triple)
            elif roll < 0.75 and live:
                victim = rng.choice(sorted(live))
                batch.append(Mutation(op="remove_triple", triple=victim))
                live.discard(victim)
            else:
                batch.append(Mutation.add_document(_document(next_doc, rng)))
                next_doc += 1
        batches.append(batch)
    return batches


def _fresh_fleet(rng: random.Random):
    triples = _seed_triples(30, rng)
    documents = [_document(1000 + i, rng) for i in range(8)]
    fleet = ShardedStore.partition(triples, documents, num_shards=NUM_SHARDS)
    return fleet, set(triples)


# ------------------------------------------------- store-level convergence


class TestDrainInterleavingsConverge:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_reaches_byte_identical_digests(self, data):
        """Writes, partial drains (any edge, any shard order, any batch
        budget), and late-joining edges interleave arbitrarily; after the
        final full drain every edge proves digest parity per shard."""
        rng = random.Random(data.draw(st.integers(0, 2**20), label="seed"))
        primary, live = _fresh_fleet(rng)
        geo = GeoReplicator(primary)
        num_edges = data.draw(st.integers(1, 3), label="edges")
        names = [f"edge-{i}" for i in range(num_edges)]
        for name in names:
            geo.add_edge(name)

        late_joiner = data.draw(st.booleans(), label="late_joiner")
        batches = _random_batches(
            rng, data.draw(st.integers(1, 10), label="writes"), live
        )
        for index, batch in enumerate(batches):
            primary.apply(batch)
            if late_joiner and index == len(batches) // 2:
                # A cold edge bootstrapping mid-history: snapshot replay up
                # to the current epochs, queue replay for the rest.
                names.append("edge-late")
                geo.add_edge("edge-late")
                late_joiner = False
            # Arbitrary partial drains: hypothesis picks who catches up,
            # how far, and on which shard.
            for _ in range(data.draw(st.integers(0, 2), label="drains")):
                name = data.draw(st.sampled_from(names), label="which")
                shard = data.draw(
                    st.one_of(st.none(), st.integers(0, NUM_SHARDS - 1)),
                    label="shard",
                )
                geo.drain(
                    name,
                    shard_index=shard,
                    max_batches=data.draw(st.integers(1, 3), label="budget"),
                )

        geo.drain_all()
        expected = primary.state_digests(include_index=False)
        for name in names:
            assert geo.edges[name].applied_vector == primary.epoch_vector
            assert geo.verify_converged(name) == expected
            assert geo.watermark_vector(name) == primary.epoch_vector
            assert geo.depth(name) == 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_watermarks_advance_monotonically_without_skips_or_repeats(self, data):
        """Reported watermark vectors never regress, and the total batches
        each edge applies equals exactly the epochs between its bootstrap
        checkpoint and the primary head — dense, no skip, no double-apply."""
        rng = random.Random(data.draw(st.integers(0, 2**20), label="seed"))
        primary, live = _fresh_fleet(rng)
        geo = GeoReplicator(primary)
        geo.add_edge("edge-0")
        start = geo.watermark_vector("edge-0")

        applied = 0
        last: Dict[str, tuple] = {"edge-0": start}
        for batch in _random_batches(
            rng, data.draw(st.integers(1, 8), label="writes"), live
        ):
            primary.apply(batch)
            if data.draw(st.booleans(), label="drain_now"):
                applied += geo.drain(
                    "edge-0", max_batches=data.draw(st.integers(1, 2), label="budget")
                )
            current = geo.watermark_vector("edge-0")
            assert all(now >= before for now, before in zip(current, last["edge-0"]))
            last["edge-0"] = current

        applied += geo.drain("edge-0")
        owed = sum(
            head - begin for head, begin in zip(primary.epoch_vector, start)
        )
        assert applied == owed
        assert geo.lag_vector("edge-0") == (0,) * NUM_SHARDS


def _crash_and_reload(data, queue: OutboundQueue, path: str, synced: int) -> OutboundQueue:
    """The primary dies without a commit: the file keeps any prefix at or
    past its last returned sync (``synced`` bytes) — whole unsynced records,
    half of one — or, with nothing unsynced to lose, the torn start of a
    next append (up to a whole record missing only its newline)."""
    if queue._handle is not None:
        queue._handle.close()
        queue._handle = None
    keep = data.draw(st.integers(synced, os.path.getsize(path)), label="keep")
    with open(path, "rb") as handle:
        survived, lost = handle.read(keep), handle.read()
    if not lost:
        record = b'{"edge": "edge-0", "epoch": %d, "kind": "ack"}' % (queue.max_epoch + 7)
        survived += record[: data.draw(st.integers(0, len(record)), label="torn")]
    with open(path, "wb") as handle:
        handle.write(survived)
    return OutboundQueue.load(path)


class TestQueueAccounting:
    STEPS = ["enqueue", "write", "commit", "ack", "truncate", "reload", "crash"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_depth_is_the_pending_suffix_through_any_history(self, data):
        """Enqueues (committed at once, or only written as under a started
        router), commits, acks, truncations, save/load cycles and crashes
        in any order, the queue reloaded and used again after each crash.
        Throughout: every batch whose commit returned is present, epochs
        stay dense, nothing above ``durable_epoch`` is handed out,
        watermarks lost in a crash only ever fall behind, and no reload
        raises."""
        floor = data.draw(st.integers(0, 5), label="floor")
        edges = ["edge-0", "edge-1"]
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "queue.jsonl")
            queue = OutboundQueue(floor_epoch=floor, path=path)
            try:
                for edge in edges:
                    queue.register(edge, floor)
                # What no crash may take back: the file as of the last
                # returned sync, and the newest batch a commit covered.
                synced, promised = os.path.getsize(path), floor
                for _ in range(data.draw(st.integers(1, 30), label="steps")):
                    step = data.draw(st.sampled_from(self.STEPS), label="step")
                    committed = True
                    if step in ("enqueue", "write"):
                        epoch = queue.max_epoch + 1
                        queue.autocommit = committed = step == "enqueue"
                        queue.enqueue(epoch, [Mutation.add_triple(f"S{epoch}", "p", "O")])
                        queue.autocommit = True
                    elif step == "commit":
                        queue.commit()
                    elif step == "ack":
                        committed = False
                        edge = data.draw(st.sampled_from(edges), label="edge")
                        # Only what shipped can be acked; only durable ships.
                        low = queue.watermark(edge)
                        high = max(low, queue.durable_epoch)
                        queue.ack(edge, data.draw(st.integers(low, high), label="epoch"))
                    elif step == "truncate":
                        committed = queue.truncate() > 0
                    elif step == "reload":
                        queue.close()
                        queue = OutboundQueue.load(path)
                    else:
                        before = queue.watermarks
                        queue = _crash_and_reload(data, queue, path, synced)
                        assert set(queue.watermarks) == set(edges)
                        assert all(queue.watermark(edge) <= before[edge] for edge in edges)
                    if committed:
                        synced, promised = os.path.getsize(path), queue.max_epoch
                    assert queue.floor_epoch <= promised <= queue.durable_epoch
                    assert queue.durable_epoch <= queue.max_epoch
                    for edge in edges:
                        pending = queue.pending_after(queue.watermark(edge))
                        assert queue.depth(edge) == queue.max_epoch - queue.watermark(edge)
                        assert [epoch for epoch, _ in pending] == list(
                            range(queue.watermark(edge) + 1, queue.durable_epoch + 1)
                        )
            finally:
                queue.close()  # also when hypothesis abandons an example mid-draw


# --------------------------------------------- serving-tier session safety


class TestSessionsThroughTheRouter:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_no_session_observes_a_vector_below_its_own_write(self, runner, data):
        """Arbitrary per-session interleavings of writes and region-pinned
        reads, racing two background drain loops (one deliberately
        laggy): every completed read's epoch vector covers the session's
        own landed writes component-wise, and every edge-served read
        carries a vector at least the edge's reported watermark with its
        visible staleness stamped."""
        seed = data.draw(st.integers(0, 2**20), label="seed")
        rng = random.Random(seed)
        steps = data.draw(st.integers(4, 12), label="steps")
        facts = list(runner.dataset("factbench"))[:8]
        router = ShardedValidationService.from_runner(
            runner,
            NUM_SHARDS,
            ServiceConfig(time_scale=0.001),
            store=runner.sharded_store("factbench", NUM_SHARDS).replay_twin(),
            replicas=1,
            edges=2,
            drain_interval_s=0.005,
            edge_lag_s={"edge-1": 0.05},
            drain_seed=seed,
        )
        sessions = ["alice", "bob"]
        regions = {"alice": "edge-0", "bob": "edge-1"}
        floors: Dict[str, Dict[int, int]] = {name: {} for name in sessions}

        async def go():
            violations: List[str] = []
            async with router:
                for step in range(steps):
                    session = rng.choice(sessions)
                    if rng.random() < 0.4:
                        report = await router.apply_mutations(
                            [
                                Mutation.add_triple(
                                    f"GeoEntity{rng.randrange(40)}",
                                    "worksFor",
                                    f"Org{step}",
                                )
                            ],
                            session=session,
                        )
                        floor = floors[session]
                        for shard, shard_report in report.shard_reports:
                            floor[shard] = max(
                                floor.get(shard, 0), shard_report.epoch
                            )
                    else:
                        response = await router.submit(
                            ServiceRequest(rng.choice(facts), "dka", "gemma2:9b"),
                            session=session,
                            region=regions[session],
                        )
                        if response.outcome is not RequestOutcome.COMPLETED:
                            continue
                        vector = response.epoch_vector
                        for shard, epoch in floors[session].items():
                            if vector[shard] < epoch:
                                violations.append(
                                    f"{session} step {step}: shard {shard} at "
                                    f"{vector[shard]} below own write {epoch}"
                                )
                        if response.served_by not in (None, "primary"):
                            assert response.staleness_epochs is not None
                            watermark = router.geo.watermark_vector(response.served_by)
                            assert all(
                                v >= w for v, w in zip(vector, watermark)
                            ), "edge served below its reported watermark"
                await router.drain_edges()
                for name in router.geo_tier.live_names:
                    router.geo.verify_converged(name)
            return violations

        assert asyncio.run(go()) == []
