"""Sharded store + scatter-gather router: routing, epochs, merge determinism."""

from __future__ import annotations

import asyncio
import random
import sys
import zlib
from contextlib import nullcontext

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos import FaultEvent, FaultInjector, FaultSchedule, FaultSpec, VirtualClock
from repro.kg import Triple
from repro.obs import Observability, Tracer
from repro.retrieval.corpus import Document
from repro.service import (
    LoadGenerator,
    RequestOutcome,
    RetryPolicy,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ShardedValidationService,
    TCPValidationFrontend,
    ValidationService,
    percentile,
)
from repro.store import (
    HashRing,
    Mutation,
    ShardedStore,
    mutation_shard_key,
)
from repro.store import sharding
from repro.store.sharding import RING_MEMO_CAPACITY
from support import (
    build_mixed_workload,
    epochs_served,
    mark_unhealthy,
    parse_exposition,
    session_vector,
)


@pytest.fixture(scope="module")
def shard_runner():
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=16,
            world_scale=0.15,
            methods=("dka", "giv-z"),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def _triples(count: int):
    return [
        Triple(f"entity{i % 40}", f"pred{i % 6}", f"entity{(i + 7) % 40}")
        for i in range(count)
    ]


def _documents(count: int, prefix: str = "doc"):
    return [
        Document(
            doc_id=f"{prefix}{i}",
            url=f"https://corpus.example/{prefix}{i}",
            title=f"entity{i % 40} notes",
            text=f"entity{i % 40} relates to entity{(i + 7) % 40} via pred{i % 6}.",
            source="corpus.example",
            fact_id=f"fact-{i % 25}" if i % 3 else "",
        )
        for i in range(count)
    ]


class TestHashRing:
    def test_deterministic_and_in_range(self):
        ring = HashRing(5)
        keys = [f"entity{i}" for i in range(500)]
        first = [ring.shard_for(key) for key in keys]
        second = [HashRing(5).shard_for(key) for key in keys]
        assert first == second
        assert set(first) <= set(range(5))
        # Every shard owns a non-trivial slice of a 500-key space.
        for shard in range(5):
            assert first.count(shard) > 0

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"k{i}") for i in range(50)} == {0}

    def test_growing_the_ring_remaps_only_a_fraction(self):
        keys = [f"entity{i}" for i in range(2000)]
        four, five = HashRing(4), HashRing(5)
        moved = sum(1 for key in keys if four.shard_for(key) != five.shard_for(key))
        # Consistent hashing: ~1/5 of keys move to the new shard; a modulo
        # partition would remap ~4/5.  Allow slack for ring granularity.
        assert moved / len(keys) < 0.5
        # ...and the keys that moved, moved *to* the new shard mostly.
        gained = sum(
            1 for key in keys
            if four.shard_for(key) != five.shard_for(key) and five.shard_for(key) == 4
        )
        assert gained / max(1, moved) > 0.8

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)

    def test_owner_memo_is_bounded_and_never_changes_an_answer(self):
        rng = random.Random(26)
        # More distinct keys than the memo holds, with repeats: hits, misses
        # and whole-memo evictions all happen.
        pool = [f"entity{rng.getrandbits(40)}" for _ in range(RING_MEMO_CAPACITY + 2000)]
        keys = [rng.choice(pool) for _ in range(10_000)]
        ring, fresh = HashRing(3), HashRing(3)
        for key in keys:
            owner = ring.shard_for(key)
            assert len(ring._memo) <= RING_MEMO_CAPACITY
            fresh._memo.clear()
            assert owner == fresh.shard_for(key)
        assert len(set(keys)) > RING_MEMO_CAPACITY


class TestMutationRouting:
    def test_triples_route_by_subject(self):
        mutation = Mutation.add_triple("Alice_Smith", "worksFor", "Acme_Corp")
        assert mutation_shard_key(mutation) == "Alice_Smith"
        removal = Mutation.remove_triple("Alice_Smith", "worksFor", "Acme_Corp")
        assert mutation_shard_key(removal) == "Alice_Smith"

    def test_documents_route_by_fact_then_doc_id(self):
        with_fact = Mutation.add_document(
            Document(doc_id="d1", url="u", title="t", text="x", source="s", fact_id="fb-1")
        )
        assert mutation_shard_key(with_fact) == "fb-1"
        without_fact = Mutation.add_document(
            Document(doc_id="d2", url="u", title="t", text="x", source="s")
        )
        assert mutation_shard_key(without_fact) == "d2"


class TestShardedStore:
    def test_partition_covers_everything_exactly_once(self):
        triples, documents = _triples(120), _documents(60)
        store = ShardedStore.partition(triples, documents, num_shards=3)
        assert store.total_triples == len(set(triples))
        assert store.total_documents == len(documents)
        for triple in set(triples):
            owner = store.shard_for(triple.subject)
            for index, shard in enumerate(store.shards):
                assert (triple in shard.graph) == (index == owner)
        for document in documents:
            owner = store.shard_for(document.fact_id or document.doc_id)
            for index, shard in enumerate(store.shards):
                assert (document.doc_id in shard.corpus) == (index == owner)

    def test_apply_routes_and_bumps_only_owning_epochs(self):
        store = ShardedStore.partition(_triples(60), _documents(30), num_shards=4)
        assert store.epoch_vector == (1, 1, 1, 1)
        mutation = Mutation.add_triple("entity3", "knows", "entity9")
        owner = store.shard_of(mutation)
        report = store.apply([mutation])
        assert report.shards_touched == (owner,)
        assert report.epoch_vector[owner] == 2
        assert sum(report.epoch_vector) == store.epoch == 4 + 1
        assert report.total_ops == 1

    def test_rejected_batch_leaves_every_shard_untouched(self):
        store = ShardedStore.partition(_triples(60), num_shards=3)
        before = store.state_digests(include_index=False)
        vector = store.epoch_vector
        batch = [
            Mutation.add_triple("entity1", "knows", "entity2"),
            # Routed to a (likely different) shard and invalid there:
            Mutation.remove_triple("no_such_entity", "nope", "never"),
        ]
        with pytest.raises(ValueError):
            store.apply(batch)
        assert store.state_digests(include_index=False) == before
        assert store.epoch_vector == vector

    def test_replay_twin_is_byte_identical_per_shard(self):
        store = ShardedStore.partition(_triples(80), _documents(40), num_shards=3)
        victim = _triples(80)[0]
        store.apply([
            Mutation.add_triple("entity5", "founded", "entity11"),
            Mutation.remove_triple(victim.subject, victim.predicate, victim.object),
            Mutation.add_document(_documents(1, prefix="late")[0]),
        ])
        twin = store.replay_twin()
        assert twin.state_digests() == store.state_digests()
        assert twin.epoch_vector == store.epoch_vector

    def test_save_load_round_trip(self, tmp_path):
        store = ShardedStore.partition(_triples(50), _documents(20), num_shards=2)
        prefix = str(tmp_path / "fleet")
        paths = store.save(prefix)
        assert len(paths) == 2
        loaded = ShardedStore.load(prefix, 2)
        assert loaded.state_digests() == store.state_digests()
        assert loaded.epoch_vector == store.epoch_vector

    def test_one_shard_is_the_single_file_and_another_shape_is_refused(self, tmp_path):
        prefix = tmp_path / "fleet"
        one = ShardedStore.partition(_triples(20), num_shards=1)
        assert one.save(str(prefix)) == [str(prefix)]
        assert ShardedStore.load(str(prefix), 1).state_digests() == one.state_digests()
        for wrong in (2, 3):
            with pytest.raises(ValueError, match=r"holds 1 saved shard"):
                ShardedStore.load(str(prefix), wrong)
        # A one-shard fleet under its old name is refused, never loaded empty.
        prefix.rename(tmp_path / "fleet.shard0")
        with pytest.raises(ValueError, match=r"fleet\.shard0\), not the 1 requested"):
            ShardedStore.load(str(prefix), 1)
        with pytest.raises(FileNotFoundError):
            ShardedStore.load(str(tmp_path / "nothing"), 2)

    def test_ring_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShardedStore([])


class TestShardedServiceRouting:
    def test_requests_land_on_their_owning_shard(self, shard_runner):
        dataset = shard_runner.dataset("factbench")
        router = ShardedValidationService.from_runner(
            shard_runner, 4, ServiceConfig(enable_cache=False)
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        per_shard = [snapshot.completed for snapshot in router.metrics.per_shard()]
        expected = [0, 0, 0, 0]
        for request in requests:
            expected[router.shard_for(request)] += 1
        assert per_shard == expected
        assert router.metrics.snapshot().completed == len(requests)

    def test_scatter_gather_merge_is_deterministic_and_unsharded_identical(
        self, shard_runner
    ):
        dataset = shard_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        requests += [ServiceRequest(fact, "giv-z", "gemma2:9b") for fact in dataset]
        config = ServiceConfig(enable_cache=False, max_batch_size=4)

        async def sharded():
            router = ShardedValidationService.from_runner(shard_runner, 3, config)
            async with router:
                return await router.submit_many(requests)

        async def unsharded():
            service = ValidationService.from_runner(shard_runner, config)
            async with service:
                return await asyncio.gather(*(service.submit(r) for r in requests))

        gathered = asyncio.run(sharded())
        flat = asyncio.run(unsharded())
        assert len(gathered) == len(requests)
        for request, sharded_response, plain_response in zip(requests, gathered, flat):
            assert sharded_response.result.fact_id == request.fact.fact_id
            assert sharded_response.result == plain_response.result

    def test_epoch_vector_stamped_and_composite_sum(self, shard_runner):
        store = shard_runner.sharded_store("factbench", 3)
        router = ShardedValidationService.from_runner(
            shard_runner, 3, ServiceConfig(), store=store
        )
        fact = shard_runner.dataset("factbench")[0]

        async def go():
            async with router:
                response = await router.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                report = await router.apply_mutations(
                    [Mutation.add_triple(fact.triple.subject, "updatedBy", "Feed_X")]
                )
                after = await router.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                return response, report, after

        response, report, after = asyncio.run(go())
        owner = store.shard_for(fact.triple.subject)
        # Pre-ingest: every shard is at its genesis epoch.
        assert response.epoch_vector == (1, 1, 1)
        assert response.epoch == sum(response.epoch_vector)
        assert report.epoch_vector[owner] == 2
        # Post-ingest: the owning component advanced, the response is a
        # fresh (non-cached) judgement at the new epoch.
        assert after.epoch_vector[owner] == 2
        assert not after.cached
        assert after.result == response.result  # DKA is corpus-independent

    def test_ingest_costs_one_miss_per_coordinate_on_the_owning_shard_only(
        self, shard_runner
    ):
        """Cold pass, warm pass, an ingest routed to one shard, a third
        pass: the owner's cache re-judges each of its coordinates exactly
        once (one extra miss apiece), and every other shard counts what a
        second warm pass gives — exact integers, not a hit rate."""
        store = shard_runner.sharded_store("factbench", 4).replay_twin()
        router = ShardedValidationService.from_runner(
            shard_runner, 4, ServiceConfig(queue_depth=4096), store=store
        )
        requests = [
            ServiceRequest(fact, "dka", "gemma2:9b")
            for fact in shard_runner.dataset("factbench")
        ]
        owner = router.shard_for(requests[0])
        batch = [
            Mutation.add_triple(requests[0].fact.triple.subject, "updatedBy", "Feed_X")
        ]

        async def go():
            async with router:
                await router.submit_many(requests)
                warm = await router.submit_many(requests)
                report = await router.apply_mutations(batch)
                return warm, report, await router.submit_many(requests)

        warm, report, after = asyncio.run(go())
        assert report.shards_touched == (owner,)
        assert report.epoch_vector == tuple(2 if i == owner else 1 for i in range(4))
        assert all(response.cached for response in warm)
        owned = [0] * 4
        for request in requests:
            owned[router.shard_for(request)] += 1
        assert owned[owner] and sum(owned) - owned[owner]
        for index, group in enumerate(router.groups):
            stats = group[0].cache.stats()
            if index == owner:
                assert (stats.hits, stats.misses) == (owned[index], 2 * owned[index])
            else:
                assert (stats.hits, stats.misses) == (2 * owned[index], owned[index])
        for request, response in zip(requests, after):
            assert response.cached == (router.shard_for(request) != owner)

    def test_store_and_service_shard_counts_must_agree(self, shard_runner):
        store = shard_runner.sharded_store("factbench", 3)
        with pytest.raises(ValueError):
            ShardedValidationService.from_runner(shard_runner, 2, store=store)

    def test_rejected_cross_shard_ingest_mutates_no_shard(self, shard_runner):
        # The store-layer all-or-nothing contract must hold on the serving
        # path too: a batch whose sub-batch one shard rejects leaves every
        # shard's state and epoch untouched, fleet-wide.
        store = ShardedStore.partition(_triples(60), num_shards=3)
        router = ShardedValidationService.from_runner(
            shard_runner, 3, ServiceConfig(), store=store
        )
        good = Mutation.add_triple("entity1", "knows", "entity2")
        bad = Mutation.remove_triple("no_such_entity", "nope", "never")
        assert store.shard_of(good) != store.shard_of(bad)  # genuinely cross-shard
        before = store.state_digests(include_index=False)
        vector = store.epoch_vector

        async def go():
            async with router:
                with pytest.raises(ValueError):
                    await router.apply_mutations([good, bad])

        asyncio.run(go())
        assert store.state_digests(include_index=False) == before
        assert store.epoch_vector == vector
        assert router.metrics.snapshot().ingests == 0

    def test_apply_mutations_requires_a_store(self, shard_runner):
        router = ShardedValidationService.from_runner(shard_runner, 2)

        async def go():
            async with router:
                with pytest.raises(RuntimeError):
                    await router.apply_mutations(
                        [Mutation.add_triple("a", "b", "c")]
                    )

        asyncio.run(go())

    def test_submit_after_stop_raises(self, shard_runner):
        fact = shard_runner.dataset("factbench")[0]
        router = ShardedValidationService.from_runner(shard_runner, 2, ServiceConfig())

        async def go():
            async with router:
                await router.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
            with pytest.raises(RuntimeError):
                await router.submit(ServiceRequest(fact, "dka", "gemma2:9b"))

        asyncio.run(go())

    def test_mixed_read_write_load_through_the_router(self, shard_runner):
        dataset = shard_runner.dataset("factbench")
        # A fresh fleet (not the module-cached runner one): the epoch
        # accounting below assumes genesis state.
        world = shard_runner.world
        triples = [
            Triple(world.name(f.subject), f.predicate, world.name(f.object))
            for f in world.facts.all_facts()
        ]
        store = ShardedStore.partition(
            triples, list(shard_runner.corpus("factbench")), num_shards=4
        )
        # Non-zero time scale: the ingest only quiesces its owning shard
        # (the rest of the fleet keeps serving), so reads must be slow
        # enough that some genuinely start after the write lands.
        router = ShardedValidationService.from_runner(
            shard_runner, 4, ServiceConfig(queue_depth=4096, time_scale=0.01),
            store=store,
        )
        target = dataset[0]
        batch = [Mutation.add_triple(target.triple.subject, "updatedBy", "Wire_A")]
        workload = build_mixed_workload(
            [dataset], ["dka"], ["gemma2:9b"], 80, [batch], seed=3
        )
        report = LoadGenerator(router, workload, concurrency=4).run_sync()
        assert report.completed == 80
        assert report.ingests == 1
        assert report.rejected == 0 and report.failures == 0
        # The ingest bumped exactly one shard: the composite epoch served
        # before and after differs by one.
        served = epochs_served(report)
        assert served[0] == 4  # genesis: every shard at epoch 1
        assert served[-1] == 5
        assert report.snapshot.ingests == 1
        # Responses served at the new composite carry the owner's bumped
        # component in their epoch vector.
        owner = store.shard_for(target.triple.subject)
        post = [r for r in report.responses
                if r.outcome is RequestOutcome.COMPLETED and r.epoch == 5]
        assert post and all(r.epoch_vector[owner] == 2 for r in post)

    def test_tcp_frontend_serves_a_sharded_router(self, shard_runner):
        import json

        dataset = shard_runner.dataset("factbench")
        store = shard_runner.sharded_store("factbench", 3)

        async def go():
            router = ShardedValidationService.from_runner(
                shard_runner, 3, ServiceConfig(), store=store
            )
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer.write(
                        json.dumps(
                            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                             "method": "dka", "model": "gemma2:9b", "id": "shard-req"}
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply

        reply = asyncio.run(go())
        assert reply["outcome"] == "completed"
        assert reply["id"] == "shard-req"
        assert reply["verdict"] in {"true", "false", "invalid", "tie"}
        # The router's composite epoch vector rides on the wire.  (The store
        # is module-shared: compare against its live vector, not genesis.)
        assert reply["epoch_vector"] == list(store.epoch_vector)

    def test_metrics_rollup_concatenates_latency_windows(self, shard_runner):
        dataset = shard_runner.dataset("factbench")
        router = ShardedValidationService.from_runner(
            shard_runner, 2, ServiceConfig(enable_cache=False)
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]

        async def go():
            async with router:
                await router.submit_many(requests)

        asyncio.run(go())
        rollup = router.metrics.snapshot()
        shards = router.metrics.per_shard()
        assert rollup.completed == sum(s.completed for s in shards) == len(requests)
        # Wall is the longest shard window (snapshots are re-taken an instant
        # apart, so compare with a tolerance rather than exactly).
        assert rollup.wall_seconds == pytest.approx(
            max(s.wall_seconds for s in shards), abs=0.05
        )
        assert 0 < rollup.p50_latency_s <= rollup.p95_latency_s <= rollup.p99_latency_s
        # Fleet percentiles are those of the concatenated replica windows.
        # (Not bounded by the worst shard's p99: an interpolated percentile
        # of a concatenation can exceed every part's — see
        # test_service.py::TestMetrics.)
        windows = [
            latency
            for group in router.groups
            for service in group
            for latency in service.metrics.registry.get(
                "service_request_latency_seconds"
            ).window()
        ]
        assert len(windows) == len(requests)
        for q, value in ((50, rollup.p50_latency_s), (95, rollup.p95_latency_s),
                         (99, rollup.p99_latency_s)):
            assert value == percentile(windows, q)
        assert "shard" in router.metrics.format_shard_table()

    _REPLICA_ZERO = ("shard:0/replica:0", "shard:1/replica:0")
    _WHOLE_FLEET = ("shard:0", "shard:1")
    #: What happens to 8 reads -> (completed, rejected, errors, degraded, edge reads).
    _ACCOUNTING_ROWS = {
        "all-primary": ({}, (8, 0, 0, 0, 0)),
        "caught-up-edge": ({"region": "edge-0"}, (8, 0, 0, 0, 8)),
        "edge-past-the-staleness-bound": (
            {"region": "edge-0", "writes": 2, "fleet": {"staleness_bound_epochs": 1}},
            (8, 0, 0, 0, 0),
        ),
        "edge-sheds-primary-answers": (
            {"region": "edge-0", "concurrent": True, "config": {"queue_depth": 1}},
            None,  # how many shed is the scheduler's business; the sums are not
        ),
        "worker-raises-failover": (
            {"faults": ("error:1.0", _REPLICA_ZERO)}, (8, 0, 0, 0, 0)
        ),
        "stall-timeout-failover": (
            {"faults": ("stall:30", _REPLICA_ZERO), "fleet": {"request_timeout_s": 0.05}},
            (8, 0, 0, 0, 0),
        ),
        "whole-shard-down-failed": (
            {"faults": ("error:1.0", _WHOLE_FLEET)}, (0, 0, 8, 0, 0)
        ),
        "retry-budget-spent-degraded": (
            {
                "warm": True,
                "faults": ("error:1.0", _WHOLE_FLEET),
                "fleet": {
                    "retry_policy": RetryPolicy(
                        max_attempts=2, base_backoff_s=0.0, max_backoff_s=0.0
                    )
                },
            },
            (8, 0, 0, 8, 0),
        ),
    }

    @pytest.mark.parametrize("row", list(_ACCOUNTING_ROWS))
    def test_fleet_metrics_sum_to_the_routed_reads(self, shard_runner, row):
        """Whatever happens to a read on a 2x2 fleet with one edge — served
        by the primary tier or by the edge, shed by the edge and answered by
        the primary, rescued by a sibling, failed or degraded — the fleet
        snapshot counts it exactly once, ``errors`` is the router's
        ``FAILED`` count, and the primary tier's completions plus the
        edge's reads are the fleet's."""
        script, expected = self._ACCOUNTING_ROWS[row]
        region = script.get("region")
        requests = [
            ServiceRequest(fact, "dka", "gemma2:9b")
            for fact in shard_runner.dataset("factbench")[:8]
        ]
        router = ShardedValidationService.from_runner(
            shard_runner,
            2,
            ServiceConfig(enable_cache=False, **script.get("config", {})),
            store=shard_runner.sharded_store("factbench", 2).replay_twin(),
            replicas=2,
            edges=1,
            drain_interval_s=3600.0,  # no background tick: the edge lags by `writes`
            **script.get("fleet", {}),
        )

        async def go():
            async with router:
                for index in range(script.get("writes", 0)):
                    await router.apply_mutations(
                        [
                            Mutation.add_triple(
                                request.fact.triple.subject, "updatedBy", f"Feed_{index}"
                            )
                            for request in requests
                        ]
                    )
                routed = []
                if script.get("warm"):
                    routed += [await router.submit(request) for request in requests]
                if "faults" in script:
                    fault, targets = script["faults"]
                    injector = FaultInjector(
                        FaultSchedule(
                            [
                                FaultEvent(0.0, target, FaultSpec.parse(fault))
                                for target in targets
                            ]
                        ),
                        clock=router.clock,
                    )
                    router.set_fault_injection(injector)
                    injector.start()
                reads = [router.submit(request, region=region) for request in requests]
                if script.get("concurrent"):
                    return routed + list(await asyncio.gather(*reads))
                return routed + [await read for read in reads]

        routed = asyncio.run(asyncio.wait_for(go(), 60.0))
        snapshot = router.metrics.snapshot()
        outcomes = [response.outcome for response in routed]
        by_outcome = tuple(
            outcomes.count(outcome)
            for outcome in (
                RequestOutcome.COMPLETED,
                RequestOutcome.REJECTED,
                RequestOutcome.FAILED,
                RequestOutcome.DEGRADED,
            )
        )
        assert sum(by_outcome) == len(routed)
        assert by_outcome == (
            snapshot.completed, snapshot.rejected, snapshot.errors, snapshot.degraded
        )
        assert snapshot.errors == router.metrics.failures
        edge_reads = sum(response.served_by == "edge-0" for response in routed)
        edge_reads_total = parse_exposition(router.metrics.exposition())[
            "router_geo_edge_reads_total"
        ]["samples"]
        assert [value for _, _, value in edge_reads_total] == [edge_reads]
        assert (
            sum(shard.completed for shard in router.metrics.per_shard()) + edge_reads
            == snapshot.completed
        )
        if expected is not None:
            assert by_outcome + (edge_reads,) == expected
        elif row == "edge-sheds-primary-answers":
            edge_sheds = sum(
                service.metrics.snapshot().rejected
                for service in router.edge_services["edge-0"]
            )
            assert edge_sheds > 0 and snapshot.completed > edge_reads > 0
        if "failover" in row:
            # Rescued reads are failovers, whatever the sick workers counted.
            assert snapshot.failovers > 0 and snapshot.unhealthy_replicas > 0


@pytest.fixture(scope="module")
def wide_runner():
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=60,
            world_scale=0.15,
            methods=("dka",),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def _submit_calls(monkeypatch):
    """Every ``ValidationService.submit`` call made from now on."""
    calls = []
    submit = ValidationService.submit

    async def counting(service, request):
        calls.append(request)
        return await submit(service, request)

    monkeypatch.setattr(ValidationService, "submit", counting)
    return calls


def _subject_requests(runner, subjects=40, model="gemma2:9b"):
    """One ``dka`` request per subject, for the first ``subjects`` subjects."""
    by_subject = {}
    for fact in runner.dataset("factbench"):
        by_subject.setdefault(fact.triple.subject, fact)
    facts = list(by_subject.values())[:subjects]
    assert len(facts) == subjects
    return [ServiceRequest(fact, "dka", model) for fact in facts]


def _home(request, replicas=2):
    """A request's home replica, derived here from the definition: the crc32
    of its dataset, fact id, method and model, joined by NUL bytes."""
    fact = request.fact
    coordinate = f"{fact.dataset}\0{fact.fact_id}\0{request.method}\0{request.model}"
    return zlib.crc32(coordinate.encode()) % replicas


async def _served_by(router, request):
    """One read, and the ``(shard, replica)`` whose served count it moved."""
    before = [[health.served for health in healths] for healths in router.health]
    response = await router.submit(request)
    moved = [
        (shard, replica)
        for shard, healths in enumerate(router.health)
        for replica, health in enumerate(healths)
        if health.served != before[shard][replica]
    ]
    assert len(moved) == 1
    return response, moved[0]


class TestHitReadCost:
    """What a cache-hit read through a 2x2 router does, in counts."""

    READS = 2000

    @staticmethod
    async def _warm(router, requests):
        """Warm every replica's own cache, so each routed read is a hit."""
        for request in requests:
            for service in router.groups[router.shard_for(request)]:
                await service.submit(request)

    def _hit_reads(self, router, requests, profile=None):
        """``READS`` hits after the warm-up, with ``profile`` (a
        ``sys.setprofile`` hook) installed for the hits alone."""

        async def go():
            async with router:
                await self._warm(router, requests)
                sys.setprofile(profile)
                try:
                    return [
                        await router.submit(requests[index % len(requests)])
                        for index in range(self.READS)
                    ]
                finally:
                    sys.setprofile(None)

        responses = asyncio.run(go())
        assert all(
            r.outcome is RequestOutcome.COMPLETED and r.cached for r in responses
        )
        return responses

    def test_untraced_hits_hash_each_subject_once_and_open_no_span(
        self, wide_runner, monkeypatch
    ):
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2
        )
        requests = _subject_requests(wide_runner)
        hashed, homed, spans, labels = [], [], [], []
        point = sharding._point
        monkeypatch.setattr(sharding, "_point", lambda key: hashed.append(key) or point(key))
        home = router.balancer.home
        monkeypatch.setattr(router.balancer, "home", lambda key: homed.append(key) or home(key))
        label = router.balancer.describe
        monkeypatch.setattr(
            router.balancer,
            "describe",
            lambda *args: labels.append(args) or label(*args),
        )
        # Every way to open a span, or the null context a span-or-not
        # branch would hand back, seen as Python calls by a profiler hook.
        span_openers = {
            code.__code__: code.__qualname__
            for code in (Tracer.start_span, Tracer.span, Tracer.record_span, nullcontext.__init__)
        }

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in span_openers:
                spans.append(span_openers[frame.f_code])

        sys.setprofile(profile)
        nullcontext(None)  # the spy sees what it looks for
        sys.setprofile(None)
        assert spans == ["nullcontext.__init__"]
        spans.clear()
        self._hit_reads(router, requests, profile=profile)
        assert len(hashed) <= len(requests)
        assert len(homed) <= len(requests), "a coordinate's home is hashed once"
        assert spans == []
        assert labels == [], "a replica's label is formatted only on a fault"

    @pytest.mark.parametrize("timeout_s", [None, 30.0], ids=["no-timeout", "timeout"])
    def test_untraced_hits_never_call_the_replica_submit(
        self, wide_runner, monkeypatch, timeout_s
    ):
        """The router answers a hit from the replica's cache step in its own
        frame; only a miss goes through ``submit``.  Each coordinate is
        served by its home replica alone, and every replica is some
        coordinate's home."""
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2, request_timeout_s=timeout_s
        )
        requests = _subject_requests(wide_runner)
        reads = [requests[index % len(requests)] for index in range(self.READS)]

        async def go():
            async with router:
                await self._warm(router, requests)
                calls = _submit_calls(monkeypatch)
                hits, servers = [], {}
                for request in reads:
                    response, server = await _served_by(router, request)
                    hits.append(response)
                    servers.setdefault(request.fact.fact_id, set()).add(server)
                hit_calls = len(calls)
                miss = await router.submit(ServiceRequest(requests[0].fact, "dka", "qwen2.5:7b"))
                return hits, hit_calls, servers, miss, len(calls)

        hits, hit_calls, servers, miss, calls = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED and r.cached for r in hits)
        assert hit_calls == 0
        assert not miss.cached and calls == 1
        assert len(servers) == len(requests)
        assert all(len(replicas) == 1 for replicas in servers.values())
        assert set().union(*servers.values()) == {(s, r) for s in range(2) for r in range(2)}

    def test_untraced_hits_build_one_response_each(self, wide_runner, monkeypatch):
        """The response is the only record a hit builds: one per read."""
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2
        )
        requests = _subject_requests(wide_runner)
        built = []
        new = ServiceResponse.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        async def go():
            async with router:
                await self._warm(router, requests)
                monkeypatch.setattr(ServiceResponse, "__new__", counting_new)
                hits = [
                    await router.submit(requests[index % len(requests)])
                    for index in range(self.READS)
                ]
                monkeypatch.undo()
                return hits

        hits = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED and r.cached for r in hits)
        assert built == [ServiceResponse] * self.READS

    def test_traced_hits_keep_the_route_attempt_call_submit_tree(self, wide_runner):
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2
        )
        obs = Observability.for_clock(seed=42)
        router.set_observability(obs)
        responses = self._hit_reads(router, _subject_requests(wide_runner))
        for response in responses[-100:]:
            spans = obs.tracer.spans(response.trace_id)
            by_id = {span.span_id: span for span in spans}
            leaf = next(span for span in spans if span.name == "service.submit")
            chain = [leaf.name]
            while leaf.parent_id is not None:
                leaf = by_id[leaf.parent_id]
                chain.append(leaf.name)
            assert chain == [
                "service.submit", "replica.call", "router.attempt", "router.route"
            ]
            assert len(spans) == 4


class TestHomeReplica:
    """Cache-affine selection: in a caching group each coordinate reads from
    its home replica unless that replica is out or a full batch deeper."""

    def test_every_read_of_a_coordinate_goes_to_its_home(self, wide_runner):
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2
        )
        requests = _subject_requests(wide_runner) + _subject_requests(
            wide_runner, model="qwen2.5:7b"
        )

        async def go():
            async with router:
                servers = {}
                for index in range(400):
                    request = requests[index % len(requests)]
                    _, server = await _served_by(router, request)
                    servers.setdefault((request.fact.fact_id, request.model), set()).add(server)
                return servers

        servers = asyncio.run(go())
        assert {
            coordinate: {(router.shard_for(request), _home(request))}
            for request in requests
            for coordinate in [(request.fact.fact_id, request.model)]
        } == servers

    def test_a_stopped_home_fails_over_and_serves_again_on_readmission(self, wide_runner):
        clock = VirtualClock()
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(), replicas=2, clock=clock, probe_interval_s=0.25
        )
        request = _subject_requests(wide_runner)[0]
        shard, home = router.shard_for(request), _home(request)

        async def reads(count):
            return [(await _served_by(router, request))[1] for _ in range(count)]

        async def go():
            async with router:
                healthy = await reads(3)
                mark_unhealthy(router, shard, home)
                await router.groups[shard][home].stop(drain=False)
                stopped = await reads(3)
                await router.groups[shard][home].start()
                resting = await reads(3)
                clock.advance(0.25)
                readmitted = await reads(3)
                return healthy, stopped, resting, readmitted

        healthy, stopped, resting, readmitted = asyncio.run(go())
        assert healthy == [(shard, home)] * 3
        assert stopped == resting == [(shard, 1 - home)] * 3
        assert readmitted == [(shard, home)] * 3
        health = router.health[shard][home]
        assert health.healthy and health.readmissions == 1 and health.probes == 1

    @pytest.mark.parametrize("sibling_depth", [0, 2])
    def test_a_home_a_full_batch_deeper_loses_the_lead(self, wide_runner, sibling_depth):
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(max_batch_size=4), replicas=2
        )
        request = _subject_requests(wide_runner)[0]
        shard, home = router.shard_for(request), _home(request)
        group = router.groups[shard]
        group[1 - home]._pending = sibling_depth
        group[home]._pending = sibling_depth + 3
        assert router.balancer.order(shard, request) == [home, 1 - home]
        group[home]._pending = sibling_depth + 4
        assert router.balancer.order(shard, request) == [1 - home, home]

    def test_a_cacheless_router_splits_a_shards_reads_in_half(self, wide_runner):
        router = ShardedValidationService.from_runner(
            wide_runner, 2, ServiceConfig(enable_cache=False), replicas=2
        )
        requests = _subject_requests(wide_runner)
        reads = [requests[index % len(requests)] for index in range(200)]

        async def go():
            async with router:
                for request in reads:
                    await router.submit(request)
                return [[health.served for health in healths] for healths in router.health]

        served = asyncio.run(go())
        per_shard = [sum(router.shard_for(r) == shard for r in reads) for shard in range(2)]
        assert served == [[count - count // 2, count // 2] for count in per_shard]


class TestHitStepContract:
    """A read the router answers from a replica's cache step keeps every
    part of the read contract the queued path has."""

    POLICY = RetryPolicy(max_attempts=2, base_backoff_s=0.0, max_backoff_s=0.0, jitter=0.0)

    def _router(self, runner, replicas=1, **kwargs):
        return ShardedValidationService.from_runner(
            runner,
            2,
            ServiceConfig(),
            store=runner.sharded_store("factbench", 2).replay_twin(),
            replicas=replicas,
            **kwargs,
        )

    @staticmethod
    def _request(runner):
        return ServiceRequest(runner.dataset("factbench")[0], "dka", "gemma2:9b")

    @staticmethod
    def _touch(request, feed="Feed_X"):
        """A write to the request's owning shard: one epoch up there."""
        return [Mutation.add_triple(request.fact.triple.subject, "updatedBy", feed)]

    def test_a_paused_replica_holds_a_hit_until_the_apply(self, shard_runner):
        router = self._router(shard_runner)
        request = self._request(shard_runner)
        owner = router.shard_for(request)

        async def go():
            async with router:
                warm = await router.submit(request)
                assert (await router.submit(request)).cached
                router.groups[owner][0].pause_reads()
                read = asyncio.ensure_future(router.submit(request))
                for _ in range(5):
                    await asyncio.sleep(0)
                held = not read.done()
                await router.apply_mutations(self._touch(request))
                return warm, held, await read

        warm, held, read = asyncio.run(go())
        assert held, "a paused replica answered a hit at the old epoch"
        assert read.outcome is RequestOutcome.COMPLETED
        assert read.epoch_vector[owner] == warm.epoch_vector[owner] + 1
        assert read.epoch == sum(read.epoch_vector)

    def test_a_hit_feeds_the_stale_store_with_the_owning_shards_epoch(self, shard_runner):
        router = self._router(shard_runner, replicas=2, retry_policy=self.POLICY)
        request = self._request(shard_runner)
        owner = router.shard_for(request)

        async def go():
            async with router:
                await router.apply_mutations(self._touch(request))
                for service in router.groups[owner]:
                    await service.submit(request)  # the router never saw a miss
                hit = await router.submit(request)
                await router.apply_mutations(self._touch(request, "Feed_Y"))
                injector = FaultInjector(
                    FaultSchedule(
                        [
                            FaultEvent(
                                at_s=0.0,
                                target=f"shard:{owner}",
                                fault=FaultSpec.parse("error:1.0"),
                            )
                        ]
                    ),
                    clock=router.clock,
                )
                router.set_fault_injection(injector)
                injector.start()
                return hit, await router.submit(request)

        hit, degraded = asyncio.run(go())
        assert hit.cached and hit.epoch_vector[owner] == 2
        assert hit.epoch != 2, "the fleet sum must differ from the shard epoch"
        assert degraded.outcome is RequestOutcome.DEGRADED
        assert degraded.result == hit.result
        assert degraded.stale_epoch == hit.epoch_vector[owner] == 2
        assert degraded.epoch_vector[owner] == 3

    def test_an_edge_hit_carries_the_edges_stamp_and_counts(self, shard_runner, monkeypatch):
        router = self._router(shard_runner, edges=1, drain_interval_s=3600.0)
        request = self._request(shard_runner)
        owner = router.shard_for(request)
        edge_reads = router.geo_tier.edge_reads_total.labels(edge="edge-0")

        async def go():
            async with router:
                await router.apply_mutations(self._touch(request))
                await router.edge_services["edge-0"][owner].submit(request)
                calls = _submit_calls(monkeypatch)
                before = edge_reads.value
                response = await router.submit(request, region="edge-0")
                return response, edge_reads.value - before, len(calls)

        response, counted, calls = asyncio.run(go())
        assert calls == 0, "an edge hit is answered from the cache step"
        assert response.outcome is RequestOutcome.COMPLETED and response.cached
        assert response.served_by == "edge-0"
        assert response.epoch_vector == router.geo.edges["edge-0"].applied_vector == (1, 1)
        assert response.staleness_epochs == 1
        assert counted == 1


class TestResponseStampContract:
    """Every field the router stamps on a response, for every outcome shape.

    Each shape warms one coordinate at the genesis epochs, writes once to
    its owning shard (so the fleet vector is uneven and a stale verdict is
    visibly behind), then provokes the outcome — untraced and traced.
    """

    POLICY = RetryPolicy(max_attempts=2, base_backoff_s=0.0, max_backoff_s=0.0, jitter=0.0)

    #: shape -> (outcome, served_by, staleness_epochs, retries, has stale_epoch, has error)
    SHAPES = {
        "completed": (RequestOutcome.COMPLETED, None, None, 0, False, False),
        "completed-geo": (RequestOutcome.COMPLETED, "primary", 0, 0, False, False),
        "completed-retried": (RequestOutcome.COMPLETED, None, None, 1, False, False),
        "rejected": (RequestOutcome.REJECTED, None, None, 0, False, False),
        "rejected-geo": (RequestOutcome.REJECTED, "primary", 0, 0, False, False),
        "degraded": (RequestOutcome.DEGRADED, None, None, 1, True, True),
        "degraded-geo": (RequestOutcome.DEGRADED, "primary", 0, 1, True, True),
        "failed": (RequestOutcome.FAILED, None, None, 0, False, True),
        "failed-geo": (RequestOutcome.FAILED, "primary", 0, 0, False, True),
        "failed-retried": (RequestOutcome.FAILED, None, None, 1, False, True),
        "edge": (RequestOutcome.COMPLETED, "edge-0", 1, 0, False, False),
    }

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_stamped_field(self, shard_runner, shape, traced):
        outcome, served_by, staleness, retries, stale, errored = self.SHAPES[shape]
        kind = shape.split("-")[0]
        geo = served_by is not None
        shedding = kind == "rejected"
        router = ShardedValidationService.from_runner(
            shard_runner,
            2,
            ServiceConfig(
                enable_cache=False,
                queue_depth=1 if shedding else 256,
                time_scale=0.01 if shedding else 0.0,
            ),
            store=shard_runner.sharded_store("factbench", 2).replay_twin(),
            retry_policy=self.POLICY if retries or kind == "degraded" else None,
            edges=1 if geo else 0,
            drain_interval_s=3600.0,  # the edge never catches up on its own
        )
        obs = Observability.for_clock(seed=42)
        if traced:
            router.set_observability(obs)
        dataset = shard_runner.dataset("factbench")
        request = ServiceRequest(dataset[0], "dka", "gemma2:9b")
        owner = router.shard_for(request)
        primary = tuple(2 if index == owner else 1 for index in range(2))

        async def provoke():
            if kind in ("degraded", "failed"):
                injector = FaultInjector(
                    FaultSchedule(
                        [
                            FaultEvent(
                                at_s=0.0,
                                target=f"shard:{owner}",
                                fault=FaultSpec.parse("error:1.0"),
                            )
                        ]
                    ),
                    clock=router.clock,
                )
                router.set_fault_injection(injector)
                injector.start()
                if shape == "failed-retried":
                    # Never answered at these coordinates: nothing to degrade to.
                    return [
                        await router.submit(
                            ServiceRequest(request.fact, "giv-z", request.model)
                        )
                    ]
                return [await router.submit(request)]
            if shape == "completed-retried":
                replica = router.groups[owner][0]
                healthy_submit = replica.submit
                calls = []

                async def flaky(item):
                    calls.append(item)
                    if len(calls) == 1:
                        raise ValueError("first pass faults")
                    return await healthy_submit(item)

                replica.submit = flaky
                return [await router.submit(request)]
            if shedding:
                owned = [
                    ServiceRequest(fact, method, "gemma2:9b")
                    for fact in dataset
                    for method in ("dka", "giv-z")
                    if router.shard_for(ServiceRequest(fact, method, "gemma2:9b")) == owner
                ][:4]
                responses = await asyncio.gather(
                    *(router.submit(item) for item in owned)
                )
                return [r for r in responses if r.outcome is RequestOutcome.REJECTED]
            return [await router.submit(request, region="edge-0" if kind == "edge" else None)]

        async def go():
            async with router:
                warm = await router.submit(request)
                await router.apply_mutations(
                    [Mutation.add_triple(request.fact.triple.subject, "updatedBy", "Feed_X")]
                )
                return warm, await provoke()

        warm, responses = asyncio.run(go())
        assert warm.epoch_vector == (1, 1)
        assert responses, f"{shape}: the outcome was never provoked"
        vector = (1, 1) if kind == "edge" else primary
        for response in responses:
            assert response.outcome is outcome
            assert response.epoch_vector == vector
            assert response.epoch == sum(vector)
            assert response.served_by == served_by
            assert response.staleness_epochs == staleness
            assert response.retries == retries
            assert response.stale_epoch == (1 if stale else None)
            if errored:
                assert "injected error fault" in response.error
            else:
                assert response.error is None
            if kind == "degraded":
                assert response.result == warm.result and response.cached
            if not traced:
                assert response.trace_id is None
                continue
            # Primary-tier answers belong to the router's own root span; an
            # edge answers before the router opens one, so the trace is the
            # edge worker's.
            root = next(
                span
                for span in obs.tracer.spans(response.trace_id)
                if span.parent_id is None
            )
            assert root.name == ("service.submit" if kind == "edge" else "router.route")


class TestFleetShapes:
    """``LoadGenerator`` and the TCP frontend drive every fleet shape the
    same way: the 1x1 fleet (the single node) and a 2x1 fleet answer one
    schedule, ``session``/``region`` hints included, with the same outcomes
    and verdicts."""

    def _routers(self, runner):
        config = ServiceConfig(max_batch_size=4)
        return [
            ShardedValidationService.from_runner(
                runner,
                shards,
                config,
                store=runner.sharded_store("factbench", shards).replay_twin(),
            )
            for shards in (1, 2)
        ]

    def test_loadgen_drives_both_with_sessions_and_regions(self, shard_runner):
        dataset = shard_runner.dataset("factbench")
        batch = [Mutation.add_triple(dataset[0].triple.subject, "updatedBy", "Feed_X")]
        schedule = build_mixed_workload(
            [dataset], ["dka", "giv-z"], ["gemma2:9b"], 40, [batch], seed=5
        )
        routers = self._routers(shard_runner)
        single, sharded = (
            LoadGenerator(
                router, schedule, concurrency=4, regions=["edge-0", None]
            ).run_sync()
            for router in routers
        )
        # Which client picks which item is scheduling; that every item went
        # out under a client's own session token is not.
        clients = {f"client-{index}" for index in range(4)}
        assert set(single.sessions) == set(sharded.sessions) == clients
        assert single.outcome_counts() == sharded.outcome_counts()
        assert single.outcome_counts()["completed"] == 40
        assert single.outcome_counts()["ingested"] == 1
        assert single.verdicts() == sharded.verdicts()
        assert {len(r.epoch_vector) for r in single.responses} == {1}
        assert {len(r.epoch_vector) for r in sharded.responses} == {2}

    def test_a_router_without_a_geo_tier_records_no_session(self, shard_runner):
        """Only an edge read consults a session's last-write vector, so a
        fleet without edges keeps none, however many writes carry a token."""
        subject = shard_runner.dataset("factbench")[0].triple.subject
        routers = self._routers(shard_runner)

        async def write(router):
            async with router:
                for index in range(3):
                    report = await router.apply_mutations(
                        [Mutation.add_triple(subject, "updatedBy", f"Feed_{index}")],
                        session="writer",
                    )
                return report

        for router in routers:
            report = asyncio.run(write(router))
            assert [shard.epoch for _, shard in report.shard_reports] == [4]  # genesis + 3
            assert session_vector(router, "writer") == {}

    def test_tcp_frontend_forwards_session_and_region_to_both(self, shard_runner):
        import json

        dataset = shard_runner.dataset("factbench")
        lines = [
            {"dataset": "factbench", "fact_id": fact.fact_id, "method": "dka",
             "model": "gemma2:9b", "id": index, "session": "client-0",
             "region": "edge-0"}
            for index, fact in enumerate(dataset[:6])
        ]

        async def drive(router):
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    replies = []
                    for line in lines:
                        writer.write(json.dumps(line).encode() + b"\n")
                        await writer.drain()
                        replies.append(json.loads(await reader.readline()))
                    writer.close()
                    await writer.wait_closed()
                    return replies

        single, sharded = (asyncio.run(drive(router)) for router in self._routers(shard_runner))
        shared = ("id", "outcome", "verdict", "cached", "fact_id", "method", "model")
        assert [{key: reply.get(key) for key in shared} for reply in single] == [
            {key: reply.get(key) for key in shared} for reply in sharded
        ]
        assert [reply["outcome"] for reply in single] == ["completed"] * len(lines)
        assert {len(reply["epoch_vector"]) for reply in single} == {1}
        assert {len(reply["epoch_vector"]) for reply in sharded} == {2}
