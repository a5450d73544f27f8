"""Replica groups and the replicated router: log shipping, fan-out, failover.

Store layer: :class:`ReplicaGroup` keeps R copies byte-identical by
shipping every batch primary-first, rejects invalid batches before any
copy applies, and detects out-of-band divergence.

Service layer: the router balances single-fact reads across a shard's
replicas, reroutes around raising / stalling / killed replicas without
surfacing ``FAILED`` while a sibling lives, re-admits recovered replicas
via health probes, and ships ingests to every replica in lockstep.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.kg import Triple
from repro.retrieval.corpus import Document
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    ValidationService,
)
from repro.store import (
    Mutation,
    ReplicaDivergedError,
    ReplicaGroup,
    ShardedStore,
    VersionedKnowledgeStore,
)
from repro.validation.base import ValidationResult, ValidationStrategy, Verdict
from support import calls_of, session_vector


@pytest.fixture(scope="module")
def replica_runner():
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=16,
            world_scale=0.15,
            methods=("dka",),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def _store(name: str = "primary") -> VersionedKnowledgeStore:
    return VersionedKnowledgeStore.bootstrap(
        triples=[
            Triple("Ada", "worksFor", "Acme"),
            Triple("Acme", "locatedIn", "Zurich"),
        ],
        documents=[
            Document(
                doc_id="d1",
                url="https://corpus.example/d1",
                title="Ada dossier",
                text="Ada works for Acme in Zurich.",
                source="corpus.example",
                fact_id="fact-1",
            )
        ],
        name=name,
    )


class TestReplicaGroup:
    def test_replicate_builds_byte_identical_copies(self):
        group = ReplicaGroup.replicate(_store(), 3)
        assert group.num_replicas == 3
        assert group.primary is group.stores[0]
        assert len({store.state_digest(include_index=True) for store in group.stores}) == 1
        assert group.verify() == group.primary.state_digest(include_index=False)

    def test_apply_ships_to_every_replica_at_the_same_epoch(self):
        group = ReplicaGroup.replicate(_store(), 3)
        report = group.apply(
            [
                Mutation.add_triple("Ada", "mentors", "Grace"),
                Mutation.add_document(
                    Document(
                        doc_id="d2",
                        url="https://corpus.example/d2",
                        title="Grace dossier",
                        text="Grace is mentored by Ada at Acme.",
                        source="corpus.example",
                        fact_id="fact-2",
                    )
                ),
            ]
        )
        assert report.epoch == 2
        assert all(store.epoch == 2 for store in group.stores)
        assert len({store.state_digest(include_index=True) for store in group.stores}) == 1
        for store in group.stores:
            assert Triple("Ada", "mentors", "Grace") in store.graph
            assert len(store.corpus) == 2

    def test_rejected_batch_leaves_every_copy_untouched(self):
        group = ReplicaGroup.replicate(_store(), 3)
        before = [store.state_digest(include_index=True) for store in group.stores]
        with pytest.raises(ValueError, match="absent triple"):
            group.apply([Mutation.remove_triple("Ada", "never", "existed")])
        assert [store.state_digest(include_index=True) for store in group.stores] == before
        assert all(store.epoch == 1 for store in group.stores)

    def test_out_of_band_mutation_is_detected_as_divergence(self):
        group = ReplicaGroup.replicate(_store(), 2)
        # Someone mutates a replica around the group (the forbidden path).
        group.stores[1].apply([Mutation.add_triple("Rogue", "edit", "Replica")])
        with pytest.raises(ReplicaDivergedError):
            group.apply([Mutation.add_triple("Ada", "mentors", "Grace")])

    def test_replica_refusing_a_batch_the_primary_applied_is_divergence(self):
        """Regression: the replica's ``ValueError`` used to escape as a
        "nothing was applied" error with the primary already at epoch 2."""
        triple = Triple("Ada", "worksFor", "Acme")
        group = ReplicaGroup.replicate(_store(), 2)
        group.stores[1].graph.remove(triple)
        with pytest.raises(
            ReplicaDivergedError,
            match=r"replica primary-replica1 at epoch 1 refused .* primary applied at epoch 2",
        ) as raised:
            group.apply([Mutation.remove_triple(*triple.as_tuple())])
        assert isinstance(raised.value.__cause__, ValueError)
        assert [store.epoch for store in group.stores] == [2, 1]
        # The passing twin: a batch the *primary* refuses is still a plain
        # ValueError and no member moves.
        group = ReplicaGroup.replicate(_store(), 2)
        group.primary.graph.remove(triple)
        with pytest.raises(ValueError, match="absent triple") as raised:
            group.apply([Mutation.remove_triple(*triple.as_tuple())])
        assert not isinstance(raised.value, ReplicaDivergedError)
        assert [store.epoch for store in group.stores] == [1, 1]

    def test_bypass_edit_is_raised_when_ops_since_anchor_reach_the_anchored_size(
        self, digest_calls
    ):
        """An edit that never went through ``apply`` leaves epochs and
        chains equal; the size rule bounds how long it hides."""
        primary = VersionedKnowledgeStore.bootstrap(
            triples=[Triple(f"e{i}", "p", f"e{i + 1}") for i in range(6)]
        )
        group = ReplicaGroup.replicate(primary, 2)
        size = len(primary.graph) + len(primary.corpus)  # live items at the anchor
        assert size == 6
        group.stores[1].graph.add(Triple("Rogue", "edit", "Replica"))
        batch = [Mutation.add_triple("e0", "q", "e1"), Mutation.add_triple("e1", "q", "e2")]
        crossing = -(-size // len(batch))  # the ship where ops-since-anchor >= size
        digest_calls.clear()
        for _ in range(crossing - 1):
            group.apply(batch)
            assert group.stores[0].chain_digest == group.stores[1].chain_digest
        assert digest_calls == [], "an audit ran before the size rule was due"
        with pytest.raises(ReplicaDivergedError, match="store-replica1"):
            group.apply(batch)
        assert len(digest_calls) == 2

    def test_empty_group_and_bad_replica_counts_rejected(self):
        with pytest.raises(ValueError):
            ReplicaGroup([])
        with pytest.raises(ValueError):
            ReplicaGroup.replicate(_store(), 0)
        mismatched = [_store("a"), _store("b")]
        mismatched[1].apply([Mutation.add_triple("Extra", "epoch", "Bump")])
        with pytest.raises(ValueError, match="epochs diverge"):
            ReplicaGroup(mismatched)

    def test_groups_replicated_from_fresh_twins_are_isolated(self, replica_runner):
        """Replicating a fresh ``replay_twin()`` of the runner's cached fleet
        gives byte-identical groups sharing no store state, so ingesting
        through one fleet never aliases (or epoch-skews) another."""
        fleet = replica_runner.sharded_store("factbench", 2)
        groups_a = fleet.replay_twin().replicate(2)
        groups_b = fleet.replay_twin().replicate(2)
        subject = list(replica_runner.dataset("factbench"))[0].triple.subject
        owner = ShardedStore(
            [group.primary for group in groups_a]
        ).shard_for(subject)
        for group_a, group_b in zip(groups_a, groups_b):
            assert group_a.primary is not group_b.primary
            assert group_a.primary.state_digest() == group_b.primary.state_digest()
        groups_a[owner].apply([Mutation.add_triple(subject, "seenBy", "FleetA")])
        # Fleet A advanced in lockstep; fleet B (and the runner's cached
        # fleet) never moved.
        assert groups_a[owner].epoch == 2
        assert groups_b[owner].epoch == 1
        assert replica_runner.sharded_store("factbench", 2).shards[owner].epoch == 1
        groups_b[owner].verify()

    def test_ragged_replica_groups_rejected(self, replica_runner):
        config = ServiceConfig(enable_cache=False)
        provider = _healthy_provider(replica_runner)
        with pytest.raises(ValueError, match="same number of replica services"):
            ShardedValidationService(
                [
                    [ValidationService(provider, config), ValidationService(provider, config)],
                    [ValidationService(provider, config)],
                ]
            )

    def test_sharded_fleet_replicates_per_shard(self):
        triples = [Triple(f"e{i}", "p", f"e{i+1}") for i in range(12)]
        fleet = ShardedStore.partition(triples=triples, num_shards=3)
        groups = fleet.replicate(2)
        assert len(groups) == 3
        for shard, group in zip(fleet.shards, groups):
            assert group.primary is shard
            assert group.num_replicas == 2
            assert len({store.state_digest(include_index=False) for store in group.stores}) == 1


class _FlakyStrategy(ValidationStrategy):
    """Delegates to a real strategy, raising while ``broken["broken"]``."""

    name = "flaky"

    def __init__(self, inner: ValidationStrategy, broken: dict) -> None:
        self.inner = inner
        self.broken = broken

    def validate(self, fact) -> ValidationResult:
        if self.broken["broken"]:
            raise ConnectionError("replica backend unreachable")
        return self.inner.validate(fact)


class _StallStrategy(ValidationStrategy):
    name = "stall"

    def __init__(self, simulated_seconds: float) -> None:
        self.simulated_seconds = simulated_seconds

    def validate(self, fact) -> ValidationResult:
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=Verdict.TRUE,
            gold_label=fact.label,
            model="stall-model",
            method=self.name,
            latency_seconds=self.simulated_seconds,
            prompt_tokens=1,
            completion_tokens=1,
            raw_response="stalling",
        )


def _healthy_provider(runner):
    def provider(method, dataset, model):
        return runner.build_strategy(method, dataset, runner.registry.get(model))

    return provider


def _requests(runner, count=None):
    dataset = runner.dataset("factbench")
    facts = list(dataset)[: count or len(dataset)]
    return [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts]


class TestReadFanOut:
    def test_reads_spread_across_replicas_by_queue_depth(self, replica_runner):
        config = ServiceConfig(enable_cache=False, max_batch_size=2, time_scale=0.01)
        router = ShardedValidationService.from_runner(
            replica_runner, 1, config, replicas=3
        )
        requests = _requests(replica_runner) * 3

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        served = [health.served for health in router.health[0]]
        # Every replica of the single shard took a meaningful share.
        assert all(count > 0 for count in served)
        assert sum(served) == len(requests)
        per_replica = [snap.completed for _, _, snap, _ in router.metrics.per_replica()]
        assert sum(per_replica) == len(requests)

    def test_replicated_verdicts_match_plain_service(self, replica_runner):
        config = ServiceConfig(enable_cache=False, max_batch_size=4)
        requests = _requests(replica_runner)

        async def run_router():
            router = ShardedValidationService.from_runner(
                replica_runner, 2, config, replicas=2
            )
            async with router:
                return await router.submit_many(requests)

        async def run_plain():
            service = ValidationService.from_runner(replica_runner, config)
            async with service:
                return await asyncio.gather(
                    *(service.submit(request) for request in requests)
                )

        routed = asyncio.run(run_router())
        plain = asyncio.run(run_plain())
        for request, sharded_response, plain_response in zip(requests, routed, plain):
            assert sharded_response.result.fact_id == request.fact.fact_id
            assert sharded_response.result == plain_response.result


class TestFailover:
    def _router(self, runner, broken, *, replicas=2, config=None, **kwargs):
        """One shard: replica 0 healthy, replicas 1.. flaky via ``broken``."""
        config = config or ServiceConfig(enable_cache=False, max_batch_size=4)
        healthy_provider = _healthy_provider(runner)

        def flaky_provider(method, dataset, model):
            return _FlakyStrategy(healthy_provider(method, dataset, model), broken)

        group = [ValidationService(healthy_provider, config)]
        group.extend(
            ValidationService(flaky_provider, config) for _ in range(replicas - 1)
        )
        return ShardedValidationService([group], **kwargs)

    def test_raising_replica_fails_over_with_zero_failed(self, replica_runner):
        broken = {"broken": True}
        router = self._router(replica_runner, broken)
        requests = _requests(replica_runner)

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        # Every request completed: the sick replica's traffic was rescued.
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert router.metrics.failures == 0
        assert router.metrics.failovers > 0
        assert not router.health[0][1].healthy
        assert router.health[0][1].failures > 0
        # Accounting stays exact across failovers: the sick replica's own
        # error counts are subtracted once a sibling completes the request.
        snapshot = router.metrics.snapshot()
        assert snapshot.completed == len(requests)
        assert snapshot.completed + snapshot.rejected + snapshot.errors == len(requests)
        assert snapshot.failovers == router.metrics.failovers
        assert snapshot.unhealthy_replicas == 1

    def test_all_replicas_down_surfaces_explicit_failed(self, replica_runner):
        broken = {"broken": True}
        config = ServiceConfig(enable_cache=False, max_batch_size=4)
        healthy_provider = _healthy_provider(replica_runner)

        def flaky_provider(method, dataset, model):
            return _FlakyStrategy(healthy_provider(method, dataset, model), broken)

        group = [ValidationService(flaky_provider, config) for _ in range(2)]
        router = ShardedValidationService([group])
        requests = _requests(replica_runner, 4)

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.FAILED for r in responses)
        for response in responses:
            assert "replica 0" in response.error and "replica 1" in response.error
            assert "ConnectionError" in response.error
        assert router.metrics.failures == len(requests)
        snapshot = router.metrics.snapshot()
        # Exactly one error accounted per failed request, attempts aside.
        assert snapshot.errors == len(requests)
        assert snapshot.completed + snapshot.rejected + snapshot.errors == len(requests)

    def test_stalling_replica_fails_over_after_timeout(self, replica_runner):
        config = ServiceConfig(enable_cache=False, max_batch_size=1, time_scale=0.01)
        healthy = ValidationService(_healthy_provider(replica_runner), config)
        stalling = ValidationService(
            lambda method, dataset, model: _StallStrategy(1000.0), config
        )
        router = ShardedValidationService(
            [[stalling, healthy]], request_timeout_s=0.2
        )
        requests = _requests(replica_runner, 3)

        async def go():
            async with router:
                return await asyncio.wait_for(router.submit_many(requests), timeout=10.0)

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert router.metrics.failures == 0
        assert router.health[0][0].timeouts > 0
        assert not router.health[0][0].healthy

    def test_probe_readmits_recovered_replica(self, replica_runner):
        broken = {"broken": True}
        router = self._router(
            replica_runner, broken, probe_interval_s=0.05
        )
        requests = _requests(replica_runner)

        async def go():
            async with router:
                await router.submit_many(requests[:6])
                sick = router.health[0][1]
                assert not sick.healthy
                served_while_down = sick.served
                # The replica recovers; after the probe interval the
                # balancer sends one canary and re-admits it.
                broken["broken"] = False
                await asyncio.sleep(0.08)
                await router.submit_many(requests)
                assert sick.healthy
                assert sick.probes > 0
                assert sick.readmissions >= 1
                assert sick.served > served_while_down

        asyncio.run(go())

    def test_failed_probe_resets_the_timer_and_stays_unhealthy(self, replica_runner):
        broken = {"broken": True}
        router = self._router(replica_runner, broken, probe_interval_s=0.05)
        requests = _requests(replica_runner)

        async def go():
            async with router:
                await router.submit_many(requests[:4])
                sick = router.health[0][1]
                assert not sick.healthy
                await asyncio.sleep(0.08)  # probe becomes due, replica still sick
                responses = await router.submit_many(requests[:4])
                assert all(
                    r.outcome is RequestOutcome.COMPLETED for r in responses
                )
                assert sick.probes >= 1
                assert not sick.healthy
                assert sick.readmissions == 0

        asyncio.run(go())

    def test_killed_replica_reroutes_and_epoch_vector_survives(self, replica_runner):
        # replay_twin: a fresh byte-identical fleet, so the module-cached
        # sharded store never leaks state across tests.
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4, queue_depth=4096),
            store=store,
            replicas=2,
        )
        requests = _requests(replica_runner)

        async def go():
            async with router:
                before = await router.submit_many(requests)
                await router.kill_replica(1, 0)
                after = await router.submit_many(requests)
                assert all(
                    r.outcome is RequestOutcome.COMPLETED for r in before + after
                )
                # The killed replica's lagging store never rolls the shard's
                # epoch component back.
                assert router.epoch_vector == (1, 1)
                assert not router.health[1][0].healthy

        asyncio.run(go())


class TestReplicatedIngest:
    def test_ingest_ships_to_every_replica_and_invalidates_owner_only(
        self, replica_runner
    ):
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4, queue_depth=4096),
            store=store,
            replicas=3,
        )
        store_free = _requests(replica_runner)
        requests = [
            ServiceRequest(request.fact, "rag", request.model) for request in store_free
        ]
        target = requests[0].fact
        owner = store.shard_for(target.triple.subject)
        other = 1 - owner
        other_fact = next(
            request.fact
            for request in requests
            if store.shard_for(request.fact.triple.subject) == other
        )
        batch = [Mutation.add_triple(target.triple.subject, "updatedBy", "Feed")]

        def cached_on(shard_index, fact, method, scope):
            return [
                service.cache.get(fact, method, "gemma2:9b", record=False, epoch=scope)
                for service in router.groups[shard_index]
            ]

        async def go():
            async with router:
                cold = await router.submit_many(requests)
                warm_free = await router.submit_many(store_free)
                report = await router.apply_mutations(batch)
                # Between the ingest and the next pass: the sibling shard's
                # epoch-1 entries are still addressable on whichever replica
                # judged them, while the owning shard has nothing at its new
                # epoch — every post-ingest rag read there is re-judged.  The
                # dka entries carry no epoch and still answer on both shards.
                assert any(hit is not None for hit in cached_on(other, other_fact, "rag", 1))
                assert all(hit is None for hit in cached_on(owner, target, "rag", 2))
                assert any(hit is not None for hit in cached_on(owner, target, "dka", None))
                judged = len(calls_of(replica_runner.telemetry, task="dka"))
                kept = await router.submit_many(store_free)
                rerun = len(calls_of(replica_runner.telemetry, task="dka")) - judged
                after = await router.submit_many(requests)
                return cold, warm_free, report, kept, rerun, after

        cold, warm_free, report, kept, rerun, after = asyncio.run(go())
        assert all(response.outcome is RequestOutcome.COMPLETED for response in cold)
        assert report.shards_touched == (owner,)
        # Every replica of the owning shard applied the batch in lockstep...
        group = router.replica_groups[owner]
        assert all(store_copy.epoch == 2 for store_copy in group.stores)
        assert len({store.state_digest(include_index=False) for store in group.stores}) == 1
        # ...the sibling shard's replicas did not move...
        assert all(
            store_copy.epoch == 1
            for store_copy in router.replica_groups[other].stores
        )
        # ...and post-ingest responses carry the bumped owner epoch with no
        # owner-shard rag response served from a stale cache entry.
        for request, response in zip(requests, after):
            if store.shard_for(request.fact.triple.subject) == owner:
                assert not response.cached
            assert response.epoch_vector[owner] == 2
        # Re-judged verdicts are unchanged: a triple-only batch moves no
        # evidence.
        assert [r.result.verdict for r in after] == [r.result.verdict for r in cold]
        # Every dka read, on the owning shard too, is a hit at the new epoch
        # with no strategy run: DKA reads no store.
        assert all(r.cached and r.epoch_vector[owner] == 2 for r in kept) and rerun == 0
        assert [r.result for r in kept] == [r.result for r in warm_free]

    def test_an_ingest_cancelled_before_its_fan_out_leaves_no_replica_paused(
        self, replica_runner
    ):
        """The router pauses the owning replicas' reads before its fan-out
        tasks run; cancelled at that first suspension, it applies nothing
        and every replica serves again instead of holding its reads."""
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner, 2, ServiceConfig(queue_depth=4096), store=store, replicas=2
        )
        request = _requests(replica_runner)[0]
        owner = store.shard_for(request.fact.triple.subject)
        batch = [Mutation.add_triple(request.fact.triple.subject, "updatedBy", "Feed")]

        async def go():
            async with router:
                ingest = asyncio.get_running_loop().create_task(
                    router.apply_mutations(batch)
                )
                # One turn: the ingest pauses the replicas and schedules its
                # fan-out tasks behind this one, which cancels them unstarted.
                await asyncio.sleep(0)
                assert not router.groups[owner][0]._admission_gate.is_set()
                ingest.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await ingest
                return [
                    await asyncio.wait_for(service.submit(request), 10.0)
                    for service in router.groups[owner]
                ]

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert [r.epoch for r in responses] == [1, 1]
        assert all(copy.epoch == 1 for copy in router.replica_groups[owner].stores)

    def test_ingest_validates_against_live_replicas_after_primary_kill(
        self, replica_runner
    ):
        """A killed primary's store copy stops at its death epoch; later
        ingests must validate against the live replicas' state, not the
        stale primary's (regression: remove-after-add used to raise)."""
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4),
            store=store,
            replicas=2,
        )
        subject = _requests(replica_runner)[0].fact.triple.subject
        owner = store.shard_for(subject)

        async def go():
            async with router:
                await router.kill_replica(owner, 0)  # the group primary dies
                await router.apply_mutations(
                    [Mutation.add_triple(subject, "flaggedBy", "Audit")]
                )
                # Only the live replicas know the triple; validating the
                # removal against the stale primary would reject it.
                await router.apply_mutations(
                    [Mutation.remove_triple(subject, "flaggedBy", "Audit")]
                )
                group = router.replica_groups[owner]
                # The dead primary froze at epoch 1; the live replica
                # applied both batches and the shard epoch never rolled back.
                assert group.stores[0].epoch == 1
                assert group.stores[1].epoch == 3
                assert router.epoch_vector[owner] == 3

        asyncio.run(go())

    def test_dead_shard_rejects_cross_shard_batch_before_any_apply(
        self, replica_runner
    ):
        """All-or-nothing across shards: a batch touching a shard with no
        live replicas must raise before any other shard applies."""
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4),
            store=store,
            replicas=2,
        )
        requests = _requests(replica_runner)
        subject_a = next(
            r.fact.triple.subject for r in requests
            if store.shard_for(r.fact.triple.subject) == 0
        )
        subject_b = next(
            r.fact.triple.subject for r in requests
            if store.shard_for(r.fact.triple.subject) == 1
        )

        async def go():
            async with router:
                await router.kill_replica(1, 0)
                await router.kill_replica(1, 1)
                with pytest.raises(RuntimeError, match="no live replicas"):
                    await router.apply_mutations(
                        [
                            Mutation.add_triple(subject_a, "crossShard", "Batch"),
                            Mutation.add_triple(subject_b, "crossShard", "Batch"),
                        ]
                    )
                # The healthy shard was not half-applied.
                assert all(
                    copy.epoch == 1 for copy in router.replica_groups[0].stores
                )

        asyncio.run(go())

    def test_restart_does_not_resurrect_killed_replica(self, replica_runner):
        """Regression: a stop()/start() cycle must not return a killed
        replica — whose store copy missed ingests — to the rotation; the
        next ingest to its shard would otherwise half-apply and raise
        ReplicaDivergedError after the live replicas already mutated."""
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4),
            store=store,
            replicas=2,
        )
        subject = _requests(replica_runner)[0].fact.triple.subject
        owner = store.shard_for(subject)

        async def go():
            async with router:
                await router.kill_replica(owner, 1)
                await router.apply_mutations(
                    [Mutation.add_triple(subject, "flaggedBy", "Audit")]
                )
            # Second lifecycle: the killed replica must stay stopped and
            # out of rotation, and ingests must keep succeeding.
            async with router:
                assert not router.health[owner][1].healthy
                assert router.groups[owner][1]._closed
                await router.apply_mutations(
                    [Mutation.remove_triple(subject, "flaggedBy", "Audit")]
                )
                group = router.replica_groups[owner]
                assert group.stores[0].epoch == 3
                assert group.stores[1].epoch == 1  # dead copy frozen pre-kill
                responses = await router.submit_many(_requests(replica_runner))
                assert all(
                    r.outcome is RequestOutcome.COMPLETED for r in responses
                )

        asyncio.run(go())

    def _replicated_router(self, runner, store=None, **fleet):
        store = store or runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            runner, 2, ServiceConfig(max_batch_size=4), store=store, replicas=2, **fleet
        )
        return store, router

    def test_forked_replicas_at_equal_epochs_are_refused_at_the_next_ship(
        self, replica_runner
    ):
        """Equal epochs, different streams: only the chained digest can
        tell, and it does at the very next ship."""
        store, router = self._replicated_router(replica_runner)
        subject = _requests(replica_runner)[0].fact.triple.subject
        owner = store.shard_for(subject)
        copies = router.replica_groups[owner].stores
        copies[0].apply([Mutation.add_triple(subject, "forkedBy", "Left")])
        copies[1].apply([Mutation.add_triple(subject, "forkedBy", "Right")])
        assert [copy.epoch for copy in copies] == [2, 2]

        async def go():
            async with router:
                with pytest.raises(
                    ReplicaDivergedError, match=f"replicas diverged from {copies[0].name}: "
                ):
                    await router.apply_mutations(
                        [Mutation.add_triple(subject, "flaggedBy", "Audit")]
                    )

        asyncio.run(go())

    def test_same_out_of_band_batch_on_every_replica_is_not_divergence(
        self, replica_runner, digest_calls
    ):
        store, router = self._replicated_router(replica_runner)
        subject = _requests(replica_runner)[0].fact.triple.subject
        owner = store.shard_for(subject)
        for copy in router.replica_groups[owner].stores:
            copy.apply([Mutation.add_triple(subject, "patchedBy", "Ops")])
        digest_calls.clear()

        async def go():
            async with router:
                await router.apply_mutations(
                    [Mutation.add_triple(subject, "flaggedBy", "Audit")]
                )

        asyncio.run(go())
        assert digest_calls == []
        assert [copy.epoch for copy in router.replica_groups[owner].stores] == [3, 3]

    def test_served_replica_refusing_a_shipped_batch_is_divergence(
        self, replica_runner
    ):
        """Regression (served twin of the group test): the router validated
        against the first live copy only, and a sibling's ``ValueError``
        escaped as if nothing had been applied."""
        store, router = self._replicated_router(replica_runner)
        owner = 0
        triple = next(iter(store.shards[owner].graph))
        removal = [Mutation.remove_triple(*triple.as_tuple())]
        copies = router.replica_groups[owner].stores
        copies[1].graph.remove(triple)

        async def go():
            async with router:
                with pytest.raises(
                    ReplicaDivergedError,
                    match=(
                        f"replica {copies[1].name} at epoch 1 refused the batch "
                        f"{copies[0].name} applied at epoch 2"
                    ),
                ) as raised:
                    await router.apply_mutations(removal)
                assert isinstance(raised.value.__cause__, ValueError)
                assert [copy.epoch for copy in copies] == [2, 1]
                # The passing twin: refused by the copy validation runs
                # against, it is still ValueError and nothing moves.
                with pytest.raises(ValueError, match="absent triple") as raised:
                    await router.apply_mutations(removal)
                assert not isinstance(raised.value, ReplicaDivergedError)
                assert [copy.epoch for copy in copies] == [2, 1]

        asyncio.run(go())

    def test_served_ingest_hashes_no_store_until_an_audit_is_due(
        self, replica_runner, digest_calls
    ):
        """Counts, no clock.  A served two-shard ingest on an R=2 fleet
        takes 0 full digests (4 before the chained digest); over a long
        untampered run the only ones taken are the size rule's audits —
        one per live member per crossing, each counted in the registry."""
        store, router = self._replicated_router(replica_runner)
        subjects = {}
        for request in _requests(replica_runner):
            subject = request.fact.triple.subject
            subjects.setdefault(store.shard_for(subject), subject)
        assert sorted(subjects) == [0, 1]
        audits = router.metrics.lockstep_audits_total

        async def one_two_shard_ingest():
            async with router:
                report = await router.apply_mutations(
                    [
                        Mutation.add_triple(subjects[0], "flaggedBy", "Audit"),
                        Mutation.add_triple(subjects[1], "flaggedBy", "Audit"),
                    ]
                )
                assert report.shards_touched == (0, 1)
                assert audits.value == 0

        digest_calls.clear()
        asyncio.run(one_two_shard_ingest())
        assert digest_calls == []

        # A small fleet, so the size rule comes due many times in a short
        # run.  The test keeps its own ledger per shard: mutations left
        # until the shipped ones match the live size at the last anchor.
        small = ShardedStore.partition(
            triples=[Triple(f"e{i}", "p", f"e{i + 1}") for i in range(12)], num_shards=2
        )
        _, router = self._replicated_router(replica_runner, small)
        audits = router.metrics.lockstep_audits_total
        left = [len(shard.graph) + len(shard.corpus) for shard in small.shards]
        crossings = 0

        async def long_run():
            nonlocal crossings
            async with router:
                for step in range(60):
                    batch = [
                        Mutation.add_triple(f"e{(step + k) % 12}", f"q{step % 3}", f"n{step}")
                        for k in range(3)
                    ]
                    await router.apply_mutations(batch)
                    for index, part in small.route(batch).items():
                        left[index] -= len(part)
                        if left[index] <= 0:
                            shard = small.shards[index]
                            left[index] = len(shard.graph) + len(shard.corpus)
                            crossings += 1
                    assert audits.value == crossings

        digest_calls.clear()
        asyncio.run(long_run())
        assert crossings >= 4
        assert len(digest_calls) == crossings * 2
        assert audits.value == crossings

    def test_single_replica_router_ships_through_groups_of_one_and_hashes_nothing(
        self, replica_runner, digest_calls
    ):
        """R=1 with a store: one group of one per shard, never audited —
        not at construction, not when the size rule would have come due."""
        small = ShardedStore.partition(
            triples=[Triple(f"e{i}", "p", f"e{i + 1}") for i in range(12)], num_shards=2
        )
        digest_calls.clear()
        router = ShardedValidationService.from_runner(
            replica_runner, 2, ServiceConfig(max_batch_size=4), store=small
        )
        assert [group.stores for group in router.replica_groups] == [
            [shard] for shard in small.shards
        ]

        async def go():
            async with router:
                for step in range(20):
                    report = await router.apply_mutations(
                        [Mutation.add_triple(f"e{k}", "q", f"n{step}") for k in range(12)]
                    )
                    assert report.shards_touched == (0, 1)

        asyncio.run(go())
        assert digest_calls == []
        assert router.metrics.lockstep_audits_total.value == 0
        assert small.epoch_vector == (21, 21)

    def test_replica_killed_during_the_fan_out_is_skipped_not_failed(self, replica_runner):
        """Regression: a kill landing between the liveness check and the
        fan-out failed an ingest its sibling had already applied — no
        session vector, no queue commit — and the caller's retry applied
        the batch a second time.  (An edge makes the router keep sessions;
        its drain tick outlasts the test.)"""
        store, router = self._replicated_router(
            replica_runner, edges=1, drain_interval_s=3600.0
        )
        subject = _requests(replica_runner)[0].fact.triple.subject
        owner = store.shard_for(subject)
        copies = router.replica_groups[owner].stores

        async def go():
            async with router:
                ingest = asyncio.ensure_future(
                    router.apply_mutations(
                        [Mutation.add_triple(subject, "flaggedBy", "Audit")], session="s"
                    )
                )
                kill = asyncio.ensure_future(router.kill_replica(owner, 1))
                report = await ingest
                await kill
                assert report.epoch_vector[owner] == 2
                assert [copy.epoch for copy in copies] == [2, 1]
                assert session_vector(router, "s") == {owner: 2}
                assert not router.health[owner][1].healthy
                await router.apply_mutations(
                    [Mutation.remove_triple(subject, "flaggedBy", "Audit")]
                )
                assert [copy.epoch for copy in copies] == [3, 1]

        asyncio.run(go())

    @staticmethod
    def _ship_until_refused(path, runner, store, owner, tamper, batch, ships, digest_calls):
        """Tamper with shard ``owner``'s two copies, then ship ``batch``
        ``ships`` times through ``path``: ``ReplicaGroup.apply`` directly or
        the router's ``apply_mutations``.  Returns the copies, the
        :class:`ReplicaDivergedError` raised and the digests taken."""
        if path == "direct":
            group = store.replicate(2)[owner]
        else:
            router = ShardedValidationService.from_runner(
                runner, 2, ServiceConfig(max_batch_size=4), store=store, replicas=2
            )
            group = router.replica_groups[owner]
        tamper(group.stores)
        digest_calls.clear()

        async def served():
            async with router:
                for _ in range(ships):
                    await router.apply_mutations(batch)

        with pytest.raises(ReplicaDivergedError) as raised:
            if path == "direct":
                for _ in range(ships):
                    group.apply(batch)
            else:
                asyncio.run(served())
        return group.stores, raised.value, len(digest_calls)

    @pytest.mark.parametrize("case", ["refusing_sibling", "fork", "bypass_edit"])
    @pytest.mark.parametrize("path", ["direct", "served"])
    def test_both_ship_paths_refuse_divergence_alike(
        self, replica_runner, digest_calls, path, case
    ):
        """One protocol: the direct and the served ship raise the same error,
        worded the same, leave the same epochs and take the same audits."""
        if case == "bypass_edit":
            store = ShardedStore.partition(
                triples=[Triple(f"e{i}", "p", f"e{i + 1}") for i in range(12)], num_shards=2
            )
        else:
            store = replica_runner.sharded_store("factbench", 2).replay_twin()
        owner = 0
        subjects = sorted({t.subject for t in store.shards[owner].graph})
        triple = min(store.shards[owner].graph)
        batch = [Mutation.add_triple(subject, "flaggedBy", "Audit") for subject in subjects[:2]]
        ships, epochs, audits = 1, [2, 2], 2
        if case == "refusing_sibling":
            batch = [Mutation.remove_triple(*triple.as_tuple())]
            tamper = lambda copies: copies[1].graph.remove(triple)
            epochs, audits = [2, 1], 0
        elif case == "fork":
            def tamper(copies):
                copies[0].apply([Mutation.add_triple(triple.subject, "forkedBy", "Left")])
                copies[1].apply([Mutation.add_triple(triple.subject, "forkedBy", "Right")])
            epochs = [3, 3]
        else:
            tamper = lambda copies: copies[1].graph.add(Triple("Rogue", "edit", "Replica"))
            size = len(store.shards[owner].graph)  # live items at the anchor
            ships = -(-size // len(batch))  # the ship where ops-since-anchor >= size
            epochs = [1 + ships] * 2
        copies, error, digests = self._ship_until_refused(
            path, replica_runner, store, owner, tamper, batch, ships, digest_calls
        )
        if case == "refusing_sibling":
            assert str(error) == (
                f"replica {copies[1].name} at epoch 1 refused the batch "
                f"{copies[0].name} applied at epoch 2: "
                f"batch[0]: cannot remove absent triple {triple}"
            )
            assert isinstance(error.__cause__, ValueError)
        else:
            assert str(error) == f"replicas diverged from {copies[0].name}: {[copies[1].name]}"
        assert [copy.epoch for copy in copies] == epochs
        assert digests == audits

    def test_rejected_batch_mutates_no_replica(self, replica_runner):
        store = replica_runner.sharded_store("factbench", 2).replay_twin()
        router = ShardedValidationService.from_runner(
            replica_runner,
            2,
            ServiceConfig(max_batch_size=4),
            store=store,
            replicas=2,
        )

        async def go():
            async with router:
                with pytest.raises(ValueError, match="absent triple"):
                    await router.apply_mutations(
                        [Mutation.remove_triple("No", "such", "Triple")]
                    )
                for group in router.replica_groups:
                    assert all(copy.epoch == 1 for copy in group.stores)
                    assert len({s.state_digest(include_index=False) for s in group.stores}) == 1

        asyncio.run(go())
