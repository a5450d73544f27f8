"""Shared fixtures: a small world, datasets, corpus, models, and a runner.

Everything heavy is session-scoped so the suite stays fast; the sizes are
deliberately tiny compared to the paper scale but preserve the structural
properties the tests assert (class balance, schema diversity, corpus
composition).
"""

from __future__ import annotations

import asyncio
import errno
import os
import threading

import pytest
from hypothesis import settings

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.datasets import build_dbpedia, build_factbench, build_yago
from repro.kg.verbalization import Verbalizer
from repro.llm import ModelRegistry
from repro.retrieval import MockSearchAPI, WebCorpusGenerator
from repro.service import ServiceRequest
from repro.store import VersionedKnowledgeStore
from repro.worldmodel import build_world

# A failing property prints its ``@reproduce_failure`` blob, not only the
# shrunk draw: replaying a real-clock race needs the exact example.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def loop_exceptions(monkeypatch):
    """Every exception a test left for an event loop's exception handler —
    a dying connection handler, a task that failed with no one awaiting it.
    asyncio only logs these, so a test must fail on them itself."""
    calls = []
    original = asyncio.BaseEventLoop.call_exception_handler

    def recording(self, context):
        calls.append(context)
        return original(self, context)

    monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler", recording)
    yield calls
    assert not calls, "left for the loop's exception handler: " + "; ".join(
        f"{context.get('message')} ({context.get('exception')!r})" for context in calls
    )


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``VersionedKnowledgeStore.state_digest`` call, as a list of the
    stores' names — the integer the O(batch) claim is made of."""
    calls = []
    original = VersionedKnowledgeStore.state_digest

    def counting(self, include_index=True):
        calls.append(self.name)
        return original(self, include_index=include_index)

    monkeypatch.setattr(VersionedKnowledgeStore, "state_digest", counting)
    return calls


class FsyncTrace:
    """``os.fsync``, shimmed.  ``calls`` records every sync that *returned*
    as ``(thread, path, size at sync)`` — the bytes of ``path`` no crash can
    take back.  ``hold()`` parks every later sync made off the main thread
    (the event loop's, in these tests) until ``release()``; ``held`` is set
    once one has arrived.  ``fail_next = n`` makes the next ``n`` syncs
    raise :class:`OSError` instead."""

    def __init__(self) -> None:
        self.calls = []
        self.fail_next = 0
        self.held = threading.Event()
        self._gate = threading.Event()
        self._gate.set()
        self._real = os.fsync

    def __call__(self, fd: int) -> None:
        path = os.readlink(f"/proc/self/fd/{fd}")
        if self.fail_next:
            self.fail_next -= 1
            raise OSError(errno.EIO, "injected fsync failure", path)
        if threading.current_thread() is not threading.main_thread():
            self.held.set()
            assert self._gate.wait(timeout=30), "a held fsync was never released"
        self._real(fd)
        self.calls.append((threading.current_thread(), path, os.fstat(fd).st_size))

    def hold(self) -> None:
        self.held.clear()
        self._gate.clear()

    def release(self) -> None:
        self._gate.set()

    def on_main_thread(self):
        return [call for call in self.calls if call[0] is threading.main_thread()]

    def synced_size(self, path: str) -> int:
        """Bytes of ``path`` covered by its last returned sync (0 if none)."""
        path = os.path.realpath(path)
        sizes = [size for _, synced, size in self.calls if synced == path]
        return sizes[-1] if sizes else 0


@pytest.fixture
def fsyncs(monkeypatch):
    trace = FsyncTrace()
    monkeypatch.setattr(os, "fsync", trace)
    yield trace
    trace.release()


class BackendShape:
    """For tests that hold micro-batches in the simulated backend
    (``time_scale > 0``, ``max_batch_size=8``): state is reached and read in
    event-loop turns and counts — never by sleeping or reading a clock."""

    @staticmethod
    async def turns(count: int = 5) -> None:
        """Let everything that is ready run: submitted requests reach their
        lane and the worker sees them.  Yields only — no time passes."""
        for _ in range(count):
            await asyncio.sleep(0)

    @staticmethod
    def in_flight(service) -> float:
        return service.metrics.registry.get("service_batches_in_flight").value

    @staticmethod
    def submit(service, facts):
        return [
            asyncio.create_task(service.submit(ServiceRequest(fact, "dka", "gemma2:9b")))
            for fact in facts
        ]

    @classmethod
    async def three_groups(cls, service, facts):
        """Twelve requests as: one batch in the backend, a second *full*
        batch in the backend beside it, a partial batch waiting behind."""
        tasks = cls.submit(service, facts[:1])
        await cls.turns()
        tasks += cls.submit(service, facts[1:9])
        await cls.turns()
        tasks += cls.submit(service, facts[9:12])
        await cls.turns()
        assert service.metrics.snapshot().batches == 2 == cls.in_flight(service)
        assert service.pending == 12 and not any(task.done() for task in tasks)
        return tasks


@pytest.fixture
def backend():
    return BackendShape


@pytest.fixture(scope="session")
def world():
    """A compact synthetic world shared by the whole suite."""
    return build_world(scale=0.15, seed=11)


@pytest.fixture(scope="session")
def verbalizer(world):
    return Verbalizer(world)


@pytest.fixture(scope="session")
def registry(world):
    return ModelRegistry(world, seed=3)


@pytest.fixture(scope="session")
def gemma(registry):
    return registry.get("gemma2:9b")


@pytest.fixture(scope="session")
def factbench_small(world):
    return build_factbench(world, scale=0.02)


@pytest.fixture(scope="session")
def yago_small(world):
    return build_yago(world, scale=0.03)


@pytest.fixture(scope="session")
def dbpedia_small(world):
    return build_dbpedia(world, scale=0.006)


@pytest.fixture(scope="session")
def corpus_small(world, factbench_small):
    generator = WebCorpusGenerator(world, documents_per_fact=8, seed=5)
    facts = factbench_small.facts()[:25]
    return generator.build_corpus(facts)


@pytest.fixture(scope="session")
def search_api(corpus_small):
    return MockSearchAPI(corpus_small, default_num_results=20)


@pytest.fixture(scope="session")
def quick_config():
    return ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=44,
        world_scale=0.15,
        documents_per_fact=14,
        serp_results_per_query=25,
        seed=11,
    )


@pytest.fixture(scope="session")
def runner(quick_config):
    """A benchmark runner over a very small grid, shared across tests."""
    return BenchmarkRunner(quick_config)
