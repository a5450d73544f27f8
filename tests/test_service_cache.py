"""Verdict-cache keying and LRU thread-safety.

The keying tests pin the satellite requirement: identical fact text under
different (method, model, dataset) coordinates must never collide, and a
cache hit must return the exact :class:`ValidationResult` — token
accounting included — that was stored.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets import LabeledFact
from repro.kg import Triple
from repro.retrieval.cache import LRUCache
from repro.service import VerdictCache, verdict_cache_key
from repro.validation import ValidationResult, Verdict


def _fact(fact_id: str = "fb-001", dataset: str = "factbench", label: bool = True) -> LabeledFact:
    return LabeledFact(
        fact_id=fact_id,
        triple=Triple("Alice_Smith", "worksFor", "Acme_Corp"),
        label=label,
        dataset=dataset,
        subject_name="Alice Smith",
        object_name="Acme Corp",
        predicate_name="worksFor",
    )


def _result(fact: LabeledFact, method: str, model: str, verdict: Verdict = Verdict.TRUE) -> ValidationResult:
    return ValidationResult(
        fact_id=fact.fact_id,
        verdict=verdict,
        gold_label=fact.label,
        model=model,
        method=method,
        latency_seconds=0.123,
        prompt_tokens=57,
        completion_tokens=21,
        raw_response="True. Records agree.",
    )


class TestVerdictCacheKeying:
    def test_identical_fact_text_distinct_coordinates_never_collide(self):
        cache = VerdictCache(capacity=64)
        fact = _fact()
        # Same encoded triple text, different dataset and id.
        twin = _fact(fact_id="yago-001", dataset="yago")
        coordinates = [
            (fact, "dka", "gemma2:9b"),
            (fact, "dka", "qwen2.5:7b"),   # other model
            (fact, "giv-z", "gemma2:9b"),  # other method
            (twin, "dka", "gemma2:9b"),    # other dataset, same text
        ]
        keys = {verdict_cache_key(f, method, model) for f, method, model in coordinates}
        assert len(keys) == len(coordinates)

        verdicts = [Verdict.TRUE, Verdict.FALSE, Verdict.INVALID, Verdict.FALSE]
        for (f, method, model), verdict in zip(coordinates, verdicts):
            cache.put(f, method, model, _result(f, method, model, verdict))
        for (f, method, model), verdict in zip(coordinates, verdicts):
            hit = cache.get(f, method, model)
            assert hit is not None
            assert hit.verdict is verdict
            assert hit.method == method and hit.model == model

    def test_hit_preserves_exact_result_fields_including_tokens(self):
        cache = VerdictCache(capacity=8)
        fact = _fact()
        stored = _result(fact, "dka", "gemma2:9b")
        cache.put(fact, "dka", "gemma2:9b", stored)
        hit = cache.get(fact, "dka", "gemma2:9b")
        assert hit == stored  # frozen dataclass: field-by-field equality
        assert (hit.prompt_tokens, hit.completion_tokens, hit.total_tokens) == (57, 21, 78)
        assert hit.latency_seconds == pytest.approx(0.123)
        assert hit.raw_response == stored.raw_response

    def test_miss_returns_none_and_counts(self):
        cache = VerdictCache(capacity=8)
        fact = _fact()
        assert cache.get(fact, "dka", "gemma2:9b") is None
        cache.put(fact, "dka", "gemma2:9b", _result(fact, "dka", "gemma2:9b"))
        assert cache.get(fact, "dka", "gemma2:9b") is not None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.size == 1

    def test_eviction_is_global_lru_within_capacity(self):
        cache = VerdictCache(capacity=4)
        assert cache.capacity == 4
        facts = [_fact(fact_id=f"fb-{index:03d}") for index in range(5)]
        for fact in facts[:4]:
            cache.put(fact, "dka", "gemma2:9b", _result(fact, "dka", "gemma2:9b"))
        # Using the oldest entry makes the second-oldest the eviction victim:
        # recency is tracked across the whole cache, not per key-hash bucket.
        assert cache.get(facts[0], "dka", "gemma2:9b", record=False) is not None
        cache.put(facts[4], "dka", "gemma2:9b", _result(facts[4], "dka", "gemma2:9b"))
        assert len(cache) == 4
        present = [
            cache.get(fact, "dka", "gemma2:9b", record=False) is not None
            for fact in facts
        ]
        assert present == [True, False, True, True, True]
        with pytest.raises(ValueError):
            VerdictCache(capacity=0)

    def test_deferred_lookups_count_only_once_recorded(self):
        cache = VerdictCache(capacity=8)
        fact = _fact()
        cache.put(fact, "dka", "gemma2:9b", _result(fact, "dka", "gemma2:9b"), epoch=1)
        assert cache.get(fact, "dka", "gemma2:9b", record=False, epoch=1) is not None
        assert cache.get(fact, "dka", "gemma2:9b", record=False, epoch=2) is None
        assert (cache.stats().hits, cache.stats().misses) == (0, 0)
        # The caller settles the deferred lookups once admission decides.
        cache.record_hit()
        cache.record_miss()
        cache.record_miss()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size, stats.capacity) == (1, 2, 1, 8)

    def test_clear_resets_contents_and_stats(self):
        cache = VerdictCache(capacity=8)
        fact = _fact()
        cache.put(fact, "dka", "gemma2:9b", _result(fact, "dka", "gemma2:9b"))
        cache.get(fact, "dka", "gemma2:9b")
        cache.clear()
        stats = cache.stats()
        assert (len(cache), stats.hits, stats.misses) == (0, 0, 0)


class TestVerdictCacheConcurrencyStress:
    """Hammer gets/puts/epoch-bumps from threads: no lost updates, no
    stale-epoch hits, stats that add up."""

    def test_epoch_bumps_under_concurrency_never_serve_stale_hits(self):
        # Capacity comfortably above the live key count so a vanished entry
        # could only mean a lost update, not LRU pressure.
        cache = VerdictCache(capacity=4096)
        facts = [_fact(fact_id=f"fb-{index:03d}") for index in range(40)]
        epoch_box = [0]  # current epoch, bumped mid-run by the ingest thread
        gets_issued = []
        errors = []

        def tagged(fact: LabeledFact, epoch: int) -> ValidationResult:
            # The epoch rides in raw_response so a reader can prove the
            # value it got back was written at the epoch it asked for.
            result = _result(fact, "dka", "gemma2:9b")
            return ValidationResult(
                **{**result.__dict__, "raw_response": f"epoch={epoch}"}
            )

        def hammer(worker: int) -> None:
            rng_state = worker * 7919
            count = 0
            try:
                for step in range(1500):
                    fact = facts[(rng_state + step) % len(facts)]
                    epoch = epoch_box[0]
                    cache.put(fact, "dka", "gemma2:9b", tagged(fact, epoch), epoch=epoch)
                    hit = cache.get(fact, "dka", "gemma2:9b", epoch=epoch)
                    count += 1
                    # The key carries the epoch: a lookup at epoch e can only
                    # ever see a value written at epoch e.
                    if hit is not None:
                        assert hit.raw_response == f"epoch={epoch}", (
                            f"stale-epoch hit: asked {epoch}, got {hit.raw_response}"
                        )
                    # A lookup at the *current* epoch (possibly just bumped by
                    # the ingest thread) must likewise never surface an older
                    # generation's value.
                    fresh = epoch_box[0]
                    other = facts[(rng_state + step * 3) % len(facts)]
                    stale_check = cache.get(other, "dka", "gemma2:9b", epoch=fresh)
                    count += 1
                    if stale_check is not None:
                        assert stale_check.raw_response == f"epoch={fresh}", (
                            f"stale-epoch hit: asked {fresh}, "
                            f"got {stale_check.raw_response}"
                        )
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)
            finally:
                gets_issued.append(count)

        def bumper() -> None:
            for _ in range(5):
                time.sleep(0.01)
                epoch_box[0] += 1

        threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(8)]
        threads.append(threading.Thread(target=bumper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # Stats consistency: every recorded lookup is exactly one hit or one
        # miss — concurrency must not lose or double-count observations.
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets_issued)
        assert stats.hits > 0
        # A deterministic generation that nobody wrote: all misses, and the
        # counters keep adding up exactly.
        unwritten = epoch_box[0] + 1000
        for fact in facts:
            assert cache.get(fact, "dka", "gemma2:9b", epoch=unwritten) is None
        stats = cache.stats()
        assert stats.misses >= len(facts)
        assert stats.hits + stats.misses == sum(gets_issued) + len(facts)

        # No lost updates: quiesced, a final write at the final epoch is
        # visible for every key, and pre-bump epochs still resolve their own
        # (never another epoch's) values.
        final_epoch = epoch_box[0]
        for fact in facts:
            cache.put(
                fact, "dka", "gemma2:9b", tagged(fact, final_epoch), epoch=final_epoch
            )
        for fact in facts:
            hit = cache.get(fact, "dka", "gemma2:9b", epoch=final_epoch)
            assert hit is not None and hit.raw_response == f"epoch={final_epoch}"

    def test_concurrent_puts_across_epochs_keep_entries_addressable(self):
        cache = VerdictCache(capacity=2048)
        facts = [_fact(fact_id=f"fb-{index:03d}") for index in range(20)]
        epochs = range(4)
        errors = []

        def writer(epoch: int) -> None:
            try:
                for _ in range(300):
                    for fact in facts:
                        cache.put(fact, "dka", "gemma2:9b", _result(fact, "dka", "gemma2:9b"), epoch=epoch)
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(epoch,)) for epoch in epochs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Epoch-distinct keys never collide: all four generations coexist.
        assert len(cache) == len(facts) * len(epochs)
        for epoch in epochs:
            for fact in facts:
                assert cache.get(fact, "dka", "gemma2:9b", record=False, epoch=epoch) is not None


class TestLRUCacheThreadSafety:
    def test_concurrent_mixed_workload_keeps_invariants(self):
        cache = LRUCache(capacity=64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for step in range(2000):
                    key = (worker * 7 + step) % 200
                    cache.put(key, (worker, step))
                    value = cache.get(key)
                    # Another thread may have overwritten or evicted the key,
                    # but a stored value is always a coherent (worker, step)
                    # pair, never a torn/corrupted entry.
                    assert value is None or (isinstance(value, tuple) and len(value) == 2)
                    if step % 97 == 0:
                        _ = key in cache
                        _ = len(cache)
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        # The OrderedDict survived: evict-to-capacity still works afterwards.
        for index in range(100):
            cache.put(("post", index), index)
        assert len(cache) <= 64

    def test_concurrent_clear_does_not_corrupt(self):
        cache = LRUCache(capacity=32)
        stop = threading.Event()

        def writer() -> None:
            index = 0
            while not stop.is_set():
                cache.put(index % 50, index)
                index += 1

        def clearer() -> None:
            while not stop.is_set():
                cache.clear()

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads.append(threading.Thread(target=clearer))
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join()
        assert len(cache) <= 32
