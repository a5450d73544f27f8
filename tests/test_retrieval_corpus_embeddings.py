"""Tests for corpus primitives, embeddings, and the cross-encoder substitute."""

import numpy as np
import pytest

from repro.retrieval import (
    Corpus,
    CrossEncoderReranker,
    Document,
    HashingEmbedder,
    cosine_similarity,
)


def _doc(doc_id, text="some text", source="encyclia.org", url=None):
    return Document(
        doc_id=doc_id,
        url=url or f"https://{source}/{doc_id}",
        title=f"title {doc_id}",
        text=text,
        source=source,
    )


class TestCorpus:
    def test_add_and_lookup(self):
        corpus = Corpus([_doc("a"), _doc("b")])
        assert len(corpus) == 2
        assert corpus.get("a").doc_id == "a"
        assert corpus.by_url("https://encyclia.org/a").doc_id == "a"
        assert "a" in corpus and "missing" not in corpus

    def test_duplicate_id_rejected(self):
        corpus = Corpus([_doc("a")])
        with pytest.raises(ValueError):
            corpus.add(_doc("a"))

    def test_empty_and_coverage(self):
        corpus = Corpus([_doc("a", text=""), _doc("b"), _doc("c")])
        assert corpus.empty_count() == 1
        assert corpus.text_coverage_rate() == pytest.approx(2 / 3)

    def test_stats_keys(self):
        corpus = Corpus([_doc("a"), _doc("b", text="")])
        stats = corpus.stats()
        assert stats["num_documents"] == 2
        assert "text_coverage_rate" in stats

    def test_empty_corpus_coverage_zero(self):
        assert Corpus().text_coverage_rate() == 0.0


class TestEmbeddings:
    def test_embedding_normalised(self):
        embedder = HashingEmbedder(dimensions=64)
        vector = embedder.embed("knowledge graphs store facts")
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_empty_text_zero_vector(self):
        embedder = HashingEmbedder(dimensions=64)
        assert np.linalg.norm(embedder.embed("   ")) == 0.0

    def test_similarity_of_related_texts_higher(self):
        embedder = HashingEmbedder()
        related = embedder.similarity(
            "Marie Curie was born in Warsaw", "Where was Marie Curie born?"
        )
        unrelated = embedder.similarity(
            "Marie Curie was born in Warsaw", "The stock market closed higher today"
        )
        assert related > unrelated

    def test_similarity_is_symmetric(self):
        embedder = HashingEmbedder()
        a, b = "alpha beta gamma", "beta gamma delta"
        assert embedder.similarity(a, b) == pytest.approx(embedder.similarity(b, a))

    def test_cache_returns_same_array(self):
        embedder = HashingEmbedder()
        first = embedder.embed("cached text")
        second = embedder.embed("cached text")
        assert first is second

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimensions=0)

    def test_embed_many_shape(self):
        embedder = HashingEmbedder(dimensions=32)
        matrix = embedder.embed_many(["a b", "c d", "e f"])
        assert matrix.shape == (3, 32)
        assert embedder.embed_many([]).shape == (0, 32)

    def test_embed_many_matches_embed(self):
        embedder = HashingEmbedder(dimensions=64)
        texts = ["knowledge graphs store facts", "Marie Curie", "", "born in Warsaw"]
        batch = HashingEmbedder(dimensions=64).embed_many(texts)
        for row, text in zip(batch, texts):
            assert np.allclose(row, embedder.embed(text))

    def test_hot_entry_survives_eviction_pressure(self):
        # Regression: the seed cache *cleared itself* when full, evicting the
        # hottest entries; the LRU must keep a recently-touched entry alive.
        embedder = HashingEmbedder(dimensions=16, cache_size=4)
        hot = embedder.embed("hot text")
        for index in range(10):
            embedder.embed(f"filler number {index}")
            assert embedder.embed("hot text") is hot  # still the cached object

    def test_cold_entry_is_evicted(self):
        embedder = HashingEmbedder(dimensions=16, cache_size=2)
        cold = embedder.embed("cold text")
        embedder.embed("warm text")
        embedder.embed("newer text")  # evicts "cold text" (least recent)
        assert embedder.embed("cold text") is not cold

    def test_warm_precomputes_corpus(self):
        embedder = HashingEmbedder(dimensions=32)
        corpus = ["alpha beta", "gamma delta", "alpha beta"]
        assert embedder.warm(corpus) == 2  # duplicates collapse
        assert embedder.warm(corpus) == 0  # already resident
        first = embedder.embed("alpha beta")
        assert embedder.embed("alpha beta") is first

    def test_cosine_zero_vectors(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0


class TestReranker:
    def test_scores_in_unit_interval(self):
        reranker = CrossEncoderReranker()
        score = reranker.score("Marie Curie birthplace", "Marie Curie was born in Warsaw.")
        assert 0.0 <= score <= 1.0

    def test_relevant_candidate_ranked_first(self):
        reranker = CrossEncoderReranker()
        query = "Aldric Fenwick was born in Brimworth."
        candidates = [
            "The weather in coastal regions has been unusually mild this season.",
            "Aldric Fenwick was born in Brimworth and studied engineering.",
            "Stock prices of Apex Industries rallied after the announcement.",
        ]
        ranked = reranker.rank(query, candidates)
        assert ranked[0].index == 1
        assert ranked[0].score > ranked[-1].score

    def test_empty_inputs_score_zero(self):
        reranker = CrossEncoderReranker()
        assert reranker.score("", "text") == 0.0
        assert reranker.score("query", "  ") == 0.0

    def test_ties_broken_by_index(self):
        reranker = CrossEncoderReranker()
        ranked = reranker.rank("zzz", ["same text", "same text"])
        assert [item.index for item in ranked] == [0, 1]

    def test_batch_scores_match_pairwise_scores(self):
        reranker = CrossEncoderReranker()
        query = "Aldric Fenwick was born in Brimworth."
        candidates = [
            "Aldric Fenwick was born in Brimworth and studied engineering.",
            "   ",
            "Stock prices of Apex Industries rallied after the announcement.",
            "Brimworth",
        ]
        batch = reranker.score_batch(query, candidates)
        assert batch == pytest.approx([reranker.score(query, text) for text in candidates])
        assert batch[1] == 0.0
        assert reranker.score_batch("  ", candidates) == [0.0] * len(candidates)
        assert reranker.score_batch(query, []) == []

    def test_precompute_counts_new_texts_and_leaves_scores_unchanged(self):
        candidates = ["Aldric Fenwick lives in Brimworth", "completely unrelated sentence"]
        cold = CrossEncoderReranker().rank("Aldric Fenwick", candidates)
        warmed = CrossEncoderReranker()
        assert warmed.precompute(candidates + candidates[:1]) == 2  # duplicates collapse
        assert warmed.precompute(candidates) == 0  # already resident
        assert warmed.rank("Aldric Fenwick", candidates) == cold
