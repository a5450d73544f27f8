"""Tests for chunking, the BM25 search engine, the synthetic web, and the mock API."""

import pytest

from repro.retrieval import (
    Corpus,
    Document,
    MockSearchAPI,
    SearchEngine,
    SlidingWindowChunker,
    WebCorpusGenerator,
    split_sentences,
)


class TestSentenceSplitting:
    def test_split_basic(self):
        sentences = split_sentences("One. Two! Three?")
        assert sentences == ["One.", "Two!", "Three?"]

    def test_split_empty(self):
        assert split_sentences("   ") == []


class TestChunker:
    def test_short_text_single_chunk(self):
        chunker = SlidingWindowChunker(window_size=3, stride=2)
        chunks = chunker.chunk_text("Only one sentence here.", doc_id="d")
        assert len(chunks) == 1
        assert chunks[0].doc_id == "d"

    def test_empty_text_no_chunks(self):
        assert SlidingWindowChunker().chunk_text("") == []

    def test_windows_overlap(self):
        text = "S1 alpha. S2 beta. S3 gamma. S4 delta. S5 epsilon."
        chunks = SlidingWindowChunker(window_size=3, stride=2).chunk_text(text)
        assert len(chunks) >= 2
        assert "S3 gamma." in chunks[0].text and "S3 gamma." in chunks[1].text

    def test_all_sentences_covered(self):
        text = " ".join(f"Sentence number {i}." for i in range(10))
        chunks = SlidingWindowChunker(window_size=3, stride=2).chunk_text(text)
        combined = " ".join(chunk.text for chunk in chunks)
        for i in range(10):
            assert f"Sentence number {i}." in combined

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SlidingWindowChunker(window_size=0)
        with pytest.raises(ValueError):
            SlidingWindowChunker(stride=0)

    def test_chunk_documents(self):
        documents = [
            Document("d1", "u1", "t", "A one. A two. A three. A four.", "s"),
            Document("d2", "u2", "t", "", "s"),
        ]
        chunks = SlidingWindowChunker().chunk_documents(documents)
        assert all(chunk.doc_id == "d1" for chunk in chunks)


class TestSearchEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        corpus = Corpus(
            [
                Document("d1", "u1", "Aldric Fenwick profile",
                         "Aldric Fenwick was born in Brimworth. He studied at Oakmere College.",
                         "encyclia.org"),
                Document("d2", "u2", "Brimworth overview",
                         "Brimworth is located in Valdoria. The town has a famous harbor.",
                         "openalmanac.org"),
                Document("d3", "u3", "Unrelated finance news",
                         "Quarterly results exceeded expectations across all divisions.",
                         "dailyherald.example"),
                Document("d4", "u4", "Empty page", "", "factfile.info"),
            ]
        )
        return SearchEngine(corpus)

    def test_entity_query_finds_profile_first(self, engine):
        results = engine.search("Where was Aldric Fenwick born?")
        assert results
        assert results[0].document.doc_id == "d1"

    def test_num_results_respected(self, engine):
        assert len(engine.search("Brimworth", num_results=1)) == 1

    def test_empty_query(self, engine):
        assert engine.search("") == []

    def test_snippet_contains_query_term_context(self, engine):
        results = engine.search("Brimworth harbor")
        assert any("Brimworth" in result.snippet for result in results)

    def test_unmatched_query_returns_nothing_relevant(self, engine):
        results = engine.search("zzzz qqqq xxxx")
        assert results == []

    def test_scores_are_descending(self, engine):
        results = engine.search("Brimworth Valdoria harbor")
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)


def scalar_bm25_reference(corpus, query, num_results=100, k1=1.5, b=0.75, title_weight=2.5):
    """The seed's scalar BM25, kept as the oracle for the vectorised engine.

    Returns ``[(doc_id, score), ...]`` ranked by (-score, insertion index).
    """
    import math
    import re
    from collections import Counter, defaultdict

    word_re = re.compile(r"[a-z0-9]+")
    tokenize = lambda text: word_re.findall(text.lower())

    doc_ids, doc_lengths = [], []
    postings, document_frequency = defaultdict(list), Counter()
    for document in corpus:
        weighted = Counter(tokenize(document.text))
        for token in tokenize(document.title):
            weighted[token] += title_weight
        index = len(doc_ids)
        doc_ids.append(document.doc_id)
        doc_lengths.append(sum(weighted.values()))
        for term, frequency in weighted.items():
            postings[term].append((index, frequency))
            document_frequency[term] += 1
    avg_length = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0

    scores = defaultdict(float)
    for term in tokenize(query):
        n = len(doc_ids)
        df = document_frequency.get(term, 0)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        if idf <= 0.0:
            continue
        for index, tf in postings.get(term, ()):
            length_norm = 1.0 - b + b * (doc_lengths[index] / avg_length if avg_length else 1.0)
            scores[index] += idf * (tf * (k1 + 1.0)) / (tf + k1 * length_norm)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:num_results]
    return [(doc_ids[index], score) for index, score in ranked]


class TestSearchEquivalence:
    """The vectorised engine must rank exactly like the scalar reference."""

    def test_matches_scalar_reference_on_seeded_corpus(self, corpus_small):
        engine = SearchEngine(corpus_small)
        queries = [doc.title for doc in list(corpus_small)[:40] if doc.title]
        queries += [
            "profile and background",
            "born in",
            "award ceremony history",
            "completely unindexed zzzz term",
        ]
        compared = 0
        for query in queries:
            expected = scalar_bm25_reference(corpus_small, query, num_results=25)
            actual = engine.search(query, num_results=25)
            assert [r.document.doc_id for r in actual] == [doc_id for doc_id, __ in expected]
            for result, (__, score) in zip(actual, expected):
                assert result.score == pytest.approx(score, abs=1e-9)
            compared += len(expected)
        assert compared > 50

    def test_repeated_query_terms_accumulate(self, corpus_small):
        engine = SearchEngine(corpus_small)
        doc = next(d for d in corpus_small if d.text)
        term = doc.title.split()[0]
        once = engine.search(term, num_results=5)
        twice = engine.search(f"{term} {term}", num_results=5)
        if once and twice:
            assert twice[0].score == pytest.approx(2 * once[0].score, rel=1e-9)


class TestWebCorpusGenerator:
    @pytest.fixture(scope="class")
    def generated(self, world, factbench_small):
        generator = WebCorpusGenerator(world, documents_per_fact=12, seed=2)
        fact = next(fact for fact in factbench_small if fact.label)
        return fact, generator.documents_for_fact(fact)

    def test_document_mix(self, generated):
        __, documents = generated
        kinds = {doc.kind for doc in documents}
        assert "profile" in kinds
        assert "empty" in kinds or "noise" in kinds

    def test_empty_documents_have_no_text(self, generated):
        __, documents = generated
        for doc in documents:
            if doc.kind == "empty":
                assert doc.is_empty

    def test_kg_origin_documents_on_kg_domains(self, generated):
        __, documents = generated
        for doc in documents:
            if doc.kind == "kg-origin":
                assert doc.source in ("en.wikipedia.org", "dbpedia.org")

    def test_profile_documents_mention_subject(self, generated):
        fact, documents = generated
        profiles = [doc for doc in documents if doc.kind == "profile"]
        assert profiles
        assert all(fact.subject_name in doc.title for doc in profiles)

    def test_corpus_provenance_and_coverage(self, world, factbench_small):
        generator = WebCorpusGenerator(world, documents_per_fact=10, seed=3)
        corpus = generator.build_corpus(factbench_small.facts()[:6])
        stats = corpus.stats()
        assert stats["num_facts_with_documents"] == 6
        assert 0.6 < stats["text_coverage_rate"] <= 1.0

    def test_deterministic_per_fact(self, world, factbench_small):
        fact = factbench_small[0]
        first = WebCorpusGenerator(world, documents_per_fact=18, seed=4).documents_for_fact(fact)
        second = WebCorpusGenerator(world, documents_per_fact=18, seed=4).documents_for_fact(fact)
        assert [d.text for d in first] == [d.text for d in second]


class TestMockSearchAPI:
    def test_search_returns_serp_entries(self, search_api):
        results = search_api.search("profile and background", num=5)
        assert len(results) <= 5
        for rank, entry in enumerate(results, start=1):
            assert entry.rank == rank
            assert entry.url.startswith("https://")

    def test_fetch_content_roundtrip(self, search_api, corpus_small):
        document = next(doc for doc in corpus_small if not doc.is_empty)
        fetched = search_api.fetch_document(document.url)
        assert (fetched.doc_id, fetched.text) == (document.doc_id, document.text)

    def test_fetch_unknown_url(self, search_api):
        assert search_api.fetch_document("https://unknown.example/page") is None
