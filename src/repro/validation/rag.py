"""Retrieval-Augmented Generation pipeline for KG fact validation (RQ2).

The pipeline follows the paper's four phases:

1. **Triple transformation** — an LLM converts the encoded triple into a
   natural-language sentence (KG namespaces, underscores, and camelCase
   predicates hinder retrieval otherwise).
2. **Question generation and ranking** — the LLM generates up to ``k_q``
   candidate questions; a cross-encoder scores each against the sentence and
   only queries above the relevance threshold (top ``SELECTED_QUESTIONS``)
   are kept.
3. **Document retrieval and filtering** — every kept query is issued to the
   (mock) search API; documents originating from the KG's own source pages
   are filtered out to avoid circular verification.
4. **Document processing and chunking** — the cross-encoder selects the
   ``k_d`` most relevant documents, which are segmented with a sliding
   window; the top chunks become the evidence passages in the verification
   prompt.

The module also contains :class:`RAGDatasetBuilder`, which materialises the
questions + SERP corpus ahead of time (the paper's published RAG dataset)
and accounts for the simulated network/LLM cost per pipeline step (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasets.base import FactDataset, LabeledFact
from ..kg.namespaces import KGEncoding
from ..kg.verbalization import Verbalizer
from ..llm.base import LLMClient
from ..retrieval.cache import LRUCache
from ..retrieval.chunking import SlidingWindowChunker
from ..retrieval.corpus import Document
from ..retrieval.mock_api import MockSearchAPI
from ..retrieval.reranker import CrossEncoderReranker
from .base import ValidationResult, ValidationStrategy
from .prompts import (
    parse_questions,
    question_generation_prompt,
    rag_prompt,
    transform_prompt,
)

__all__ = [
    "RAGConfig",
    "TripleTransformer",
    "QuestionGenerator",
    "RetrievedEvidence",
    "RAGValidator",
    "RAGDatasetBuilder",
    "RAGDatasetStats",
]

#: The model behind phases 1 and 2 (triple transformation and question
#: generation) for every validator: Table 4's Gemma2.
UPSTREAM_MODEL = "gemma2:9b"
#: Candidate questions generated per fact (``k_q``).
NUM_QUESTIONS = 10
#: Questions kept for retrieval, besides the transformed statement.
SELECTED_QUESTIONS = 3
#: Sentences the sliding window advances per chunk.
CHUNK_STRIDE = 2
#: Top-ranked chunks that become the verification prompt's evidence.
MAX_EVIDENCE_CHUNKS = 10
#: Simulated network cost of one SERP request and one document fetch: the
#: paper reports ~3.6 s of result pages and ~350 s of fetches per fact.
SERP_REQUEST_SECONDS = 1.2
DOCUMENT_FETCH_SECONDS = 2.3


@dataclass(frozen=True)
class RAGConfig:
    """The Table 4 settings a run or the ablation varies (the fixed ones
    are the module constants above)."""

    relevance_threshold: float = 0.5
    selected_documents: int = 10
    serp_results_per_query: int = 100
    chunk_window: int = 3

    def as_table(self) -> List[Tuple[str, str]]:
        """Human-readable (component, parameter) rows, mirroring Table 4."""
        return [
            ("Human Understandable Text", UPSTREAM_MODEL),
            ("Question Generation", UPSTREAM_MODEL),
            ("Question Relevance", "lexical+embedding cross-encoder (jina substitute)"),
            ("Relevance Threshold", str(self.relevance_threshold)),
            ("Selected Questions", str(SELECTED_QUESTIONS)),
            ("Selected Documents (k_d)", str(self.selected_documents)),
            ("Document Selection", "lexical+embedding cross-encoder (ms-marco substitute)"),
            ("Embedding Model", "hashing embedder (bge substitute)"),
            ("Chunking Strategy", f"Sliding Window (size = {self.chunk_window})"),
        ]


class TripleTransformer:
    """Phase 1: LLM-based triple-to-sentence transformation."""

    def __init__(self, model: LLMClient, verbalizer: Optional[Verbalizer] = None) -> None:
        self.model = model
        self.verbalizer = verbalizer or Verbalizer()

    def transform(self, fact: LabeledFact) -> Tuple[str, float]:
        """Return ``(sentence, latency_seconds)`` for one fact.

        Falls back to the rule-based verbalizer when the model output is
        empty or degenerate, so the pipeline never stalls on a bad
        transformation.
        """
        prompt = transform_prompt(fact)
        response = self.model.generate(
            prompt, metadata={"task": "transform", "fact": fact}
        )
        sentence = response.text.strip()
        if len(sentence) < 10:
            sentence = self.verbalizer.statement(fact.triple)
        return sentence, response.latency_seconds


class QuestionGenerator:
    """Phase 2: candidate question generation plus cross-encoder ranking."""

    def __init__(self, model: LLMClient, reranker: Optional[CrossEncoderReranker] = None) -> None:
        self.model = model
        self.reranker = reranker or CrossEncoderReranker()

    def generate(self, fact: LabeledFact, statement: str) -> Tuple[List[Tuple[str, float]], float]:
        """Return ``(ranked questions with scores, latency_seconds)``.

        Questions are scored against the transformed statement; only those at
        or above the relevance threshold are returned (all of them — the
        caller decides how many to keep for retrieval).
        """
        prompt = question_generation_prompt(statement, NUM_QUESTIONS)
        response = self.model.generate(
            prompt,
            metadata={
                "task": "generate_questions",
                "fact": fact,
                "num_questions": NUM_QUESTIONS,
            },
        )
        questions = parse_questions(response.text)
        if not questions:
            questions = [f"What is known about {fact.subject_name}?"]
        ranked = self.reranker.rank(statement, questions)
        scored = [(item.text, item.score) for item in ranked]
        return scored, response.latency_seconds


@dataclass
class RetrievedEvidence:
    """Everything phase 3+4 produced for one fact."""

    statement: str
    questions: List[Tuple[str, float]]
    selected_queries: List[str]
    documents: List[Document]
    chunks: List[str]

    @property
    def num_documents(self) -> int:
        return len(self.documents)


class RAGValidator(ValidationStrategy):
    """The full four-phase RAG verification strategy.

    ``model`` judges the evidence (the final verify); ``upstream`` runs
    phases 1–2 for every validator, whatever its judging model
    (:data:`UPSTREAM_MODEL` in the benchmark).
    """

    method_name = "rag"

    def __init__(
        self,
        model: LLMClient,
        upstream: LLMClient,
        search_api: MockSearchAPI,
        kg_encoding: KGEncoding,
        config: Optional[RAGConfig] = None,
        reranker: Optional[CrossEncoderReranker] = None,
        verbalizer: Optional[Verbalizer] = None,
        evidence_cache: Optional[LRUCache] = None,
    ) -> None:
        self.model = model
        self.search_api = search_api
        self.kg_encoding = kg_encoding
        self.config = config or RAGConfig()
        self.verbalizer = verbalizer or Verbalizer()
        self.reranker = reranker or CrossEncoderReranker()
        self.chunker = SlidingWindowChunker(
            window_size=self.config.chunk_window, stride=CHUNK_STRIDE
        )
        self.transformer = TripleTransformer(upstream, self.verbalizer)
        self.question_generator = QuestionGenerator(upstream, self.reranker)
        # Shared evidence cache: phases 1–2 run on the upstream model for
        # every validator, so phases 1–4 can be computed once per fact and
        # reused across the model zoo.
        self.evidence_cache = evidence_cache

    # -- retrieval ---------------------------------------------------------------

    def retrieve(self, fact: LabeledFact) -> Tuple[RetrievedEvidence, float]:
        """Run phases 1–4 for one fact; returns evidence and upstream LLM latency.

        When an evidence cache is attached, results are reused across
        validators sharing the cache.  An entry is ``(upstream, generation,
        evidence)``: ``upstream = (statement, questions, llm_latency)`` is a
        function of the fact and the upstream model and is kept for good;
        ``evidence`` (phases 3–4) holds while the search engine reports the
        ``generation`` it was retrieved at, then is redone from ``upstream``.
        """
        generation = self.search_api.engine.generation
        cache = self.evidence_cache
        entry = cache.get(fact.fact_id) if cache is not None else None
        if entry is None:
            upstream = self.generate_questions(fact)
        else:
            upstream, stamp, evidence = entry
            if stamp == generation:
                return evidence, upstream[2]
        # Stamp with the generation read *before* retrieving: an index that
        # moves meanwhile leaves a stale stamp, never a wrongly fresh one.
        evidence = self._retrieve_evidence(upstream[0], upstream[1])
        if cache is not None:
            cache.put(fact.fact_id, (upstream, generation, evidence))
        return evidence, upstream[2]

    def generate_questions(self, fact: LabeledFact) -> Tuple[str, List[Tuple[str, float]], float]:
        """Phases 1–2: ``(statement, scored questions, upstream LLM latency)``."""
        statement, transform_latency = self.transformer.transform(fact)
        questions, question_latency = self.question_generator.generate(fact, statement)
        return statement, questions, transform_latency + question_latency

    def _retrieve_evidence(self, statement: str, questions: List[Tuple[str, float]]) -> RetrievedEvidence:
        """Phases 3–4 against the search index as it stands now."""
        eligible = [
            question for question, score in questions
            if score >= self.config.relevance_threshold
        ]
        selected_questions = eligible[:SELECTED_QUESTIONS]
        queries = [statement] + selected_questions

        documents = self._retrieve_documents(queries)
        top_documents = self._select_documents(statement, documents)
        chunks = self._select_chunks(statement, top_documents)

        return RetrievedEvidence(
            statement=statement,
            questions=questions,
            selected_queries=queries,
            documents=top_documents,
            chunks=chunks,
        )

    def _retrieve_documents(self, queries: Sequence[str]) -> List[Document]:
        """Phase 3: issue queries, fetch pages, filter KG-origin sources."""
        seen: Dict[str, Document] = {}
        for query in queries:
            for entry in self.search_api.search(query, num=self.config.serp_results_per_query):
                if entry.url in seen:
                    continue
                document = self.search_api.fetch_document(entry.url)
                if document is None:
                    continue
                seen[entry.url] = document
        return [document for document in seen.values() if not self.from_kg_source(document.source)]

    def from_kg_source(self, source: str) -> bool:
        """Whether ``source`` is one of the KG's own pages, which phase 3
        drops to avoid circular verification."""
        return any(source.endswith(domain) for domain in self.kg_encoding.source_domains)

    def _select_documents(self, statement: str, documents: Sequence[Document]) -> List[Document]:
        """Phase 4a: cross-encoder selection of the k_d most relevant documents."""
        candidates = [document for document in documents if not document.is_empty]
        if not candidates:
            return []
        ranked = self.reranker.rank(statement, [document.text for document in candidates])
        return [candidates[item.index] for item in ranked[: self.config.selected_documents]]

    def _select_chunks(self, statement: str, documents: Sequence[Document]) -> List[str]:
        """Phase 4b: sliding-window chunking plus chunk-level reranking."""
        chunks = self.chunker.chunk_documents(documents)
        if not chunks:
            return []
        ranked = self.reranker.rank(statement, [chunk.text for chunk in chunks])
        return [item.text for item in ranked[:MAX_EVIDENCE_CHUNKS]]

    # -- validation -----------------------------------------------------------------

    def validate(self, fact: LabeledFact) -> ValidationResult:
        evidence, upstream_latency = self.retrieve(fact)
        subject_lower = fact.subject_name.lower()
        return self.request_verdict(
            fact,
            rag_prompt(fact, evidence.chunks, evidence.statement),
            {"evidence": evidence.chunks, "few_shot": False, "structured": True},
            spent_seconds=upstream_latency,
            num_evidence_chunks=len(evidence.chunks),
            evidence_mentions_subject=any(
                subject_lower in chunk.lower() for chunk in evidence.chunks
            ),
        )


@dataclass(frozen=True)
class RAGDatasetStats:
    """Aggregate statistics of a pre-built RAG dataset (§4.1 / Table 3).

    ``avg_question_generation_tokens`` estimates the generated questions'
    size as 1.3 tokens per whitespace-separated word; it is not the model's
    counted completion tokens.
    """

    num_facts: int
    num_questions: int
    avg_questions_per_fact: float
    avg_question_similarity: float
    avg_question_generation_seconds: float
    avg_question_generation_tokens: float
    avg_serp_seconds: float
    avg_fetch_seconds: float
    num_documents: int


class RAGDatasetBuilder:
    """Pre-builds the questions + SERP dataset that FactCheck publishes.

    The builder runs phases 1–3 of ``validator`` for every fact (no
    verification): its upstream phases 1–2, uncached, then one search per
    query, keeping the result URLs its KG-source filter passes.  It records
    the generated questions with their similarity scores and accounts for
    the simulated time/token cost of each step so the Table 3 benchmark can
    report the same rows.  The question-generation token cost is 1.3 times
    the questions' whitespace words, not the model's counted completion
    tokens.
    """

    def __init__(self, validator: RAGValidator) -> None:
        self.validator = validator

    def build(self, dataset: FactDataset) -> Tuple[Dict[str, dict], RAGDatasetStats]:
        """Build per-fact records and aggregate statistics for a dataset."""
        records: Dict[str, dict] = {}
        question_latencies: List[float] = []
        question_tokens: List[float] = []
        serp_times: List[float] = []
        fetch_times: List[float] = []
        similarity_scores: List[float] = []
        total_documents = 0
        validator = self.validator
        for fact in dataset:
            statement, questions, upstream_latency = validator.generate_questions(fact)
            question_latencies.append(upstream_latency)
            question_tokens.append(
                sum(len(question.split()) for question, __ in questions) * 1.3
            )
            similarity_scores.extend(score for __, score in questions)
            top_questions = [question for question, __ in questions[:SELECTED_QUESTIONS]]
            queries = [statement] + top_questions
            serp_times.append(SERP_REQUEST_SECONDS * len(queries))
            urls: List[str] = []
            for query in queries:
                for entry in validator.search_api.search(
                    query, num=validator.config.serp_results_per_query
                ):
                    if entry.url not in urls and not validator.from_kg_source(entry.source):
                        urls.append(entry.url)
            fetch_times.append(DOCUMENT_FETCH_SECONDS * len(urls))
            total_documents += len(urls)
            records[fact.fact_id] = {
                "statement": statement,
                "questions": questions,
                "urls": urls,
            }
        num_facts = max(1, len(records))
        stats = RAGDatasetStats(
            num_facts=len(records),
            num_questions=sum(len(record["questions"]) for record in records.values()),
            avg_questions_per_fact=sum(len(record["questions"]) for record in records.values()) / num_facts,
            avg_question_similarity=(
                sum(similarity_scores) / len(similarity_scores) if similarity_scores else 0.0
            ),
            avg_question_generation_seconds=(
                sum(question_latencies) / len(question_latencies) if question_latencies else 0.0
            ),
            avg_question_generation_tokens=(
                sum(question_tokens) / len(question_tokens) if question_tokens else 0.0
            ),
            avg_serp_seconds=sum(serp_times) / len(serp_times) if serp_times else 0.0,
            avg_fetch_seconds=sum(fetch_times) / len(fetch_times) if fetch_times else 0.0,
            num_documents=total_documents,
        )
        return records, stats
