"""Cross-encoder substitute: lexical + embedding relevance scoring.

The paper uses two cross-encoders: ``jina-reranker-v1-turbo-en`` to rank the
generated questions against the transformed triple, and
``ms-marco-MiniLM-L-6-v2`` to select the most relevant documents.  Offline,
the :class:`CrossEncoderReranker` plays both roles: it combines token
containment (how much of the query is covered by the candidate) with the
hashed-embedding cosine similarity, mapped through a sigmoid so scores live
in ``[0, 1]`` like the paper's sigmoid-scaled dot-product scores.

Ranking is batched: the candidates are embedded as one matrix (served from
the embedder's LRU cache after the first pass) and scored against the query
vector with a single matrix-vector product, so re-ranking the same corpus
documents across many facts never re-embeds them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .cache import LRUCache
from .embeddings import HashingEmbedder

__all__ = ["CrossEncoderReranker", "ScoredText"]

_WORD_RE = re.compile(r"[a-z0-9]+")

#: The relevance logit: ``LEXICAL_WEIGHT * containment + SEMANTIC_WEIGHT *
#: cosine + BIAS``, squashed through a sigmoid.
LEXICAL_WEIGHT = 2.4
SEMANTIC_WEIGHT = 2.0
BIAS = -1.4


@dataclass(frozen=True)
class ScoredText:
    """A candidate text with its relevance score against a query."""

    index: int
    text: str
    score: float


class CrossEncoderReranker:
    """Scores query/candidate pairs and ranks candidates by relevance."""

    def __init__(self) -> None:
        self.embedder = HashingEmbedder()
        self._term_cache = LRUCache(50000)

    def score(self, query: str, candidate: str) -> float:
        """Relevance of ``candidate`` to ``query`` in ``[0, 1]``."""
        if not query.strip() or not candidate.strip():
            return 0.0
        lexical = self._containment(query, candidate)
        semantic = self.embedder.similarity(query, candidate)
        logit = LEXICAL_WEIGHT * lexical + SEMANTIC_WEIGHT * semantic + BIAS
        return 1.0 / (1.0 + math.exp(-logit))

    def rank(self, query: str, candidates: Sequence[str]) -> List[ScoredText]:
        """Rank candidates by decreasing relevance (ties broken by index)."""
        scores = self.score_batch(query, candidates)
        scored = [
            ScoredText(index=index, text=candidate, score=scores[index])
            for index, candidate in enumerate(candidates)
        ]
        return sorted(scored, key=lambda item: (-item.score, item.index))

    def score_batch(self, query: str, candidates: Sequence[str]) -> List[float]:
        """Scores of every candidate against one query, in candidate order."""
        if not candidates:
            return []
        if not query.strip():
            return [0.0] * len(candidates)
        query_vector = self.embedder.embed(query)
        matrix = self.embedder.embed_many(candidates)
        # Rows and query are unit-or-zero vectors, so the dot product *is*
        # the cosine (zero rows contribute a 0 dot, matching the
        # cosine-of-zero-vector convention).
        semantic = matrix @ query_vector
        query_terms = self._terms(query)
        scores: List[float] = []
        for index, candidate in enumerate(candidates):
            if not candidate.strip():
                scores.append(0.0)
                continue
            if query_terms:
                lexical = len(query_terms & self._terms(candidate)) / len(query_terms)
            else:
                lexical = 0.0
            logit = LEXICAL_WEIGHT * lexical + SEMANTIC_WEIGHT * float(semantic[index]) + BIAS
            scores.append(1.0 / (1.0 + math.exp(-logit)))
        return scores

    def precompute(self, texts: Iterable[str]) -> int:
        """Warm the embedding and term caches for a corpus of candidate texts.

        Called once per dataset so the per-fact ranking passes reuse the
        corpus-level embedding matrix instead of re-embedding documents per
        query; returns the number of texts that were actually new.
        """
        unique = list(dict.fromkeys(texts))
        needed = len(self._term_cache) + len(unique)
        if self._term_cache.capacity < needed:
            self._term_cache.capacity = needed
        for text in unique:
            self._terms(text)
        return self.embedder.warm(unique)

    def _terms(self, text: str) -> frozenset:
        """Memoized term set (candidates recur heavily across queries)."""
        cached = self._term_cache.get(text)
        if cached is None:
            cached = frozenset(_WORD_RE.findall(text.lower()))
            self._term_cache.put(text, cached)
        return cached

    def _containment(self, query: str, candidate: str) -> float:
        """Share of query terms present in the candidate."""
        query_terms = self._terms(query)
        if not query_terms:
            return 0.0
        candidate_terms = self._terms(candidate)
        return len(query_terms & candidate_terms) / len(query_terms)
