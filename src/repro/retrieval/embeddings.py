"""Deterministic hashed bag-of-words embeddings.

Stand-in for the ``bge-small-en-v1.5`` sentence embedder used in the paper's
RAG configuration.  The embedder hashes tokens into a fixed-dimensional
count vector, applies sub-linear term scaling, and L2-normalises, which is
enough to provide a meaningful semantic-proximity ordering over the
synthetic corpus (documents and questions sharing entity mentions and
relation words land close together).

Embeddings are memoized with bounded LRU eviction (documents and chunks
recur across facts and models in the RAG pipeline), token->bucket hashes
are cached separately, and :meth:`HashingEmbedder.embed_many` builds whole
batches through a single vectorised scatter-add instead of one Python loop
per text.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable, List, Sequence

import numpy as np

from .cache import LRUCache

__all__ = ["HashingEmbedder", "cosine_similarity"]

#: Length of every embedding vector (hash buckets).
DIMENSIONS = 256
#: Embeddings one embedder memoises (an LRU; :meth:`HashingEmbedder.warm`
#: grows it to hold a warmed corpus).
EMBEDDING_CACHE_SIZE = 50000
#: Texts :meth:`HashingEmbedder.warm` embeds per batch, so a large corpus
#: never materialises one giant intermediate matrix.
WARM_BATCH_SIZE = 4096

_WORD_RE = re.compile(r"[a-z0-9]+")

_STOPWORDS = frozenset(
    "a an the of in on at for to and or is was were are be been with by from "
    "as it its this that these those who whom which what where when how did "
    "does do done about".split()
)


def _tokens(text: str) -> List[str]:
    return [token for token in _WORD_RE.findall(text.lower()) if token not in _STOPWORDS]


class HashingEmbedder:
    """Maps text to a fixed-size normalised vector via token hashing."""

    def __init__(self) -> None:
        self._cache = LRUCache(EMBEDDING_CACHE_SIZE)
        # Token hashes are tiny and shared across every text; a generous
        # bound keeps the whole (finite) corpus vocabulary resident.
        self._buckets = LRUCache(200_000)

    def _bucket(self, token: str) -> int:
        bucket = self._buckets.get(token)
        if bucket is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            bucket = int.from_bytes(digest, "big") % DIMENSIONS
            self._buckets.put(token, bucket)
        return bucket

    def embed(self, text: str) -> np.ndarray:
        """Embed one text; empty text maps to the zero vector."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        vector = np.zeros(DIMENSIONS, dtype=float)
        for token in _tokens(text):
            vector[self._bucket(token)] += 1.0
        # Sub-linear scaling dampens very frequent tokens.
        vector = np.sqrt(vector)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        self._cache.put(text, vector)
        return vector

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Embed a batch of texts as one ``(len(texts), dimensions)`` matrix.

        Cached texts are fetched; the misses are tokenised together and
        accumulated with a single scatter-add, then normalised row-wise.
        """
        if not texts:
            return np.zeros((0, DIMENSIONS), dtype=float)
        matrix = np.empty((len(texts), DIMENSIONS), dtype=float)
        miss_positions: List[int] = []
        for position, text in enumerate(texts):
            cached = self._cache.get(text)
            if cached is not None:
                matrix[position] = cached
            else:
                miss_positions.append(position)
        if miss_positions:
            rows: List[int] = []
            cols: List[int] = []
            for row, position in enumerate(miss_positions):
                for token in _tokens(texts[position]):
                    rows.append(row)
                    cols.append(self._bucket(token))
            counts = np.zeros((len(miss_positions), DIMENSIONS), dtype=float)
            if rows:
                np.add.at(counts, (rows, cols), 1.0)
            counts = np.sqrt(counts)
            norms = np.linalg.norm(counts, axis=1)
            nonzero = norms > 0
            counts[nonzero] /= norms[nonzero, np.newaxis]
            for row, position in enumerate(miss_positions):
                vector = counts[row].copy()
                self._cache.put(texts[position], vector)
                matrix[position] = vector
        return matrix

    def warm(self, texts: Iterable[str]) -> int:
        """Pre-populate the cache with a corpus; returns how many were new.

        Used to build the corpus-level embedding matrix once so downstream
        rerankers never re-embed documents per query.  The cache grows to
        hold the whole warmed corpus (otherwise a corpus larger than the
        LRU bound would silently thrash, paying the warm-up cost for
        nothing), embedding ``WARM_BATCH_SIZE`` texts at a time.
        """
        fresh = [text for text in dict.fromkeys(texts) if text not in self._cache]
        if not fresh:
            return 0
        needed = len(self._cache) + len(fresh)
        if self._cache.capacity < needed:
            self._cache.capacity = needed
        for start in range(0, len(fresh), WARM_BATCH_SIZE):
            self.embed_many(fresh[start : start + WARM_BATCH_SIZE])
        return len(fresh)

    def similarity(self, text_a: str, text_b: str) -> float:
        return cosine_similarity(self.embed(text_a), self.embed(text_b))


def cosine_similarity(vector_a: np.ndarray, vector_b: np.ndarray) -> float:
    """Cosine similarity, defined as 0.0 when either vector is zero."""
    norm_a = np.linalg.norm(vector_a)
    norm_b = np.linalg.norm(vector_b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(vector_a, vector_b) / (norm_a * norm_b))
