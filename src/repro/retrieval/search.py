"""BM25 search engine over the synthetic corpus (the "Google" of the benchmark).

The index stores postings as contiguous NumPy arrays — one ``(doc indices,
term frequencies)`` pair per interned term — with the IDF and document
length-normalisation vectors precomputed at build time.  Query scoring is a
vectorised accumulation over the matched postings and top-k selection uses
``argpartition`` instead of sorting every candidate, which together make
single-query latency independent of Python-level per-posting work.

The index also supports *incremental* maintenance: :meth:`SearchEngine.add_documents`
appends a batch of new documents to the posting arrays in place — touched
terms get one concatenation each, the document-frequency vector is updated
additively, and the (cheap, fully vectorised) IDF and length-normalisation
vectors are recomputed over the grown corpus.  Because term and document
ids are assigned in first-appearance order either way, the incrementally
maintained index is byte-identical to a from-scratch rebuild over the same
corpus (:meth:`SearchEngine.state_digest` verifies this), which is what the
versioned knowledge store's streaming-ingest path relies on.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .corpus import Corpus, Document

__all__ = ["SearchResult", "SearchEngine"]

_WORD_RE = re.compile(r"[a-z0-9]+")

#: One counter for every engine in the process, so two engines never share
#: a :attr:`SearchEngine.generation` value.
_GENERATIONS = itertools.count(1)


def _tokenize(text: str) -> List[str]:
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit: the document plus its retrieval score and snippet."""

    document: Document
    score: float
    snippet: str


class SearchEngine:
    """Okapi BM25 over document titles and bodies.

    Titles are weighted more heavily than body text, which mirrors how web
    search surfaces entity-profile pages for entity-name queries — the
    behaviour the RAG pipeline depends on.

    :attr:`generation` changes whenever the index does (build,
    :meth:`add_documents`, :meth:`rebuild`) and never on :meth:`search`:
    results retrieved at one generation hold while the engine reports it.
    """

    def __init__(
        self,
        corpus: Corpus,
        k1: float = 1.5,
        b: float = 0.75,
        title_weight: float = 2.5,
    ) -> None:
        self.corpus = corpus
        self.k1 = k1
        self.b = b
        self.title_weight = title_weight
        self._doc_ids: List[str] = []
        self._term_ids: Dict[str, int] = {}
        self._posting_docs: List[np.ndarray] = []
        self._posting_tfs: List[np.ndarray] = []
        self._doc_lengths: np.ndarray = np.zeros(0)
        self._doc_freq: np.ndarray = np.zeros(0)
        self._idf: np.ndarray = np.zeros(0)
        self._length_norm: np.ndarray = np.zeros(0)
        self._avg_length = 0.0
        self.generation = 0
        self._build_index()

    def _weighted_terms(self, document: Document) -> Counter:
        weighted = Counter(_tokenize(document.text))
        for token in _tokenize(document.title):
            weighted[token] += self.title_weight
        return weighted

    def _build_index(self) -> None:
        term_ids = self._term_ids
        posting_docs: List[List[int]] = []
        posting_tfs: List[List[float]] = []
        doc_lengths: List[float] = []
        for document in self.corpus:
            weighted = self._weighted_terms(document)
            index = len(self._doc_ids)
            self._doc_ids.append(document.doc_id)
            doc_lengths.append(sum(weighted.values()))
            for term, frequency in weighted.items():
                term_id = term_ids.get(term)
                if term_id is None:
                    term_id = len(term_ids)
                    term_ids[term] = term_id
                    posting_docs.append([])
                    posting_tfs.append([])
                posting_docs[term_id].append(index)
                posting_tfs[term_id].append(frequency)
        self._posting_docs = [np.asarray(docs, dtype=np.int64) for docs in posting_docs]
        self._posting_tfs = [np.asarray(tfs, dtype=np.float64) for tfs in posting_tfs]
        self._doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        self._doc_freq = np.asarray(
            [len(docs) for docs in self._posting_docs], dtype=np.float64
        )
        self._refresh_statistics()

    def _refresh_statistics(self) -> None:
        """Recompute the derived vectors (cheap, fully vectorised)."""
        # Every index change ends here, so this is where the generation moves.
        self.generation = next(_GENERATIONS)
        lengths = self._doc_lengths
        self._avg_length = float(lengths.mean()) if len(lengths) else 0.0
        # Precomputed per-document BM25 length normalisation.
        if self._avg_length:
            self._length_norm = 1.0 - self.b + self.b * (lengths / self._avg_length)
        else:
            self._length_norm = np.ones_like(lengths)
        n = len(self._doc_ids)
        df = self._doc_freq
        self._idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))

    # -- incremental maintenance ------------------------------------------------

    def add_documents(self, documents: Iterable[Document]) -> int:
        """Index a batch of new documents in place; returns how many were added.

        The documents must already live in (or be about to join) ``self.corpus``
        — the engine indexes exactly what it is handed, in hand-over order,
        so callers appending the same documents to the corpus get an index
        byte-identical to a from-scratch :meth:`rebuild`.  Touched terms pay
        one posting-array concatenation each; the IDF and length-norm
        vectors are recomputed vectorised over the grown corpus.
        """
        batch = list(documents)
        if not batch:
            return 0
        term_ids = self._term_ids
        appended_docs: Dict[int, List[int]] = {}
        appended_tfs: Dict[int, List[float]] = {}
        new_lengths: List[float] = []
        for document in batch:
            weighted = self._weighted_terms(document)
            index = len(self._doc_ids)
            self._doc_ids.append(document.doc_id)
            new_lengths.append(sum(weighted.values()))
            for term, frequency in weighted.items():
                term_id = term_ids.get(term)
                if term_id is None:
                    term_id = len(term_ids)
                    term_ids[term] = term_id
                    self._posting_docs.append(np.zeros(0, dtype=np.int64))
                    self._posting_tfs.append(np.zeros(0, dtype=np.float64))
                appended_docs.setdefault(term_id, []).append(index)
                appended_tfs.setdefault(term_id, []).append(frequency)
        for term_id, docs in appended_docs.items():
            self._posting_docs[term_id] = np.concatenate(
                [self._posting_docs[term_id], np.asarray(docs, dtype=np.int64)]
            )
            self._posting_tfs[term_id] = np.concatenate(
                [self._posting_tfs[term_id], np.asarray(appended_tfs[term_id], dtype=np.float64)]
            )
        self._doc_lengths = np.concatenate(
            [self._doc_lengths, np.asarray(new_lengths, dtype=np.float64)]
        )
        grown = len(term_ids) - len(self._doc_freq)
        if grown:
            self._doc_freq = np.concatenate([self._doc_freq, np.zeros(grown)])
        for term_id, docs in appended_docs.items():
            self._doc_freq[term_id] += len(docs)
        self._refresh_statistics()
        return len(batch)

    def rebuild(self) -> None:
        """Re-index ``self.corpus`` from scratch (the dirty-fraction fallback)."""
        self._doc_ids = []
        self._term_ids = {}
        self._posting_docs = []
        self._posting_tfs = []
        self._build_index()

    def state_digest(self) -> str:
        """Hex digest over the full index state (postings, IDF, norms).

        Incremental maintenance and a from-scratch rebuild over the same
        corpus must produce the same digest — the byte-identity contract the
        versioned knowledge store's benchmark enforces.
        """
        digest = hashlib.sha256()
        digest.update("\x00".join(self._doc_ids).encode("utf-8"))
        digest.update("\x00".join(self._term_ids).encode("utf-8"))
        for docs, tfs in zip(self._posting_docs, self._posting_tfs):
            digest.update(docs.tobytes())
            digest.update(tfs.tobytes())
        digest.update(self._doc_lengths.tobytes())
        digest.update(self._doc_freq.tobytes())
        digest.update(self._idf.tobytes())
        digest.update(np.asarray(self._length_norm, dtype=np.float64).tobytes())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self._doc_ids)

    def search(self, query: str, num_results: int = 100) -> List[SearchResult]:
        """Rank documents for a query; returns up to ``num_results`` hits."""
        query_terms = _tokenize(query)
        if not query_terms or not self._doc_ids or num_results <= 0:
            return []
        scores = np.zeros(len(self._doc_ids), dtype=np.float64)
        touched: List[np.ndarray] = []
        k1 = self.k1
        for term, occurrences in Counter(query_terms).items():
            term_id = self._term_ids.get(term)
            if term_id is None:
                continue
            idf = self._idf[term_id]
            if idf <= 0.0:
                continue
            docs = self._posting_docs[term_id]
            tfs = self._posting_tfs[term_id]
            scores[docs] += (occurrences * idf * (k1 + 1.0)) * tfs / (
                tfs + k1 * self._length_norm[docs]
            )
            touched.append(docs)
        if not touched:
            return []
        candidates = np.unique(np.concatenate(touched))
        candidate_scores = scores[candidates]
        top = self._top_k(candidates, candidate_scores, num_results)
        results: List[SearchResult] = []
        for index in top:
            document = self.corpus.get(self._doc_ids[index])
            if document is None:
                continue
            results.append(
                SearchResult(
                    document=document,
                    score=float(scores[index]),
                    snippet=self._snippet(document, query_terms),
                )
            )
        return results

    @staticmethod
    def _top_k(candidates: np.ndarray, candidate_scores: np.ndarray, k: int) -> np.ndarray:
        """Indices of the top-k candidates ordered by (-score, doc index).

        ``argpartition`` narrows the field before the final (small) sort; the
        partition boundary is handled explicitly so score ties are broken by
        ascending document index exactly like a full sort would.
        """
        if len(candidates) > k:
            part = np.argpartition(-candidate_scores, k - 1)[:k]
            threshold = candidate_scores[part].min()
            above = candidate_scores > threshold
            tied = np.flatnonzero(candidate_scores == threshold)
            missing = k - int(above.sum())
            if missing < len(tied):
                # Ties at the boundary resolve to the smallest doc indices.
                tied = tied[np.argsort(candidates[tied], kind="stable")[:missing]]
            keep = np.concatenate([np.flatnonzero(above), tied])
        else:
            keep = np.arange(len(candidates))
        order = np.lexsort((candidates[keep], -candidate_scores[keep]))
        return candidates[keep][order]

    @staticmethod
    def _snippet(document: Document, query_terms: Sequence[str], width: int = 160) -> str:
        """A short excerpt around the first query-term occurrence."""
        text = document.text or document.title
        lowered = text.lower()
        position = -1
        for term in query_terms:
            position = lowered.find(term)
            if position >= 0:
                break
        if position < 0:
            return text[:width]
        start = max(0, position - width // 3)
        return text[start : start + width]
