"""Document corpus primitives for the retrieval substrate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Document", "Corpus"]


@dataclass(frozen=True)
class Document:
    """One web document in the RAG corpus.

    Attributes
    ----------
    doc_id:
        Stable identifier within the corpus.
    url:
        Synthetic URL; its host is used for source filtering (the paper
        removes documents originating from the KG's own source pages).
    title:
        Page title returned in SERP results.
    text:
        Extracted main content.  May be empty — the paper reports a 13%
        empty-extraction rate and keeps those documents in the corpus.
    source:
        Host name, e.g. ``"encyclia.org"`` or ``"wikipedia.org"``.
    fact_id:
        The benchmark fact this document was generated for (provenance
        only; retrieval never uses it).
    kind:
        Generator label (``profile``, ``object``, ``news``, ``noise``,
        ``empty``, ``kg-origin``) used in corpus statistics and tests.
    """

    doc_id: str
    url: str
    title: str
    text: str
    source: str
    fact_id: str = ""
    kind: str = "generic"

    @property
    def is_empty(self) -> bool:
        return not self.text.strip()


class Corpus:
    """In-memory document collection with id and source indexes."""

    def __init__(self, documents: Optional[Iterable[Document]] = None) -> None:
        self._documents: Dict[str, Document] = {}
        self._by_url: Dict[str, Document] = {}
        if documents:
            self.add_all(documents)

    def add(self, document: Document) -> None:
        if document.doc_id in self._documents:
            raise ValueError(f"Duplicate document id: {document.doc_id}")
        self._documents[document.doc_id] = document
        self._by_url[document.url] = document

    def add_all(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def get(self, doc_id: str) -> Optional[Document]:
        return self._documents.get(doc_id)

    def by_url(self, url: str) -> Optional[Document]:
        return self._by_url.get(url)

    def documents(self) -> List[Document]:
        return list(self._documents.values())

    def copy(self) -> "Corpus":
        """Cheap snapshot copy: fresh indexes sharing the frozen documents.

        Insertion order is preserved, so an index built over the copy is
        byte-identical to one built over the source.  Used by the versioned
        knowledge store's point-in-time snapshot views.
        """
        clone = Corpus()
        clone._documents = dict(self._documents)
        clone._by_url = dict(self._by_url)
        return clone

    def empty_count(self) -> int:
        return sum(1 for document in self._documents.values() if document.is_empty)

    def text_coverage_rate(self) -> float:
        """Share of documents with non-empty extracted text (paper: 0.87)."""
        if not self._documents:
            return 0.0
        return 1.0 - self.empty_count() / len(self._documents)

    def stats(self) -> Dict[str, float]:
        """Corpus-level statistics mirroring §4.1 of the paper."""
        from collections import Counter

        per_fact = Counter(document.fact_id for document in self._documents.values() if document.fact_id)
        counts = sorted(per_fact.values())
        total = len(self._documents)
        summary: Dict[str, float] = {
            "num_documents": total,
            "num_facts_with_documents": len(per_fact),
            "empty_documents": self.empty_count(),
            "text_coverage_rate": round(self.text_coverage_rate(), 4),
        }
        if counts:
            summary["min_docs_per_fact"] = counts[0]
            summary["max_docs_per_fact"] = counts[-1]
            summary["mean_docs_per_fact"] = round(sum(counts) / len(counts), 2)
            summary["median_docs_per_fact"] = counts[len(counts) // 2]
        return summary
