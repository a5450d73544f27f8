"""Mock search API: the reproducible stand-in for live Google SERP access.

FactCheck ships a hosted mock API that "emulates conventional web search
APIs while returning consistent results from our dataset", so experiments
are reproducible and independent of live search drift.  This class is the
in-process equivalent: a query with a result count (``num``; the corpus
is monolingual, so there is no locale), SERP-shaped results, and a
separate page-fetch step that returns
the document behind a result (whose text may be empty, like failed
``newspaper4k`` extractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .corpus import Corpus, Document
from .search import SearchEngine

__all__ = ["SerpEntry", "MockSearchAPI"]


@dataclass(frozen=True)
class SerpEntry:
    """One entry of a search-engine results page."""

    rank: int
    url: str
    title: str
    snippet: str
    source: str


class MockSearchAPI:
    """Search + page-fetch facade over the synthetic corpus.

    Parameters
    ----------
    corpus:
        The document collection to serve.
    default_num_results:
        Default SERP size (the paper stores the top 100 results per query).
    """

    def __init__(self, corpus: Corpus, default_num_results: int = 100) -> None:
        self.corpus = corpus
        self.engine = SearchEngine(corpus)
        self.default_num_results = default_num_results

    # -- search ------------------------------------------------------------------

    def search(self, query: str, *, num: Optional[int] = None) -> List[SerpEntry]:
        """Run a query and return up to ``num`` SERP entries (the corpus is
        monolingual, so a query has no locale)."""
        limit = num if num is not None else self.default_num_results
        results = self.engine.search(query, num_results=limit)
        return [
            SerpEntry(
                rank=rank + 1,
                url=result.document.url,
                title=result.document.title,
                snippet=result.snippet,
                source=result.document.source,
            )
            for rank, result in enumerate(results)
        ]

    # -- page fetch -----------------------------------------------------------------

    def fetch_document(self, url: str) -> Optional[Document]:
        return self.corpus.by_url(url)
