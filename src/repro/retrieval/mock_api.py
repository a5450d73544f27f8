"""Mock search API: the reproducible stand-in for live Google SERP access.

FactCheck ships a hosted mock API that "emulates conventional web search
APIs while returning consistent results from our dataset", so experiments
are reproducible and independent of live search drift.  This class is the
in-process equivalent: the same query parameters (``lr``, ``hl``, ``gl``,
``num``), SERP-shaped results, and a separate content-fetch step that
returns the extracted page text (which may be empty, like failed
``newspaper4k`` extractions).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from .corpus import Corpus, Document
from .search import SearchEngine, SearchResult

__all__ = ["SerpEntry", "MockSearchAPI"]

#: How many of the most recent queries :meth:`MockSearchAPI.query_log` keeps.
QUERY_LOG_CAP = 4096


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
        self._query_log: Deque[Dict[str, str]] = deque(maxlen=QUERY_LOG_CAP)

    # -- search ------------------------------------------------------------------

    def search(
        self,
        query: str,
        *,
        lr: str = "lang_en",
        hl: str = "en",
        gl: str = "us",
        num: Optional[int] = None,
    ) -> List[SerpEntry]:
        """Run a query with Google-style parameters and return SERP entries.

        The locale parameters are accepted (and logged) for interface
        fidelity; the synthetic corpus is monolingual so they do not change
        the results.
        """
        limit = num if num is not None else self.default_num_results
        self._query_log.append({"q": query, "lr": lr, "hl": hl, "gl": gl, "num": str(limit)})
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

    def fetch_content(self, url: str) -> Optional[str]:
        """Return the extracted text of a page, or ``None`` for unknown URLs.

        Empty strings are legitimate return values: they correspond to pages
        whose text extraction failed (13% of the paper's corpus).
        """
        document = self.corpus.by_url(url)
        if document is None:
            return None
        return document.text

    def fetch_document(self, url: str) -> Optional[Document]:
        return self.corpus.by_url(url)

    # -- introspection ----------------------------------------------------------------

    def query_log(self) -> List[Dict[str, str]]:
        """The last ``QUERY_LOG_CAP`` queries, oldest first (cost accounting, tests)."""
        return list(self._query_log)

    def reset_log(self) -> None:
        self._query_log.clear()
