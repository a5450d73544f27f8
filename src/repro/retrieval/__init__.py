"""Retrieval substrate: corpus, synthetic web, search, reranking, chunking.

This package replaces the paper's live Google SERP access and its released
2M-document corpus: a synthetic web is generated from the world model, a
BM25 engine plays the role of the search API, and deterministic
lexical/embedding scorers stand in for the cross-encoder rerankers.
"""

from .cache import LRUCache
from .chunking import Chunk, SlidingWindowChunker, split_sentences
from .corpus import Corpus, Document
from .embeddings import HashingEmbedder, cosine_similarity
from .mock_api import MockSearchAPI, SerpEntry
from .reranker import CrossEncoderReranker, ScoredText
from .search import SearchEngine, SearchResult
from .webgen import WebCorpusGenerator

__all__ = [
    "Chunk",
    "Corpus",
    "CrossEncoderReranker",
    "Document",
    "HashingEmbedder",
    "LRUCache",
    "MockSearchAPI",
    "ScoredText",
    "SearchEngine",
    "SearchResult",
    "SerpEntry",
    "SlidingWindowChunker",
    "WebCorpusGenerator",
    "cosine_similarity",
    "split_sentences",
]
