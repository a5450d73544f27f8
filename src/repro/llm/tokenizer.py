"""Deterministic tokenizer used for token accounting.

The benchmark tracks token usage per request (the paper reports average
token expenditure for the RAG dataset generation and monitors usage through
OpenLIT).  Offline we do not need a model-faithful BPE vocabulary — only a
stable, deterministic count that scales with text length the way real
tokenizers do (roughly 1.3 tokens per whitespace word for English).
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["count_tokens"]

# One token = up to six ASCII alphanumerics (a greedy ``{1,6}`` cuts a long
# word into the same fixed-size chunks slicing would) or one other
# non-space character.
_TOKEN_RE = re.compile(r"[A-Za-z0-9]{1,6}|[^\sA-Za-z0-9]")

# Serving re-sends the same prompts (a cache-miss read rebuilds the prompt of
# a coordinate it has judged before; every model of a grid shares a fact's
# prompt), so a count is kept per text.  1024 entries hold the 761 distinct
# texts of the largest benchmark workload (cold_reads) with a third to spare;
# even filled with the longest prompt seen (2.8 kB) the memo retains under 3 MB.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def count_tokens(text: str) -> int:
    """Number of tokens in ``text`` (exact; memoised per distinct text)."""
    return len(_TOKEN_RE.findall(text))
