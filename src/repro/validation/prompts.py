"""Prompt templates and response parsing for every validation strategy.

The prompts mirror the paper's three prompting regimes:

* **DKA** — a basic direct prompt with no guidance;
* **GIV** — a structured template that fixes the expected output format and
  optionally includes few-shot exemplars; non-conformant responses trigger a
  re-prompt that explicitly flags the non-compliance;
* **RAG** — the GIV-style structured prompt extended with retrieved evidence
  passages.

Parsing is deliberately tolerant (models answer in prose, JSON, or single
words); :func:`parse_verdict` returns ``None`` when no verdict can be
extracted so the calling strategy can re-prompt or mark the response
invalid.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional, Sequence, Tuple

from ..datasets.base import LabeledFact

__all__ = [
    "FEW_SHOT_EXAMPLES",
    "dka_prompt",
    "giv_prompt",
    "rag_prompt",
    "reprompt_suffix",
    "transform_prompt",
    "question_generation_prompt",
    "error_explanation_prompt",
    "parse_verdict",
    "parse_questions",
]

# Few-shot exemplars are KG-independent at the semantic level; the encoding
# shown to the model uses plain camelCase predicates, as the paper adapts the
# encoding "to align with predicate and schema conventions" of each KG.
FEW_SHOT_EXAMPLES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("Marie Curie", "award", "Nobel Prize in Physics", True),
    ("Paris", "locatedIn", "Germany", False),
    ("The Great Gatsby", "author", "F. Scott Fitzgerald", True),
    ("Albert Einstein", "birthPlace", "Madrid", False),
)


def _statement_block(fact: LabeledFact, statement: Optional[str]) -> str:
    rendered = statement or f"{fact.subject_name} {fact.predicate_name} {fact.object_name}."
    return (
        f"Triple: <{fact.triple.subject}, {fact.triple.predicate}, {fact.triple.object}>\n"
        f"Statement: {rendered}"
    )


def dka_prompt(fact: LabeledFact, statement: Optional[str] = None) -> str:
    """The paper's Direct Knowledge Assessment prompt: short and unguided."""
    return (
        "Evaluate whether the following knowledge graph statement is factually "
        "correct. Answer with True or False.\n\n"
        f"{_statement_block(fact, statement)}\n\nAnswer:"
    )


def _few_shot_block() -> str:
    lines = ["Here are examples of correctly evaluated triples:"]
    for subject, predicate, obj, label in FEW_SHOT_EXAMPLES:
        verdict = "true" if label else "false"
        lines.append(
            f'- Triple: <{subject}, {predicate}, {obj}> -> {{"verdict": "{verdict}"}}'
        )
    return "\n".join(lines)


def giv_prompt(
    fact: LabeledFact,
    statement: Optional[str] = None,
    few_shot: bool = False,
) -> str:
    """Guided Iterative Verification prompt (zero-shot or few-shot)."""
    sections: List[str] = [
        "You are a precise fact-verification assistant for knowledge graphs.",
        "Judge the statement below using your internal knowledge only.",
        'Respond with a single JSON object: {"verdict": "true" | "false", '
        '"confidence": <0..1>, "reasoning": "<one sentence>"}.',
    ]
    if few_shot:
        sections.append(_few_shot_block())
    sections.append(_statement_block(fact, statement))
    sections.append("JSON answer:")
    return "\n\n".join(sections)


def rag_prompt(
    fact: LabeledFact,
    evidence_chunks: Sequence[str],
    statement: Optional[str] = None,
) -> str:
    """RAG verification prompt: structured output plus retrieved evidence."""
    evidence_lines = [
        f"[{index + 1}] {chunk}" for index, chunk in enumerate(evidence_chunks)
    ] or ["(no evidence retrieved)"]
    return "\n\n".join(
        [
            "You are a precise fact-verification assistant for knowledge graphs.",
            "Use the retrieved evidence passages below, together with your own "
            "knowledge, to judge the statement.",
            'Respond with a single JSON object: {"verdict": "true" | "false", '
            '"confidence": <0..1>, "reasoning": "<one sentence>"}.',
            "Evidence passages:\n" + "\n".join(evidence_lines),
            _statement_block(fact, statement),
            "JSON answer:",
        ]
    )


def reprompt_suffix(previous_response: str) -> str:
    """Appended when the previous answer did not follow the required format."""
    trimmed = previous_response.strip().replace("\n", " ")[:200]
    return (
        "\n\nYour previous response did not follow the required format "
        f'(it was: "{trimmed}"). You MUST answer with the JSON object '
        '{"verdict": "true" | "false", ...} and nothing else.'
    )


def transform_prompt(fact: LabeledFact) -> str:
    """Phase 1 of RAG: ask the model to verbalize the encoded triple."""
    return (
        "Convert the following knowledge graph triple into a single fluent, "
        "human-readable English sentence. Resolve namespaces, underscores, and "
        "camelCase predicates into natural words.\n\n"
        f"Triple: <{fact.triple.subject}, {fact.triple.predicate}, {fact.triple.object}>\n"
        "Sentence:"
    )


def question_generation_prompt(statement: str, num_questions: int) -> str:
    """Phase 2 of RAG: ask for candidate web-search questions."""
    return (
        f"Generate {num_questions} distinct web search questions that would help "
        "verify the following statement. Cover different facets of the statement. "
        "Return one question per line, numbered.\n\n"
        f"Statement: {statement}\n\nQuestions:"
    )


def error_explanation_prompt(fact: LabeledFact, predicted: str) -> str:
    """Post-hoc prompt asking the model to explain an incorrect prediction."""
    return (
        "You previously judged the following statement incorrectly as "
        f"'{predicted}'. Explain in one or two sentences what kind of error "
        "was made (missing context, wrong relationship, wrong role, wrong "
        "place, wrong classification, or wrong identifier).\n\n"
        f"{_statement_block(fact, None)}\n\nExplanation:"
    )


_JSON_VERDICT_RE = re.compile(r'"verdict"\s*:\s*"?(true|false)"?', re.IGNORECASE)
_WORD_TRUE_RE = re.compile(r"\b(true|correct|yes|supported|accurate)\b", re.IGNORECASE)
_WORD_FALSE_RE = re.compile(r"\b(false|incorrect|no|refuted|inaccurate|wrong)\b", re.IGNORECASE)
_JSON_WHITESPACE = " \t\r\n"


def parse_verdict(text: str) -> Optional[bool]:
    """Extract a boolean verdict from a model response.

    Tries, in order: a JSON ``verdict`` field, a leading ``True``/``False``
    token, and finally keyword matching anywhere in the first sentence.
    Returns ``None`` when the response is non-conformant.

    Only a JSON object can carry a ``verdict`` key, so the whole text is
    decoded as JSON only when it opens with ``{`` after JSON whitespace
    (space, tab, CR, LF); prose answers never reach the decoder.
    """
    if not text or not text.strip():
        return None
    match = _JSON_VERDICT_RE.search(text)
    if match:
        return match.group(1).lower() == "true"
    if text.lstrip(_JSON_WHITESPACE).startswith("{"):
        try:
            payload = json.loads(text)
            if isinstance(payload, dict) and "verdict" in payload:
                value = str(payload["verdict"]).strip().lower()
                if value in ("true", "false"):
                    return value == "true"
        except (ValueError, TypeError):
            pass
    head = text.strip().split("\n", 1)[0][:120]
    true_match = _WORD_TRUE_RE.search(head)
    false_match = _WORD_FALSE_RE.search(head)
    if true_match and false_match:
        # Both keywords present: take whichever appears first.
        return true_match.start() < false_match.start()
    if true_match:
        return True
    if false_match:
        return False
    return None


_QUESTION_LINE_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)?(.+?)\s*$")


def parse_questions(text: str) -> List[str]:
    """Extract the question lines from a question-generation response."""
    questions: List[str] = []
    for line in text.splitlines():
        match = _QUESTION_LINE_RE.match(line)
        if not match:
            continue
        candidate = match.group(1).strip()
        if candidate.endswith("?") and len(candidate) > 8:
            questions.append(candidate)
    return questions
