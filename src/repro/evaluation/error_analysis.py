"""Qualitative error analysis: the paper's E1–E6 error taxonomy (Table 9).

The paper collects the incorrect predictions of the open-source models,
prompts the same model to explain each mistake, embeds the explanations
(cde-small-v1), reduces with UMAP, clusters with HDBSCAN, and labels the
clusters.  The resulting categories are:

* **E1 Unlabeled** — the supplied context misses the asserted details or the
  relevant entities;
* **E2 Relationship errors** — wrong marital status, affiliation, religion;
* **E3 Role attribution errors** — wrong role, location, or team link;
* **E4 Geographic/nationality errors** — places or national affiliation
  inconsistent with the context;
* **E5 Genre/classification errors** — miscategorised works or genres;
* **E6 Identifier/biographical errors** — wrong identifiers, awards, dates.

Offline, the same error logs are produced (incorrect predictions plus an
LLM-generated explanation) and categorised deterministically: first by
keyword/evidence analysis of the explanation, then — for uncategorised
explanations — by nearest-centroid assignment in the hashing-embedding
space, a faithful lightweight stand-in for the UMAP+HDBSCAN step.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..datasets.base import FactDataset, LabeledFact
from ..llm.base import LLMClient
from ..retrieval.embeddings import HashingEmbedder
from ..validation.base import ValidationRun
from ..validation.prompts import error_explanation_prompt

__all__ = [
    "ERROR_CATEGORIES",
    "ErrorRecord",
    "ErrorAnalysis",
    "ErrorAnalyzer",
    "unique_ratio",
]

ERROR_CATEGORIES: Tuple[str, ...] = ("E1", "E2", "E3", "E4", "E5", "E6")

# Keyword anchors per category, applied to the LLM-generated explanation.
_CATEGORY_KEYWORDS: Dict[str, Tuple[str, ...]] = {
    "E1": ("context did not mention", "missing", "incomplete evidence", "not mention"),
    "E2": ("relationship", "marital", "married", "affiliation", "spouse", "religion"),
    "E3": ("role", "team", "organization", "employer", "linked to the wrong"),
    "E4": ("place", "national", "nationality", "geograph", "located", "country", "city"),
    "E5": ("genre", "categorized", "classification", "class", "miscategor"),
    "E6": ("identifier", "award", "date", "year", "record", "biographical"),
}

# Mapping from predicate semantic category to the most likely error category,
# used to seed centroids for explanations that match no keyword.
_PREDICATE_CATEGORY_TO_ERROR: Dict[str, str] = {
    "relationship": "E2",
    "role": "E3",
    "geographic": "E4",
    "genre": "E5",
    "biographical": "E6",
}


@dataclass(frozen=True)
class ErrorRecord:
    """One incorrect prediction with its generated explanation and category."""

    fact_id: str
    model: str
    dataset: str
    method: str
    predicted: Optional[bool]
    gold: bool
    explanation: str
    category: str


@dataclass
class ErrorAnalysis:
    """Aggregated error-clustering results for one dataset (a Table 9 block)."""

    dataset: str
    records: List[ErrorRecord] = field(default_factory=list)

    def counts_by_model(self) -> Dict[str, Dict[str, int]]:
        """``model -> {E1..E6 -> count}`` plus implicit totals."""
        table: Dict[str, Dict[str, int]] = defaultdict(lambda: {c: 0 for c in ERROR_CATEGORIES})
        for record in self.records:
            table[record.model][record.category] += 1
        return {model: dict(counts) for model, counts in sorted(table.items())}

    def totals_by_model(self) -> Dict[str, int]:
        return {
            model: sum(counts.values()) for model, counts in self.counts_by_model().items()
        }

    def unique_ratios(self) -> Dict[str, float]:
        """Per-category share of errors made by exactly one model (Table 9's ratio row)."""
        ratios: Dict[str, float] = {}
        for category in ERROR_CATEGORIES:
            fact_models: Dict[str, set] = defaultdict(set)
            for record in self.records:
                if record.category == category:
                    fact_models[record.fact_id].add(record.model)
            ratios[category] = unique_ratio(fact_models)
        all_fact_models: Dict[str, set] = defaultdict(set)
        for record in self.records:
            all_fact_models[record.fact_id].add(record.model)
        ratios["total"] = unique_ratio(all_fact_models)
        return ratios


def unique_ratio(fact_models: Mapping[str, set]) -> float:
    """Share of erred facts that only a single model got wrong."""
    if not fact_models:
        return 0.0
    unique = sum(1 for models in fact_models.values() if len(models) == 1)
    return round(unique / len(fact_models), 2)


class ErrorAnalyzer:
    """Builds error logs from validation runs and categorises them."""

    def __init__(self, embedder: Optional[HashingEmbedder] = None) -> None:
        self.embedder = embedder or HashingEmbedder()
        self._centroids = self._build_centroids()

    def _build_centroids(self) -> Dict[str, np.ndarray]:
        """Embed the keyword anchors of each category as its centroid."""
        centroids: Dict[str, np.ndarray] = {}
        for category, keywords in _CATEGORY_KEYWORDS.items():
            centroids[category] = self.embedder.embed(" ".join(keywords))
        return centroids

    # -- categorisation -------------------------------------------------------

    def categorize(self, explanation: str, fact: Optional[LabeledFact] = None) -> str:
        """Assign an explanation to one of E1–E6.

        Keyword matching runs first (E1 has priority because missing-context
        wording is unambiguous); unmatched explanations fall back to
        nearest-centroid assignment in embedding space, optionally tie-broken
        by the fact's predicate category.
        """
        lowered = explanation.lower()
        for category in ERROR_CATEGORIES:
            if any(keyword in lowered for keyword in _CATEGORY_KEYWORDS[category]):
                return category
        vector = self.embedder.embed(explanation)
        best_category = None
        best_score = -1.0
        for category, centroid in self._centroids.items():
            score = float(np.dot(vector, centroid))
            if score > best_score:
                best_score = score
                best_category = category
        if best_score <= 0.05 and fact is not None:
            return _PREDICATE_CATEGORY_TO_ERROR.get(fact.category, "E1")
        return best_category or "E1"

    # -- end-to-end analysis ------------------------------------------------------

    def analyze_run(
        self,
        run: ValidationRun,
        dataset: FactDataset,
        model: LLMClient,
    ) -> List[ErrorRecord]:
        """Collect and categorise the incorrect predictions of one run.

        For every wrong prediction the *same* model is prompted to explain
        its error (as in the paper); the explanation is then categorised.
        """
        records: List[ErrorRecord] = []
        for result in run.results:
            if result.is_correct is not False:
                continue
            fact = dataset.get(result.fact_id)
            if fact is None:
                continue
            predicted = result.verdict.as_bool()
            prompt = error_explanation_prompt(
                fact, "true" if predicted else "false"
            )
            response = model.generate(
                prompt,
                metadata={
                    "task": "explain_error",
                    "fact": fact,
                    "had_evidence": result.num_evidence_chunks > 0,
                    "evidence_useful": result.evidence_mentions_subject,
                },
            )
            category = self.categorize(response.text, fact)
            records.append(
                ErrorRecord(
                    fact_id=result.fact_id,
                    model=run.model,
                    dataset=dataset.name,
                    method=run.method,
                    predicted=predicted,
                    gold=result.gold_label,
                    explanation=response.text,
                    category=category,
                )
            )
        return records

    def analyze_runs(
        self,
        runs: Mapping[str, ValidationRun],
        dataset: FactDataset,
        models: Mapping[str, LLMClient],
    ) -> ErrorAnalysis:
        """Analyse one dataset across several models (one Table 9 block)."""
        analysis = ErrorAnalysis(dataset=dataset.name)
        for model_name, run in sorted(runs.items()):
            model = models[model_name]
            analysis.records.extend(self.analyze_run(run, dataset, model))
        return analysis
