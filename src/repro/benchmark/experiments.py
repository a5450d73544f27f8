"""Per-table / per-figure experiment definitions.

Every data function regenerates one table or figure of the paper from a
:class:`~repro.benchmark.runner.BenchmarkRunner` and returns plain data
structures (dicts/lists) that the tests assert qualitative properties on.
:data:`EXPERIMENTS` declares each table/figure once — its title, its data
function and the formatter (with its columns) of that data — and is what the
CLI, ``benchmarks/bench_paper.py`` and the tests iterate;
:func:`paper_document` is every experiment's data as one JSON-ready
document, pinned at the tier-1 scale in ``BENCH_paper.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..baselines import (
    EvidentialPathChecker,
    KnowledgeLinker,
    KnowledgeStream,
    PredPath,
    build_reference_graph,
)
from ..datasets.statistics import statistics_table, summarize_similarities
from ..evaluation.efficiency import average_response_time
from ..evaluation.error_analysis import ErrorAnalyzer
from ..evaluation.metrics import classwise_f1_from_run, classwise_f1, random_guess_f1
from ..evaluation.pareto import build_tradeoff_points, pareto_frontier
from ..evaluation.reporting import (
    format_alignment_table,
    format_error_table,
    format_f1_table,
    format_pareto_points,
    format_ranking_series,
    format_table,
    format_time_table,
    format_upset,
)
from ..evaluation.upset import IntersectionCell, upset_intersections
from ..validation.base import ValidationRun
from .runner import BenchmarkRunner

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "grid_digests",
    "paper_document",
    "table2_dataset_statistics",
    "table3_rag_dataset_costs",
    "table4_rag_configuration",
    "table5_classwise_f1",
    "table6_alignment",
    "table7_consensus_f1",
    "table8_execution_time",
    "table9_error_clustering",
    "figure2_ranked_f1",
    "figure3_pareto",
    "figure4_upset",
    "rag_corpus_statistics",
    "ablation_rag_configuration",
    "baseline_comparison",
]


# --------------------------------------------------------------------- tables


def table2_dataset_statistics(runner: BenchmarkRunner) -> List[Dict[str, float]]:
    """Table 2: per-dataset facts, predicates, facts/entity, gold accuracy."""
    datasets = [runner.dataset(name) for name in runner.config.datasets]
    return statistics_table(datasets)


def table3_rag_dataset_costs(runner: BenchmarkRunner) -> Dict[str, float]:
    """Table 3: average time and token cost per RAG dataset-generation step,
    over 25 FactBench facts."""
    __, stats = runner.build_rag_dataset("factbench", max_facts=25)
    return {
        "question_generation_avg_seconds": round(stats.avg_question_generation_seconds, 2),
        "question_generation_avg_tokens": round(stats.avg_question_generation_tokens, 2),
        "serp_collection_avg_seconds": round(stats.avg_serp_seconds, 2),
        "document_fetch_avg_seconds": round(stats.avg_fetch_seconds, 2),
        "questions_per_fact": round(stats.avg_questions_per_fact, 2),
        "documents_collected": stats.num_documents,
    }


def table4_rag_configuration(runner: BenchmarkRunner) -> List[Tuple[str, str]]:
    """Table 4: the RAG pipeline configuration parameters."""
    return runner.config.rag_config().as_table()


def table5_classwise_f1(runner: BenchmarkRunner) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Table 5: ``[dataset][method][model] -> {"f1_true", "f1_false"}``."""
    table: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for dataset_name in runner.config.datasets:
        table[dataset_name] = {}
        for method in runner.config.methods:
            table[dataset_name][method] = {}
            for model_name in runner.config.grid_models():
                run = runner.run(method, dataset_name, model_name)
                scores = classwise_f1_from_run(run)
                table[dataset_name][method][model_name] = {
                    "f1_true": round(scores.f1_true, 3),
                    "f1_false": round(scores.f1_false, 3),
                }
    return table


def table6_alignment(
    runner: BenchmarkRunner,
) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], Dict[str, Dict[str, float]]]:
    """Table 6: consensus alignment CA_M and tie rates per dataset/method."""
    alignment: Dict[str, Dict[str, Dict[str, float]]] = {}
    ties: Dict[str, Dict[str, float]] = {}
    for dataset_name in runner.config.datasets:
        alignment[dataset_name] = {}
        ties[dataset_name] = {}
        for method in runner.config.methods:
            alignment[dataset_name][method] = {
                model: round(score, 3)
                for model, score in runner.alignment(method, dataset_name).items()
            }
            ties[dataset_name][method] = round(
                runner.consensus(method, dataset_name, judge="none").tie_rate(), 3
            )
    return alignment, ties


def table7_consensus_f1(runner: BenchmarkRunner) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Table 7: consensus F1 per arbitration strategy.

    ``[dataset][method][judge] -> {"f1_true", "f1_false"}`` where judge is one
    of ``agg-cons-up``, ``agg-cons-down``, ``agg-commercial``.
    """
    judges = {"agg-cons-up": "cons-up", "agg-cons-down": "cons-down", "agg-commercial": "commercial"}
    table: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for dataset_name in runner.config.datasets:
        table[dataset_name] = {}
        for method in runner.config.methods:
            table[dataset_name][method] = {}
            for label, judge in judges.items():
                consensus = runner.consensus(method, dataset_name, judge=judge)
                scores = classwise_f1(consensus.predictions(), consensus.gold())
                table[dataset_name][method][label] = {
                    "f1_true": round(scores.f1_true, 3),
                    "f1_false": round(scores.f1_false, 3),
                }
    return table


def table8_execution_time(runner: BenchmarkRunner) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table 8: IQR-filtered mean execution time per dataset/method/model."""
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset_name in runner.config.datasets:
        table[dataset_name] = {}
        for method in runner.config.methods:
            table[dataset_name][method] = {}
            for model_name in runner.config.models:
                run = runner.run(method, dataset_name, model_name)
                table[dataset_name][method][model_name] = round(
                    average_response_time(run.latencies()), 3
                )
    return table


def table9_error_clustering(runner: BenchmarkRunner) -> Dict[str, Dict[str, object]]:
    """Table 9: E1–E6 error counts of RAG per dataset and model, plus unique ratios."""
    analyzer = ErrorAnalyzer()
    table: Dict[str, Dict[str, object]] = {}
    for dataset_name in runner.config.datasets:
        dataset = runner.dataset(dataset_name)
        runs = runner.runs_for("rag", dataset_name, tuple(runner.config.models))
        models = {name: runner.registry.get(name) for name in runner.config.models}
        analysis = analyzer.analyze_runs(runs, dataset, models)
        table[dataset_name] = {
            "counts": analysis.counts_by_model(),
            "totals": analysis.totals_by_model(),
            "unique_ratios": analysis.unique_ratios(),
        }
    return table


# --------------------------------------------------------------------- figures


def figure2_ranked_f1(runner: BenchmarkRunner) -> Dict[str, object]:
    """Figure 2: configurations ranked by mean F1(T) and F1(F) across datasets."""
    entries: List[Dict[str, object]] = []
    datasets = list(runner.config.datasets)
    for method in runner.config.methods:
        for model_name in runner.config.grid_models():
            f1_true_values: List[float] = []
            f1_false_values: List[float] = []
            for dataset_name in datasets:
                scores = classwise_f1_from_run(runner.run(method, dataset_name, model_name))
                f1_true_values.append(scores.f1_true)
                f1_false_values.append(scores.f1_false)
            entries.append(
                {
                    "label": f"{model_name} ({method})",
                    "kind": "model",
                    "f1_true": round(sum(f1_true_values) / len(f1_true_values), 3),
                    "f1_false": round(sum(f1_false_values) / len(f1_false_values), 3),
                }
            )
        for judge_label, judge in (
            ("agg-cons-up", "cons-up"),
            ("agg-cons-down", "cons-down"),
        ):
            f1_true_values = []
            f1_false_values = []
            for dataset_name in datasets:
                consensus = runner.consensus(method, dataset_name, judge=judge)
                scores = classwise_f1(consensus.predictions(), consensus.gold())
                f1_true_values.append(scores.f1_true)
                f1_false_values.append(scores.f1_false)
            entries.append(
                {
                    "label": f"{judge_label} ({method})",
                    "kind": "consensus",
                    "f1_true": round(sum(f1_true_values) / len(f1_true_values), 3),
                    "f1_false": round(sum(f1_false_values) / len(f1_false_values), 3),
                }
            )
    # Random-guess baseline from the aggregate class balance.
    total_facts = 0
    total_positive = 0
    for dataset_name in datasets:
        dataset = runner.dataset(dataset_name)
        total_facts += len(dataset)
        total_positive += dataset.label_counts()[True]
    positive_rate = total_positive / total_facts if total_facts else 0.5
    baseline_true, baseline_false = random_guess_f1(positive_rate)
    return {
        "ranked_by_f1_true": sorted(entries, key=lambda item: -float(item["f1_true"])),
        "ranked_by_f1_false": sorted(entries, key=lambda item: -float(item["f1_false"])),
        "random_guess_f1_true": round(baseline_true, 3),
        "random_guess_f1_false": round(baseline_false, 3),
    }


def figure3_pareto(runner: BenchmarkRunner) -> Dict[str, object]:
    """Figure 3: latency/F1 trade-off points and the Pareto frontier."""
    f1_table = table5_classwise_f1(runner)
    time_table = table8_execution_time(runner)
    points = build_tradeoff_points(f1_table, time_table)
    return {
        "points": points,
        "frontier_f1_false": pareto_frontier(points, metric="f1_false"),
        "frontier_f1_true": pareto_frontier(points, metric="f1_true"),
    }


def figure4_upset(runner: BenchmarkRunner) -> Dict[str, List[IntersectionCell]]:
    """Figure 4: per-method intersections of correctly predicted facts."""
    result: Dict[str, List[IntersectionCell]] = {}
    for method in runner.config.methods:
        correct_by_model: Dict[str, List[str]] = {name: [] for name in runner.config.models}
        for dataset_name in runner.config.datasets:
            for model_name in runner.config.models:
                run = runner.run(method, dataset_name, model_name)
                correct_by_model[model_name].extend(run.correct_fact_ids())
        result[method] = upset_intersections(correct_by_model)
    return result


# ------------------------------------------------------------ auxiliary studies


def rag_corpus_statistics(runner: BenchmarkRunner) -> Dict[str, Dict[str, float]]:
    """RAG corpus statistics per dataset (§4.1: documents, coverage, questions)."""
    stats: Dict[str, Dict[str, float]] = {}
    for dataset_name in runner.config.datasets:
        corpus_stats = runner.corpus(dataset_name).stats()
        records, rag_stats = runner.build_rag_dataset(dataset_name, max_facts=15)
        similarities = [
            score for record in records.values() for __, score in record["questions"]
        ]
        distribution = summarize_similarities(similarities)
        corpus_stats.update(
            {
                "questions_per_fact": round(rag_stats.avg_questions_per_fact, 2),
                "question_similarity_mean": round(distribution.mean, 3),
                "question_similarity_high_share": round(distribution.high_share, 3),
                "question_similarity_low_share": round(distribution.low_share, 3),
            }
        )
        stats[dataset_name] = corpus_stats
    return stats


def ablation_rag_configuration(runner: BenchmarkRunner) -> List[Dict[str, float]]:
    """Ablation over the RAG configuration (selected documents, threshold, window).

    Mirrors the configuration-selection experiments the paper publishes in its
    repository: each row reports F1 for one configuration variant, judged by
    Gemma2 on 40 FactBench facts.
    """
    from ..validation.pipeline import ValidationPipeline

    dataset_name = "factbench"
    dataset = runner.dataset(dataset_name).sample(40, seed=runner.config.seed)
    model = runner.registry.get("gemma2:9b")
    variants = [
        {"selected_documents": 2, "relevance_threshold": 0.5, "chunk_window": 3},
        {"selected_documents": 5, "relevance_threshold": 0.5, "chunk_window": 3},
        {"selected_documents": 10, "relevance_threshold": 0.5, "chunk_window": 3},
        {"selected_documents": 10, "relevance_threshold": 0.8, "chunk_window": 3},
        {"selected_documents": 10, "relevance_threshold": 0.2, "chunk_window": 3},
        {"selected_documents": 10, "relevance_threshold": 0.5, "chunk_window": 1},
        {"selected_documents": 10, "relevance_threshold": 0.5, "chunk_window": 5},
    ]
    rows: List[Dict[str, float]] = []
    base = runner.config.rag_config()
    for variant in variants:
        config = replace(base, **variant)
        from ..validation.rag import UPSTREAM_MODEL, RAGValidator, TripleTransformer, QuestionGenerator

        upstream = runner.registry.get(UPSTREAM_MODEL)
        validator = RAGValidator(
            model=model,
            search_api=runner.search_api(dataset_name),
            kg_encoding=runner.encoding(dataset_name),
            config=config,
            transformer=TripleTransformer(upstream, runner.verbalizer),
            question_generator=QuestionGenerator(upstream, runner._reranker),
            reranker=runner._reranker,
            verbalizer=runner.verbalizer,
        )
        run = ValidationPipeline().run(validator, dataset)
        scores = classwise_f1_from_run(run)
        rows.append(
            {
                **variant,
                "f1_true": round(scores.f1_true, 3),
                "f1_false": round(scores.f1_false, 3),
            }
        )
    return rows


def baseline_comparison(runner: BenchmarkRunner) -> Dict[str, Dict[str, float]]:
    """Internal KG-based baselines vs. LLM strategies on the same 40
    FactBench facts.

    The reference KG is built from the world with a quarter of its facts
    withheld, emulating real KG incompleteness; PredPath is trained on a
    held-out split of the dataset.  The two families are timed in different
    units, so each has its own key: a graph baseline's ``measured_seconds``
    is this machine's wall clock around ``score``, an LLM strategy's
    ``simulated_seconds`` is the simulated model's latency.
    """
    dataset_name = "factbench"
    dataset = runner.dataset(dataset_name).sample(40, seed=runner.config.seed)
    graph = build_reference_graph(runner.world, exclude_fraction=0.25, seed=runner.config.seed)
    train, test = dataset.split(train_fraction=0.5, seed=runner.config.seed)
    predpath = PredPath(graph)
    predpath.fit(train.facts())
    checkers = {
        "kstream": KnowledgeStream(graph),
        "klinker": KnowledgeLinker(graph),
        "predpath": predpath,
        "evidential-paths": EvidentialPathChecker(graph),
    }
    results: Dict[str, Dict[str, float]] = {}
    for name, checker in checkers.items():
        run = checker.validate_dataset(test)
        scores = classwise_f1_from_run(run)
        results[name] = {
            "f1_true": round(scores.f1_true, 3),
            "f1_false": round(scores.f1_false, 3),
            "measured_seconds": round(average_response_time(run.latencies()), 4),
        }
    # LLM reference points on the same test facts (DKA and RAG with Gemma2).
    from ..validation.pipeline import ValidationPipeline

    for method in ("dka", "rag"):
        strategy = runner.build_strategy(method, dataset_name, runner.registry.get("gemma2:9b"))
        run = ValidationPipeline().run(strategy, test)
        scores = classwise_f1_from_run(run)
        results[f"gemma2:9b/{method}"] = {
            "f1_true": round(scores.f1_true, 3),
            "f1_false": round(scores.f1_false, 3),
            "simulated_seconds": round(average_response_time(run.latencies()), 4),
        }
    return results


# ------------------------------------------------------- the one declaration


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the paper: its title, how its numbers are
    computed from a runner, and how those numbers are printed."""

    title: str
    data: Callable[[BenchmarkRunner], Any]
    format: Callable[[Any, str], str]

    def render(self, runner: BenchmarkRunner) -> str:
        return self.format(self.data(runner), self.title)


def _table(
    headers: Sequence[str], rows: Callable[[Any], Iterable[Sequence[object]]]
) -> Callable[[Any, str], str]:
    """A formatter printing ``rows(data)`` under ``headers``."""
    return lambda data, title: format_table(headers, list(rows(data)), title)


def _format_figure2(figure: Dict[str, object], title: str) -> str:
    return "\n\n".join(
        format_ranking_series(
            figure[f"ranked_by_{metric}"],
            metric,
            figure[f"random_guess_{metric}"],
            title=f"{title} ({side}): ranked by {label}",
        )
        for side, metric, label in (("left", "f1_true", "F1(T)"), ("right", "f1_false", "F1(F)"))
    )


_JUDGES = ("agg-cons-up", "agg-cons-down", "agg-commercial")

EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment(
        "Table 2: dataset statistics",
        table2_dataset_statistics,
        _table(
            ["dataset", "facts", "predicates", "facts/entity", "gold accuracy"],
            lambda rows: (
                [r["dataset"], r["num_facts"], r["num_predicates"], r["avg_facts_per_entity"], r["gold_accuracy"]]
                for r in rows
            ),
        ),
    ),
    "table3": Experiment(
        "Table 3: RAG dataset generation cost",
        table3_rag_dataset_costs,
        _table(
            ["task", "avg time (s)", "avg tokens"],
            lambda costs: [
                ["Question Generation", costs["question_generation_avg_seconds"], costs["question_generation_avg_tokens"]],
                ["Get documents (SERP pages)", costs["serp_collection_avg_seconds"], "-"],
                ["Fetch documents per triple", costs["document_fetch_avg_seconds"], "-"],
            ],
        ),
    ),
    "table4": Experiment(
        "Table 4: RAG pipeline configuration",
        table4_rag_configuration,
        _table(["RAG component", "parameter"], lambda rows: rows),
    ),
    "table5": Experiment(
        "Table 5: class-wise F1 by dataset, method, and model",
        table5_classwise_f1,
        format_f1_table,
    ),
    "table6": Experiment(
        "Table 6: consensus alignment (CA) and tie rates",
        table6_alignment,
        lambda data, title: format_alignment_table(*data, title),
    ),
    "table7": Experiment(
        "Table 7: consensus performance",
        table7_consensus_f1,
        _table(
            ["dataset", "method", "up F1(T)", "up F1(F)", "down F1(T)", "down F1(F)", "gpt F1(T)", "gpt F1(F)"],
            lambda table: (
                [dataset, method]
                + [judges[judge][metric] for judge in _JUDGES for metric in ("f1_true", "f1_false")]
                for dataset, methods in table.items()
                for method, judges in methods.items()
            ),
        ),
    ),
    "table8": Experiment(
        "Table 8: average execution time (seconds)",
        table8_execution_time,
        format_time_table,
    ),
    "table9": Experiment(
        "Table 9: error clustering by dataset and model",
        table9_error_clustering,
        lambda table, title: format_error_table(
            {dataset: block["counts"] for dataset, block in table.items()}, title
        ),
    ),
    "figure2": Experiment("Figure 2", figure2_ranked_f1, _format_figure2),
    "figure3": Experiment(
        "Figure 3: time/F1 trade-off",
        figure3_pareto,
        lambda figure, title: format_pareto_points(
            figure["points"], figure["frontier_f1_false"], title
        ),
    ),
    "figure4": Experiment(
        "Figure 4",
        figure4_upset,
        lambda cells_by_method, title: "\n\n".join(
            format_upset(cells, title=f"{title} ({method})")
            for method, cells in cells_by_method.items()
        ),
    ),
    "corpus-stats": Experiment(
        "RAG corpus statistics",
        rag_corpus_statistics,
        _table(
            ["dataset", "num_documents", "mean_docs_per_fact", "text_coverage_rate", "questions_per_fact"],
            lambda stats: (
                [name, s["num_documents"], s["mean_docs_per_fact"], s["text_coverage_rate"], s["questions_per_fact"]]
                for name, s in stats.items()
            ),
        ),
    ),
    "ablation": Experiment(
        "RAG configuration ablation",
        ablation_rag_configuration,
        _table(
            ["k_d", "threshold", "chunk window", "F1(T)", "F1(F)"],
            lambda rows: (
                [r["selected_documents"], r["relevance_threshold"], r["chunk_window"], r["f1_true"], r["f1_false"]]
                for r in rows
            ),
        ),
    ),
    "baselines": Experiment(
        "Internal KG baselines vs LLM strategies "
        "(measured: this machine's wall clock, not pinned; simulated: model latency)",
        baseline_comparison,
        _table(
            ["approach", "F1(T)", "F1(F)", "measured s/fact", "simulated s/fact"],
            lambda results: (
                [name, s["f1_true"], s["f1_false"], s.get("measured_seconds", "-"), s.get("simulated_seconds", "-")]
                for name, s in results.items()
            ),
        ),
    ),
}


# ------------------------------------------------------------------ the pin


def grid_digests(grid: Dict[str, Dict[str, Dict[str, ValidationRun]]]) -> Dict[str, str]:
    """One digest per cell of ``grid[method][dataset][model]`` (the shape
    :meth:`BenchmarkRunner.run_grid` returns), keyed ``dataset/method/model``,
    over the run's ordered verdicts and resource accounting."""
    return {
        f"{dataset}/{method}/{model}": hashlib.sha256(
            json.dumps(
                [
                    (r.fact_id, r.verdict.value, r.prompt_tokens, r.completion_tokens, r.latency_seconds)
                    for r in run.results
                ]
            ).encode("utf-8")
        ).hexdigest()
        for method, datasets in grid.items()
        for dataset, models in datasets.items()
        for model, run in models.items()
    }


def _canonical(value: Any) -> Any:
    """``value`` as JSON-ready data: dataclasses as dicts, sequences as
    lists, keys sorted; ``measured_*`` keys (wall-clock readings) dropped."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {
            key: _canonical(value[key])
            for key in sorted(value)
            if not key.startswith("measured_")
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def paper_document(runner: BenchmarkRunner) -> Dict[str, Any]:
    """Every number of the reproduction as one JSON-ready document.

    ``experiments[name]`` is that experiment's data and ``grid`` the
    :func:`grid_digests` of the full method x dataset x model grid.  A
    pure function of ``runner.config``: nothing in it is read from a
    clock, so two runs — in any process, under any hash seed — are equal.
    """
    return _canonical(
        {
            "experiments": {name: experiment.data(runner) for name, experiment in EXPERIMENTS.items()},
            "grid": grid_digests(runner.run_grid()),
        }
    )
