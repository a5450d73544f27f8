"""Scenario: qualitative error analysis of a validation run (paper section 7).

The script validates a YAGO-style and a FactBench-style dataset with the four
open-source models, collects every incorrect prediction, asks the model to
explain its own mistake, clusters the explanations into the paper's E1–E6
taxonomy, and prints the per-dataset breakdown together with the prediction
overlap (UpSet) summary.

Run with::

    python examples/error_analysis_report.py
"""

from __future__ import annotations

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.evaluation import ErrorAnalyzer, format_error_table, format_upset, upset_intersections


def main() -> None:
    config = ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=40,
        world_scale=0.25,
        documents_per_fact=12,
        serp_results_per_query=20,
        datasets=("factbench", "yago"),
    )
    runner = BenchmarkRunner(config)
    analyzer = ErrorAnalyzer()
    method = "dka"

    error_counts = {}
    for dataset_name in runner.config.datasets:
        dataset = runner.dataset(dataset_name)
        runs = runner.runs_for(method, dataset_name)
        models = {name: runner.registry.get(name) for name in runner.config.models}
        analysis = analyzer.analyze_runs(runs, dataset, models)
        error_counts[dataset_name] = analysis.counts_by_model()

        print(f"=== {dataset_name}: example error explanations ===")
        for record in analysis.records[:4]:
            print(f"[{record.category}] ({record.model}) {record.explanation}")
        ratios = analysis.unique_ratios()
        print("unique-error ratios: "
              + " ".join(f"{key}={value:.2f}" for key, value in ratios.items()))
        print()

    print(format_error_table(error_counts,
                             title=f"Error clustering by dataset and model ({method})"))
    print()

    correct_by_model = {name: [] for name in runner.config.models}
    for dataset_name in runner.config.datasets:
        for name in runner.config.models:
            correct_by_model[name].extend(
                runner.run(method, dataset_name, name).correct_fact_ids()
            )
    print(
        format_upset(
            upset_intersections(correct_by_model),
            title="=== Overlap of correct predictions across models (Figure 4 style) ===",
        )
    )


if __name__ == "__main__":
    main()
