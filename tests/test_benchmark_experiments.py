"""Tests for the table/figure experiment definitions (qualitative result shape).

These are the "reproduction" tests: they assert the qualitative findings the
paper reports, not absolute numbers — RAG improving over DKA, YAGO's F1(F)
collapse, the DKA < GIV < RAG latency ordering, consensus tie rates shrinking
under RAG, and so on.
"""

import pytest

from repro.benchmark import (
    EXPERIMENTS,
    ablation_rag_configuration,
    baseline_comparison,
    figure2_ranked_f1,
    figure3_pareto,
    figure4_upset,
    rag_corpus_statistics,
    table2_dataset_statistics,
    table3_rag_dataset_costs,
    table4_rag_configuration,
    table5_classwise_f1,
    table6_alignment,
    table7_consensus_f1,
    table8_execution_time,
    table9_error_clustering,
)
from repro.evaluation import ERROR_CATEGORIES


@pytest.fixture(scope="session")
def f1_table(runner):
    return table5_classwise_f1(runner)


@pytest.fixture(scope="session")
def time_table(runner):
    return table8_execution_time(runner)


class TestTable2:
    def test_rows_and_gold_accuracies(self, runner):
        rows = {row["dataset"]: row for row in table2_dataset_statistics(runner)}
        assert set(rows) == {"factbench", "yago", "dbpedia"}
        assert rows["yago"]["gold_accuracy"] > rows["dbpedia"]["gold_accuracy"] > rows["factbench"]["gold_accuracy"]

    def test_dbpedia_has_most_predicates(self, runner):
        rows = {row["dataset"]: row for row in table2_dataset_statistics(runner)}
        assert rows["dbpedia"]["num_predicates"] >= rows["yago"]["num_predicates"]


class TestTable3:
    def test_several_questions_survive_per_fact_and_counts_are_integers(self, runner):
        costs = table3_rag_dataset_costs(runner)
        assert costs["questions_per_fact"] >= 2
        assert type(costs["documents_collected"]) is int and costs["documents_collected"] > 0


class TestTable4:
    def test_configuration_rows(self, runner):
        rows = dict(table4_rag_configuration(runner))
        assert rows["Relevance Threshold"] == "0.5"
        assert rows["Selected Questions"] == "3"
        assert "Sliding Window" in rows["Chunking Strategy"]


class TestTable5:
    def test_grid_is_complete(self, runner, f1_table):
        for dataset in runner.config.datasets:
            for method in runner.config.methods:
                assert set(f1_table[dataset][method]) == set(runner.config.grid_models())

    def test_rag_beats_dka_on_factbench(self, f1_table):
        rag_scores = f1_table["factbench"]["rag"]
        dka_scores = f1_table["factbench"]["dka"]
        rag_mean = sum(s["f1_true"] for s in rag_scores.values()) / len(rag_scores)
        dka_mean = sum(s["f1_true"] for s in dka_scores.values()) / len(dka_scores)
        assert rag_mean > dka_mean
        # F1(F) gains are the noisiest signal at the 44-fact test scale (only
        # ~20 negatives); allow a wider tolerance than for F1(T) while still
        # catching a genuine collapse of the retrieval signal.
        rag_false_mean = sum(s["f1_false"] for s in rag_scores.values()) / len(rag_scores)
        dka_false_mean = sum(s["f1_false"] for s in dka_scores.values()) / len(dka_scores)
        assert rag_false_mean > dka_false_mean - 0.12

    def test_yago_f1_false_collapses(self, f1_table):
        for method in ("dka", "giv-z", "giv-f"):
            for scores in f1_table["yago"][method].values():
                assert scores["f1_false"] <= 0.35

    def test_commercial_model_weak_on_true_class_internal_knowledge(self, f1_table):
        gpt = f1_table["factbench"]["dka"]["gpt-4o-mini"]
        gemma = f1_table["factbench"]["dka"]["gemma2:9b"]
        assert gpt["f1_true"] < gemma["f1_true"]

    def test_rag_lifts_commercial_model(self, f1_table):
        gpt_dka = f1_table["factbench"]["dka"]["gpt-4o-mini"]["f1_true"]
        gpt_rag = f1_table["factbench"]["rag"]["gpt-4o-mini"]["f1_true"]
        assert gpt_rag > gpt_dka

    def test_scores_are_probabilities(self, f1_table):
        for dataset in f1_table.values():
            for method in dataset.values():
                for scores in method.values():
                    assert 0.0 <= scores["f1_true"] <= 1.0
                    assert 0.0 <= scores["f1_false"] <= 1.0


class TestTable6And7:
    def test_alignment_and_tie_rates(self, runner):
        alignment, ties = table6_alignment(runner)
        for dataset in runner.config.datasets:
            for method in runner.config.methods:
                assert set(alignment[dataset][method]) == set(runner.config.models)
                assert 0.0 <= ties[dataset][method] <= 1.0
                for value in alignment[dataset][method].values():
                    assert 0.0 <= value <= 1.0

    def test_rag_reduces_ties_compared_to_givz(self, runner):
        __, ties = table6_alignment(runner)
        rag_mean = sum(ties[d]["rag"] for d in runner.config.datasets) / len(runner.config.datasets)
        givz_mean = sum(ties[d]["giv-z"] for d in runner.config.datasets) / len(runner.config.datasets)
        assert rag_mean <= givz_mean + 0.05

    def test_consensus_table_judges_agree_closely(self, runner):
        table = table7_consensus_f1(runner)
        for dataset, methods in table.items():
            for method, judges in methods.items():
                values = [entry["f1_true"] for entry in judges.values()]
                assert max(values) - min(values) <= 0.30


class TestTable8:
    def test_method_cost_ordering(self, runner, time_table):
        for dataset in runner.config.datasets:
            for model in runner.config.models:
                dka = time_table[dataset]["dka"][model]
                giv_z = time_table[dataset]["giv-z"][model]
                giv_f = time_table[dataset]["giv-f"][model]
                rag = time_table[dataset]["rag"][model]
                assert dka < giv_z < giv_f < rag

    def test_rag_is_several_times_dka(self, runner, time_table):
        for dataset in runner.config.datasets:
            for model in runner.config.models:
                assert time_table[dataset]["rag"][model] >= 3 * time_table[dataset]["dka"][model]

    def test_mistral_fastest_on_dka(self, time_table):
        dka = time_table["factbench"]["dka"]
        assert dka["mistral:7b"] == min(dka.values())


class TestTable9:
    def test_every_model_is_clustered_into_the_six_categories(self, runner):
        table = table9_error_clustering(runner)
        assert set(table) == set(runner.config.datasets)
        for block in table.values():
            assert set(block["counts"]) == set(runner.config.models)
            for model_counts in block["counts"].values():
                assert set(model_counts) == set(ERROR_CATEGORIES)
            assert block["unique_ratios"]
            for ratio in block["unique_ratios"].values():
                assert 0.0 <= ratio <= 1.0


class TestAuxiliaryStudies:
    def test_corpus_statistics_coverage_and_integer_counts(self, runner):
        stats = rag_corpus_statistics(runner)
        assert set(stats) == set(runner.config.datasets)
        for dataset_stats in stats.values():
            assert 0.6 <= dataset_stats["text_coverage_rate"] <= 1.0
            assert dataset_stats["questions_per_fact"] >= 2
            assert type(dataset_stats["num_documents"]) is int
        # A count prints as a count, not as ``841.00``.
        corpus_stats = EXPERIMENTS["corpus-stats"]
        rendered = corpus_stats.format(stats, corpus_stats.title)
        assert f"factbench  {stats['factbench']['num_documents']} " in rendered

    def test_ablation_sweeps_the_three_knobs_with_integer_sizes(self, runner):
        rows = ablation_rag_configuration(runner)
        assert len(rows) >= 5
        for knob in ("selected_documents", "relevance_threshold", "chunk_window"):
            assert len({row[knob] for row in rows}) >= 3
        for row in rows:
            assert type(row["selected_documents"]) is int and type(row["chunk_window"]) is int
            assert 0.0 <= row["f1_true"] <= 1.0 and 0.0 <= row["f1_false"] <= 1.0

    def test_baselines_keep_measured_and_simulated_seconds_apart(self, runner):
        results = baseline_comparison(runner)
        graph = {"kstream", "klinker", "predpath", "evidential-paths"}
        assert graph <= set(results)
        for name, scores in results.items():
            # Wall clock around ``score`` for a graph baseline, simulated
            # model latency for an LLM strategy: never one column.
            expected = "measured_seconds" if name in graph else "simulated_seconds"
            assert {"measured_seconds", "simulated_seconds"} & set(scores) == {expected}
        baselines = EXPERIMENTS["baselines"]
        header = baselines.format(results, baselines.title).splitlines()[1]
        assert "measured s/fact" in header and "simulated s/fact" in header


class TestFigures:
    def test_figure2_contains_consensus_and_baseline(self, runner):
        figure = figure2_ranked_f1(runner)
        labels = {entry["label"] for entry in figure["ranked_by_f1_true"]}
        assert any(label.startswith("agg-cons-up") for label in labels)
        assert 0.0 < figure["random_guess_f1_true"] < 1.0
        assert figure["random_guess_f1_false"] < figure["random_guess_f1_true"]

    def test_figure2_rankings_sorted(self, runner):
        figure = figure2_ranked_f1(runner)
        values = [entry["f1_false"] for entry in figure["ranked_by_f1_false"]]
        assert values == sorted(values, reverse=True)

    def test_figure3_frontier_structure_and_rag_quality(self, runner):
        figure = figure3_pareto(runner)
        points = figure["points"]
        frontier = figure["frontier_f1_false"]
        assert points and frontier
        # Frontier is sorted by time with strictly improving quality.
        times = [point.time_seconds for point in frontier]
        qualities = [point.f1_false for point in frontier]
        assert times == sorted(times)
        assert qualities == sorted(qualities)
        # The cheap end of the frontier is an internal-knowledge method, the
        # expensive end is retrieval-augmented, and RAG's best F1(T)
        # configuration is competitive with the best configuration overall
        # (F1(F) is too noisy at the 44-fact test scale for a per-cell check).
        assert frontier[0].method in ("dka", "giv-z")
        assert max(points, key=lambda point: point.time_seconds).method == "rag"
        best_overall_true = max(point.f1_true for point in points)
        best_rag_true = max(point.f1_true for point in points if point.method == "rag")
        assert best_rag_true >= best_overall_true - 0.1

    def test_figure3_stars_exactly_the_frontier_points(self, runner):
        # One configuration is three points (one per dataset); a namesake
        # of a frontier point in another dataset is not on the frontier.
        figure = figure3_pareto(runner)
        frontier = figure["frontier_f1_false"]
        figure3 = EXPERIMENTS["figure3"]
        rows = figure3.format(figure, figure3.title).splitlines()[2:]
        starred = [row.split()[0] for row in rows if row.rstrip().endswith("*")]
        assert sorted(starred) == sorted(
            f"{point.dataset}/{point.model}/{point.method}" for point in frontier
        )

    def test_figure4_all_model_cell_is_largest_for_rag(self, runner):
        cells_by_method = figure4_upset(runner)
        rag_cells = cells_by_method["rag"]
        assert rag_cells
        top = rag_cells[0]
        assert len(top.models) >= 3

    def test_figure4_counts_bounded_by_dataset_sizes(self, runner):
        total_facts = sum(len(runner.dataset(name)) for name in runner.config.datasets)
        for cells in figure4_upset(runner).values():
            assert sum(cell.count for cell in cells) <= total_facts
