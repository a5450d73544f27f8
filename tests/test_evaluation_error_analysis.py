"""Tests for the E1–E6 error taxonomy and report formatting."""

import pytest

from repro.evaluation import (
    ERROR_CATEGORIES,
    ErrorAnalyzer,
    TradeoffPoint,
    format_alignment_table,
    format_error_table,
    format_f1_table,
    format_pareto_points,
    format_ranking_series,
    format_table,
    format_time_table,
    format_upset,
    pareto_frontier,
    unique_ratio,
    upset_intersections,
)
from repro.evaluation.error_analysis import ErrorAnalysis, ErrorRecord
from repro.validation import DirectKnowledgeAssessment


class TestCategorizer:
    @pytest.fixture(scope="class")
    def analyzer(self):
        return ErrorAnalyzer()

    def test_missing_context_is_e1(self, analyzer):
        text = "The supplied context did not mention the asserted details about the entity."
        assert analyzer.categorize(text) == "E1"

    def test_relationship_is_e2(self, analyzer):
        text = "The marital status between the two individuals was assessed incorrectly."
        assert analyzer.categorize(text) == "E2"

    def test_role_is_e3(self, analyzer):
        text = "The person was linked to the wrong team and organization."
        assert analyzer.categorize(text) == "E3"

    def test_geographic_is_e4(self, analyzer):
        text = "The stated nationality conflicts with the reference information about the country."
        assert analyzer.categorize(text) == "E4"

    def test_genre_is_e5(self, analyzer):
        text = "The film was miscategorized under an incorrect genre."
        assert analyzer.categorize(text) == "E5"

    def test_identifier_is_e6(self, analyzer):
        text = "The award name and the year reported were inaccurate identifiers."
        assert analyzer.categorize(text) == "E6"

    def test_unmatched_text_still_categorized(self, analyzer):
        category = analyzer.categorize("Completely unrelated words about nothing specific.")
        assert category in ERROR_CATEGORIES


class TestUniqueRatio:
    def test_unique_ratio(self):
        fact_models = {"f1": {"m1"}, "f2": {"m1", "m2"}, "f3": {"m3"}}
        assert unique_ratio(fact_models) == pytest.approx(0.67, abs=0.01)

    def test_unique_ratio_empty(self):
        assert unique_ratio({}) == 0.0


class TestErrorAnalysis:
    def test_counts_and_totals(self):
        analysis = ErrorAnalysis(dataset="d")
        analysis.records = [
            ErrorRecord("f1", "m1", "d", "dka", True, False, "x", "E4"),
            ErrorRecord("f2", "m1", "d", "dka", False, True, "x", "E2"),
            ErrorRecord("f1", "m2", "d", "dka", True, False, "x", "E4"),
        ]
        counts = analysis.counts_by_model()
        assert counts["m1"]["E4"] == 1 and counts["m1"]["E2"] == 1
        assert analysis.totals_by_model() == {"m1": 2, "m2": 1}
        ratios = analysis.unique_ratios()
        assert ratios["E2"] == 1.0
        assert ratios["E4"] == 0.0
        assert 0.0 <= ratios["total"] <= 1.0

    def test_analyze_run_produces_records_for_wrong_predictions(
        self, gemma, verbalizer, factbench_small
    ):
        dataset = factbench_small.sample(20, seed=4)
        run = DirectKnowledgeAssessment(gemma, verbalizer).validate_dataset(dataset)
        analyzer = ErrorAnalyzer()
        records = analyzer.analyze_run(run, dataset, gemma)
        wrong = [result for result in run.results if result.is_correct is False]
        assert len(records) == len(wrong)
        assert all(record.category in ERROR_CATEGORIES for record in records)
        assert all(record.explanation for record in records)

    def test_analyze_runs_gathers_every_model_into_one_block(
        self, registry, verbalizer, factbench_small
    ):
        dataset = factbench_small.sample(16, seed=5)
        models = {name: registry.get(name) for name in ("mistral:7b", "gemma2:9b")}
        runs = {
            name: DirectKnowledgeAssessment(model, verbalizer).validate_dataset(dataset)
            for name, model in models.items()
        }
        analysis = ErrorAnalyzer().analyze_runs(runs, dataset, models)
        assert analysis.dataset == dataset.name
        wrong = {
            name: sum(result.is_correct is False for result in run.results)
            for name, run in runs.items()
        }
        assert sum(wrong.values()) > 0
        assert [record.model for record in analysis.records] == [
            name for name in sorted(runs) for _ in range(wrong[name])
        ]
        assert analysis.totals_by_model() == {
            name: count for name, count in sorted(wrong.items()) if count
        }


class TestReporting:
    def test_format_table_alignment(self):
        rendered = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "2.50" in rendered

    def test_format_f1_table(self):
        table = {"ds": {"dka": {"m1": {"f1_true": 0.8, "f1_false": 0.3}}}}
        rendered = format_f1_table(table, "Table 5")
        assert "m1 F1(T)" in rendered and "0.80" in rendered

    def test_format_time_table(self):
        table = {"ds": {"rag": {"m1": 2.3}}}
        rendered = format_time_table(table, "Table 8")
        assert "2.30" in rendered

    def test_format_error_table(self):
        counts = {"ds": {"m1": {"E1": 1, "E4": 5}}}
        rendered = format_error_table(counts, "Table 9")
        assert "E4" in rendered and "5" in rendered

    def test_format_alignment_table_shows_ties_as_a_percentage(self):
        table = {"ds": {"dka": {"m2": 0.5, "m1": 0.75}}}
        rendered = format_alignment_table(table, {"ds": {"dka": 0.25}}, "")
        header, _, row = rendered.splitlines()
        assert header.split() == ["dataset", "method", "ties", "m1", "m2"]
        assert row.split() == ["ds", "dka", "25%", "0.75", "0.50"]

    def test_format_ranking_series_leads_with_the_baseline(self):
        series = [{"label": "gemma2:9b/dka", "f1_true": 0.8}, {"label": "mistral:7b/rag", "f1_true": 0.65}]
        lines = format_ranking_series(series, "f1_true", 0.62, "Figure 2").splitlines()
        assert lines[:2] == ["Figure 2", "random-guess baseline: 0.62"]
        assert [line.split() for line in lines[2:]] == [
            ["gemma2:9b/dka", "0.80"],
            ["mistral:7b/rag", "0.65"],
        ]

    def test_format_pareto_points_marks_frontier_members_in_time_order(self):
        points = [
            TradeoffPoint("m1", "rag", "d", 2.0, 0.90, 0.85),
            TradeoffPoint("m1", "dka", "d", 0.2, 0.70, 0.60),
            TradeoffPoint("m2", "dka", "d", 0.3, 0.60, 0.40),  # dominated
        ]
        frontier = pareto_frontier(points, metric="f1_false")
        lines = format_pareto_points(points, frontier, "Figure 3").splitlines()
        assert lines[0] == "Figure 3"
        rows = [line.split() for line in lines[2:]]
        assert [row[0] for row in rows] == ["d/m1/dka", "d/m2/dka", "d/m1/rag"]
        assert [row[-1] == "*" for row in rows] == [True, False, True]

    def test_format_upset_prints_one_line_per_cell(self):
        cells = upset_intersections({"m1": ["f1", "f2"], "m2": ["f2"]})
        lines = format_upset(cells, "Figure 4").splitlines()
        assert lines[0] == "Figure 4"
        assert [line.rsplit(None, 1) for line in lines[1:]] == [
            [cell.label(), str(cell.count)] for cell in cells
        ]
        assert format_upset([], "Figure 4") == "Figure 4"
