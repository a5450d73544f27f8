"""Tests for metrics, efficiency, Pareto, and UpSet analyses."""

import pytest

from repro.evaluation import (
    TradeoffPoint,
    average_response_time,
    build_tradeoff_points,
    classwise_f1,
    confusion_counts,
    exclusive_intersections,
    iqr_filter,
    pareto_frontier,
    precision_recall_f1,
    random_guess_f1,
    upset_intersections,
)


class TestConfusionAndF1:
    def test_confusion_counts(self):
        gold = {"a": True, "b": True, "c": False, "d": False, "e": True}
        predictions = {"a": True, "b": False, "c": False, "d": True, "e": None}
        counts = confusion_counts(predictions, gold)
        assert (counts.true_positive, counts.false_negative) == (1, 1)
        assert (counts.true_negative, counts.false_positive) == (1, 1)
        assert counts.unanswered == 1
        assert counts.total == 5

    def test_precision_recall_f1_zero_safe(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect_predictions(self):
        gold = {"a": True, "b": False}
        scores = classwise_f1({"a": True, "b": False}, gold)
        assert scores.f1_true == 1.0 and scores.f1_false == 1.0

    def test_always_true_predictor_on_imbalanced_data(self):
        gold = {f"f{i}": True for i in range(99)}
        gold["neg"] = False
        predictions = {fact_id: True for fact_id in gold}
        scores = classwise_f1(predictions, gold)
        assert scores.f1_true > 0.99
        assert scores.f1_false == 0.0

    def test_classwise_f1_hand_computed(self):
        gold = {"a": True, "b": True, "c": False, "d": False}
        predictions = {"a": True, "b": False, "c": True, "d": False}
        scores = classwise_f1(predictions, gold)
        assert scores.f1_true == pytest.approx(0.5)
        assert scores.f1_false == pytest.approx(0.5)

    def test_unanswered_items_count_against_neither_class(self):
        gold = {"a": True, "b": False, "c": True, "d": False}
        predictions = {"a": True, "b": False, "c": None}  # "d" was never judged
        scores = classwise_f1(predictions, gold)
        assert scores.f1_true == 1.0 and scores.f1_false == 1.0
        assert confusion_counts(predictions, gold).unanswered == 2

    def test_as_dict_carries_every_score_under_its_field_name(self):
        gold = {"a": True, "b": True, "c": False}
        scores = classwise_f1({"a": True, "b": False, "c": False}, gold)
        row = scores.as_dict()
        assert row == {name: getattr(scores, name) for name in row}
        assert set(row) == {
            "f1_true", "f1_false",
            "precision_true", "recall_true",
            "precision_false", "recall_false",
        }
        assert (row["precision_true"], row["recall_true"]) == (1.0, 0.5)
        assert (row["precision_false"], row["recall_false"]) == (0.5, 1.0)

    def test_random_guess_f1_balanced(self):
        f1_t, f1_f = random_guess_f1(0.5)
        assert f1_t == pytest.approx(0.5)
        assert f1_f == pytest.approx(0.5)

    def test_random_guess_f1_imbalanced_matches_paper_shape(self):
        # Aggregate positive rate of the three datasets is roughly 0.77;
        # the paper's random baseline is ~0.62 for F1(T) and ~0.29 for F1(F).
        f1_t, f1_f = random_guess_f1(0.77)
        assert f1_t > f1_f
        assert 0.55 < f1_t < 0.70
        assert 0.25 < f1_f < 0.40


class TestEfficiency:
    def test_iqr_filter_removes_outlier(self):
        values = [0.2, 0.21, 0.19, 0.22, 0.2, 5.0]
        filtered = iqr_filter(values)
        assert 5.0 not in filtered
        assert len(filtered) == 5

    def test_iqr_filter_small_sample_noop(self):
        assert iqr_filter([1.0, 100.0]) == [1.0, 100.0]

    def test_average_response_time(self):
        assert average_response_time([0.2, 0.2, 0.2, 0.2, 10.0]) == pytest.approx(0.2)
        assert average_response_time([]) == 0.0


class TestPareto:
    def _points(self):
        return [
            TradeoffPoint("m1", "dka", "d", 0.2, 0.70, 0.60),
            TradeoffPoint("m1", "rag", "d", 2.0, 0.90, 0.85),
            TradeoffPoint("m2", "giv-f", "d", 0.6, 0.80, 0.70),
            TradeoffPoint("m2", "dka", "d", 0.3, 0.60, 0.40),  # dominated
        ]

    def test_frontier_members(self):
        frontier = pareto_frontier(self._points(), metric="f1_false")
        labels = {point.label() for point in frontier}
        assert labels == {"m1/dka", "m2/giv-f", "m1/rag"}

    def test_dominated_point_excluded(self):
        frontier = pareto_frontier(self._points(), metric="f1_true")
        assert "m2/dka" not in {point.label() for point in frontier}

    def test_frontier_sorted_by_time(self):
        frontier = pareto_frontier(self._points())
        times = [point.time_seconds for point in frontier]
        assert times == sorted(times)

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            pareto_frontier(self._points(), metric="accuracy")

    def test_build_tradeoff_points_joins_tables(self):
        f1_table = {"d": {"dka": {"m1": {"f1_true": 0.7, "f1_false": 0.6}}}}
        time_table = {"d": {"dka": {"m1": 0.2}}}
        points = build_tradeoff_points(f1_table, time_table)
        assert len(points) == 1
        assert points[0].time_seconds == 0.2

    def test_build_tradeoff_points_skips_missing_time(self):
        f1_table = {"d": {"dka": {"m1": {"f1_true": 0.7, "f1_false": 0.6}}}}
        assert build_tradeoff_points(f1_table, {}) == []


class TestUpset:
    def test_exclusive_intersections_partition_union(self):
        sets = {"a": {1, 2, 3}, "b": {2, 3, 4}, "c": {3}}
        cells = exclusive_intersections(sets)
        total = sum(len(items) for items in cells.values())
        assert total == len({1, 2, 3, 4})
        assert cells[frozenset({"a", "b", "c"})] == {3}
        assert cells[frozenset({"a"})] == {1}

    def test_upset_bars_sorted_by_count(self):
        correct = {"m1": ["f1", "f2", "f3"], "m2": ["f2", "f3"], "m3": ["f3"]}
        bars = upset_intersections(correct)
        counts = [bar.count for bar in bars]
        assert counts == sorted(counts, reverse=True)

    def test_cell_label(self):
        correct = {"m1": ["f1"], "m2": ["f1"]}
        bars = upset_intersections(correct)
        assert bars[0].label() == "m1 & m2"
