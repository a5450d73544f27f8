"""Tests for the FactBench / YAGO / DBpedia dataset builders and FactDataset."""

from dataclasses import astuple, replace

import pytest

from repro.datasets import (
    FactDataset,
    build_dbpedia,
    build_factbench,
    build_yago,
    compute_statistics,
    predicate_alias_pool,
    statistics_table,
    summarize_similarities,
)


class TestFactBench:
    def test_size_scales(self, factbench_small):
        # scale=0.02 of 2,800 => 56 facts
        assert len(factbench_small) == 56

    def test_gold_accuracy_near_054(self, factbench_small):
        assert abs(factbench_small.gold_accuracy() - 0.54) < 0.05

    def test_predicate_count_at_most_ten(self, factbench_small):
        assert 1 < factbench_small.num_predicates() <= 10

    def test_encoded_with_dbpedia_iris(self, factbench_small):
        fact = factbench_small[0]
        assert fact.triple.subject.startswith("http://dbpedia.org/resource/")
        assert fact.triple.predicate.startswith("http://dbpedia.org/ontology/")

    def test_negatives_have_strategy(self, factbench_small):
        negatives = [fact for fact in factbench_small if not fact.label]
        assert negatives
        assert all(fact.negative_strategy for fact in negatives)

    def test_positives_have_no_strategy(self, factbench_small):
        assert all(fact.negative_strategy is None for fact in factbench_small if fact.label)

    def test_deterministic(self, world):
        first = build_factbench(world, scale=0.01)
        second = build_factbench(world, scale=0.01)
        assert [f.fact_id for f in first] == [f.fact_id for f in second]
        assert [f.label for f in first] == [f.label for f in second]

    def test_fact_ids_unique(self, factbench_small):
        ids = [fact.fact_id for fact in factbench_small]
        assert len(set(ids)) == len(ids)


class TestYago:
    def test_gold_accuracy_extremely_high(self, yago_small):
        assert yago_small.gold_accuracy() >= 0.95

    def test_yago_predicate_naming(self, yago_small):
        names = {fact.predicate_name for fact in yago_small}
        assert names & {"wasBornIn", "isCitizenOf", "isMarriedTo", "playsFor", "hasWonPrize"}

    def test_yago_encoding_uses_brackets(self, yago_small):
        fact = yago_small[0]
        assert fact.triple.subject.startswith("<") and fact.triple.subject.endswith(">")

    def test_canonical_predicate_maps_back_to_schema(self, yago_small):
        from repro.worldmodel import RELATIONS

        for fact in yago_small:
            assert fact.base_predicate() in RELATIONS


class TestDBpedia:
    def test_gold_accuracy_near_085(self, dbpedia_small):
        assert abs(dbpedia_small.gold_accuracy() - 0.85) < 0.07

    def test_schema_diversity(self, dbpedia_small):
        # Many more distinct predicate labels than base relations are in play.
        assert dbpedia_small.num_predicates() > 26 / 2

    def test_alias_pool_is_deterministic_and_unique(self):
        pool = predicate_alias_pool("birthPlace", 40)
        assert pool == predicate_alias_pool("birthPlace", 40)
        assert len(pool) == len(set(pool))
        assert "birthPlace" in pool

    def test_topics_assigned(self, dbpedia_small):
        topics = {fact.topic for fact in dbpedia_small}
        assert len(topics) >= 2


class TestFactDataset:
    def test_duplicate_ids_rejected(self, factbench_small):
        fact = factbench_small[0]
        with pytest.raises(ValueError):
            FactDataset("broken", [fact, fact])

    def test_get_by_id(self, factbench_small):
        fact = factbench_small[3]
        assert factbench_small.get(fact.fact_id) == fact
        assert factbench_small.get("missing") is None

    def test_sample_preserves_balance(self, factbench_small):
        sampled = factbench_small.sample(20, seed=1)
        assert len(sampled) == 20
        assert abs(sampled.gold_accuracy() - factbench_small.gold_accuracy()) < 0.15

    def test_sample_larger_than_dataset_returns_all(self, factbench_small):
        assert len(factbench_small.sample(10_000)) == len(factbench_small)

    def test_split_partitions(self, factbench_small):
        train, test = factbench_small.split(0.7, seed=2)
        assert len(train) + len(test) == len(factbench_small)
        assert not (set(f.fact_id for f in train) & set(f.fact_id for f in test))

    def test_split_invalid_fraction(self, factbench_small):
        with pytest.raises(ValueError):
            factbench_small.split(1.5)

    def test_summary_keys(self, factbench_small):
        summary = factbench_small.summary()
        assert set(summary) == {
            "num_facts",
            "num_predicates",
            "avg_facts_per_entity",
            "gold_accuracy",
        }

    def test_label_counts_partition_the_dataset(self, factbench_small):
        counts = factbench_small.label_counts()
        assert set(counts) == {True, False}
        assert counts[True] + counts[False] == len(factbench_small)
        assert counts[True] / len(factbench_small) == factbench_small.gold_accuracy()

    def test_avg_facts_per_entity_divides_by_distinct_subjects(self, factbench_small):
        facts = factbench_small.facts()
        first, second = facts[0], next(f for f in facts if f.subject_name != facts[0].subject_name)
        dataset = FactDataset("tiny", [first, second, replace(first, fact_id="again")])
        assert dataset.avg_facts_per_entity() == pytest.approx(3 / 2)

    def test_empty_dataset_reports_zeroes(self):
        empty = FactDataset("empty", [])
        assert empty.label_counts() == {True: 0, False: 0}
        assert empty.gold_accuracy() == 0.0
        assert empty.summary() == {
            "num_facts": 0,
            "num_predicates": 0,
            "avg_facts_per_entity": 0.0,
            "gold_accuracy": 0.0,
        }


class TestStatistics:
    def test_compute_statistics_matches_summary(self, factbench_small):
        stats = compute_statistics(factbench_small)
        assert stats.num_facts == len(factbench_small)
        assert stats.gold_accuracy == round(factbench_small.gold_accuracy(), 2)

    def test_statistics_table_rows(self, factbench_small, yago_small):
        rows = statistics_table([factbench_small, yago_small])
        assert [row["dataset"] for row in rows] == ["factbench", "yago"]
        assert rows[1]["gold_accuracy"] > rows[0]["gold_accuracy"]

    def test_similarity_tiers_split_at_the_paper_thresholds(self):
        # 0.70 is high and 0.40 is medium: each tier's lower bound is inclusive.
        distribution = summarize_similarities([0.1, 0.3, 0.4, 0.6, 0.7, 0.9])
        assert distribution.high_share == pytest.approx(2 / 6)
        assert distribution.medium_share == pytest.approx(2 / 6)
        assert distribution.low_share == pytest.approx(2 / 6)
        assert distribution.median == pytest.approx(0.5)
        assert distribution.iqr == pytest.approx(distribution.q3 - distribution.q1)
        assert distribution.mean == pytest.approx(0.5)

    def test_similarity_summary_of_no_scores_is_all_zero(self):
        assert set(astuple(summarize_similarities([]))) == {0.0}
