"""Smoke test of the end-to-end benchmark at ~1 % size (tier-1, a few seconds).

Every workload runs once, traced, in this interpreter; the test checks that
every name in ``BENCHMARK.json`` comes out with the right unit and
applicability, that all output checks pass, that a seed fixes the
schedules, and that the parity check really fails on a wrong verdict.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import os
import random
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from e2ebench import driver, harness, layers, spec, workloads  # noqa: E402
from repro.validation import Verdict  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("e2e"))


@pytest.fixture(scope="module")
def documents(scratch):
    return {
        name: driver.run_workload(
            name, SEED, 0.0, trace=True, quick=True, scratch=scratch, trace_dir=scratch
        )
        for name in spec.WORKLOADS
    }


def test_benchmark_json_matches_the_spec(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == spec.WORKLOADS
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.DRIVER_E2E
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in benchmark_json["end_to_end"])


def test_every_workload_passes_its_checks(documents):
    for name, document in documents.items():
        assert document["correct"], (name, document["checks"])
        assert document["checks"], name
        assert document["attempted"] >= 1 and document["failed"] == 0, name


def test_every_metric_is_emitted_with_its_unit_and_applicability(documents, benchmark_json):
    for name, document in documents.items():
        expected = {m.name: m.unit for m in spec.ALL_E2E if m.applies(name)}
        assert {k: v["unit"] for k, v in document["metrics"].items()} == expected, name
        # The contract lines: every end_to_end name untraced (never 0),
        # every per_layer name traced.
        untraced = driver.contract_line({**document, "traced": False})
        assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {
            m["name"]: m["unit"] for m in benchmark_json["end_to_end"]
        }
        assert all(v["value"] > 0 for v in untraced["metrics"].values()), name
        traced = driver.contract_line(document)
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
            m["name"]: m["unit"] for m in benchmark_json["per_layer"]
        }
        assert all(isinstance(v["value"], float) for v in traced["metrics"].values())


def test_layers_are_measured_where_the_workload_crosses_them(documents):
    hot, cold = documents["hot_reads"]["layers"], documents["cold_reads"]["layers"]
    mixed, store = documents["mixed_rw"]["layers"], documents["store_lifecycle"]["layers"]
    assert hot["service.cache.hit_rate"] >= 0.99
    assert hot["service.router.self_us_per_read"] > 0
    assert hot["service.frontend.wire_us_per_op"] is not None
    assert hot["obs.span_us"] > 0
    assert hot["validation.busy_us_per_fact.rag"] is None  # not crossed: null, not 0
    assert cold["service.cache.hit_rate"] < 0.9
    assert cold["validation.busy_us_per_fact.rag"] > 0
    assert mixed["service.router.self_ms_per_write"] > 0
    assert mixed["store.geosync.enqueue_ms"] > 0
    assert mixed["client.write_p50_ms"] > 0
    assert store["store.segment.load_s"] > 0
    assert store["client.cold_start_s"] > 0
    assert documents["backend_bound"]["layers"]["client.slo_rate_rps"] > 0


def _spans(scratch, workload):
    with open(os.path.join(scratch, f"trace_{workload}.jsonl"), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_spans_are_written_out_when_the_run_ends(documents, scratch):
    writes = _spans(scratch, "mixed_rw")
    assert {"router.submit", "router.apply_mutations", "service.submit",
            "service.apply_mutations"} <= {span["name"] for span in writes}
    reads = _spans(scratch, "cold_reads")
    by_id = {span["id"]: span for span in reads}
    judged = next(span for span in reads if span["name"].startswith("validation."))
    served = by_id[judged["parent"]]
    assert served["name"] == "service.submit" and served["busy"] > 0
    assert by_id[served["parent"]]["name"] == "router.submit"
    assert judged["request"] == served["request"] == by_id[served["parent"]]["request"]


def test_the_same_seed_yields_identical_schedules():
    runner = harness.build_runner()

    def digests(seed):
        out = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(spec.QUICK, seed, "unused", True, runner=runner)
            out[name] = workloads.schedule_digest(workload.schedule_items())
        return out

    first = digests(SEED)
    assert first == digests(SEED)
    other = digests(SEED + 1)
    assert all(first[name] != other[name] for name in first)


def test_a_wrong_verdict_fails_the_parity_check():
    def flip(result):
        wrong = Verdict.FALSE if result.verdict is Verdict.TRUE else Verdict.TRUE
        return dataclasses.replace(result, verdict=wrong)

    workload = workloads.HotReads(spec.QUICK, SEED, "unused", True)
    workload.prepare()

    async def serve(tamper):
        async with workload.running(layers.SpanRecorder(), tamper) as router:
            loop = await harness.closed_loop(router, workload.schedule[:64], 4)
        served = harness.sample_served(loop, random.Random(0), 16)
        return harness.parity_failures(workload.runner, served)

    assert asyncio.run(serve(None)) == []
    assert asyncio.run(serve(flip))


def test_compare_flags_a_worsened_set_and_passes_an_equal_one(documents):
    def as_set(scale):
        runs = {}
        for name, document in documents.items():
            metrics = {
                metric: {**entry, "value": entry["value"] * scale,
                         "rounds": [value * scale for value in entry["rounds"]]}
                for metric, entry in document["metrics"].items()
            }
            runs[name] = [{**document, "metrics": metrics}]
        return {"seed": SEED, "seconds": 0.0, "runs": 1, "correct": True,
                "workloads": runs, "traced": {}}

    same = compare.compare_rows(as_set(1.0), as_set(1.0))
    assert same and {row["verdict"] for row in same} == {"ok"}
    assert all(row["ratio_b_over_a"] in (1.0, None) for row in same)
    worse = {(row["workload"], row["metric"]): row["verdict"]
             for row in compare.compare_rows(as_set(1.0), as_set(1.5))}
    # Half as much again: lower-is-better metrics regress, higher-is-better
    # ones do not, and a zero (failed_share) stays a zero.
    assert worse[("hot_reads", "read_p50_ms")] == "regressed"
    assert worse[("store_lifecycle", "cold_start_s")] == "regressed"
    assert worse[("hot_reads", "read_ops_per_s")] == "ok"
    assert worse[("hot_reads", "failed_share")] == "ok"
    summary = compare.summarise(as_set(1.0))["workloads"]["mixed_rw"]["metrics"]
    assert summary["write_p50_ms"]["unit"] == "ms"
    assert summary["write_p50_ms"]["samples_are"] == "repetitions"


def test_the_command_line_ends_with_the_contract_line():
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "store_lifecycle", "--seed", str(SEED), "--quick"])
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert status == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["metrics"]["setup_s"]["unit"] == "s"
