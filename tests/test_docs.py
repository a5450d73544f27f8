"""Docs lint: the documentation tree exists and its CLI examples parse.

Documentation that drifts from the code is worse than none, so this suite
pins the load-bearing parts:

* the README and every ``docs/`` page exist with their promised sections;
* every ``python -m repro.benchmark.cli …`` invocation quoted in README
  or docs parses against the *real* argument parsers (experiment mode and
  service mode both), so a renamed flag or subcommand fails CI here;
* the operations reference documents every service subcommand and every
  serving-topology flag, its "Serving options" table names exactly the
  options the code has, and the glossary covers every
  :class:`MetricsSnapshot` field the CLI prints;
* the architecture page lists exactly the tuple-backed records.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from repro.benchmark.cli import (
    SERVICE_COMMANDS,
    build_parser,
    build_service_parser,
)
from repro.service.metrics import MetricsSnapshot
from support import TUPLE_RECORDS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "architecture.md",
    REPO_ROOT / "docs" / "operations.md",
    REPO_ROOT / "docs" / "benchmarks.md",
]

_CLI_LINE = re.compile(r"python -m repro\.benchmark\.cli(?P<args>[^`\n]*)")


def _cli_invocations(text: str):
    """Every ``python -m repro.benchmark.cli …`` argv quoted in ``text``.

    Joins trailing-backslash continuations first so multi-line examples
    lint as one invocation; skips bare mentions with no arguments.
    """
    joined = text.replace("\\\n", " ")
    for match in _CLI_LINE.finditer(joined):
        args = match.group("args").strip()
        yield shlex.split(args)


def _parse(argv):
    """Parse one documented argv with the real parser; returns an error
    message on failure, None on success."""
    parser = (
        build_service_parser()
        if argv and argv[0] in SERVICE_COMMANDS
        else build_parser()
    )
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):  # --help exits 0 and is fine
            return stderr.getvalue().strip() or f"exit code {exc.code}"
    return None


class TestDocsTreeExists:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_page_exists_and_has_headings(self, path):
        assert path.is_file(), f"{path.relative_to(REPO_ROOT)} is missing"
        text = path.read_text(encoding="utf-8")
        assert text.lstrip().startswith("#"), f"{path.name} has no title heading"
        assert len(text) > 500, f"{path.name} is a stub"

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in ("architecture.md", "operations.md", "benchmarks.md"):
            assert f"docs/{page}" in readme, f"README does not point at docs/{page}"
        assert "```" in readme, "README lost its quickstart code block"

    def test_readme_has_architecture_diagram(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for layer in ("ShardedValidationService", "ValidationService",
                      "VersionedKnowledgeStore", "replica group"):
            assert layer in readme, f"architecture diagram lost the {layer} box"


class TestCliExamplesParse:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_every_documented_invocation_parses(self, path):
        text = path.read_text(encoding="utf-8")
        invocations = list(_cli_invocations(text))
        failures = [
            (argv, error)
            for argv, error in ((argv, _parse(argv)) for argv in invocations)
            if error is not None
        ]
        assert not failures, "\n".join(
            f"{path.name}: `python -m repro.benchmark.cli {' '.join(argv)}` "
            f"does not parse: {error}"
            for argv, error in failures
        )

    def test_readme_and_operations_actually_contain_examples(self):
        # The lint above is vacuous if the docs stop quoting commands.
        for path in (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "operations.md"):
            count = len(list(_cli_invocations(path.read_text(encoding="utf-8"))))
            assert count >= 4, f"{path.name} quotes only {count} CLI invocations"

    def test_help_smoke(self):
        # `--help` must render for both parser faces (the CI docs-lint step
        # also runs this through the real interpreter).
        assert "experiment" in build_parser().format_help()
        help_text = build_service_parser().format_help()
        for command in SERVICE_COMMANDS:
            assert command in help_text


class TestOperationsReferenceComplete:
    def test_every_subcommand_documented(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for command in SERVICE_COMMANDS:
            assert f"`{command}`" in text, f"operations.md misses `{command}`"

    def test_serving_topology_flags_documented(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for flag in ("--shards", "--replicas", "--request-timeout",
                     "--queue-depth", "--max-batch-size", "--time-scale"):
            assert flag in text, f"operations.md misses {flag}"

    def test_serving_options_table_matches_the_code_both_ways(self):
        # Options lint: an option added to (or deleted from) ServiceConfig,
        # the scenario ``service:``/``geo:`` blocks or the store's ``save``
        # must show up in the "Serving options" table, and a row there must
        # exist in the code.
        import inspect

        from repro.chaos.scenario import GeoOptions
        from repro.service import ServiceConfig
        from repro.store import VersionedKnowledgeStore

        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        section = text.split("### Serving options", 1)[1].split("\n#", 1)[0]
        save = "VersionedKnowledgeStore.save"
        documented = {"ServiceConfig": set(), "service:": set(), "geo:": set(), save: set()}
        for name, where in re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M):
            homes = re.findall(r"`([^`]+)`", where)
            assert homes and set(homes) <= set(documented), (
                f"row `{name}` names unknown homes {homes}"
            )
            for home in homes:
                documented[home].add(name)
        assert documented == {
            "ServiceConfig": {field.name for field in fields(ServiceConfig)},
            "service:": {field.name for field in fields(ServiceConfig)}
            | {"request_timeout_s", "probe_interval_s"},
            "geo:": {field.name for field in fields(GeoOptions)},
            save: set(inspect.signature(VersionedKnowledgeStore.save).parameters)
            - {"self", "path"},
        }

    def test_metrics_glossary_covers_snapshot_fields(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        # Spot-check the glossary against the dataclass so new fields must
        # be documented; presentation names differ, so map the exceptions.
        aliases = {
            "rejected": "rejected (shed)",
            "cache_hits": "cache hit rate",
            "cache_misses": "cache hit rate",
            "mean_batch_size": "mean batch size",
            "queue_depth": "queue depth",
            "wall_seconds": "wall time",
            "throughput_rps": "throughput",
            "p50_latency_s": "p50",
            "p95_latency_s": "p95",
            "p99_latency_s": "p99",
            "ingested_ops": "ingests",
            "unhealthy_replicas": "unhealthy replicas",
            "batches": "mean batch size",
            "budget_exhausted": "budget exhausted",
        }
        for field in fields(MetricsSnapshot):
            needle = aliases.get(field.name, field.name)
            assert needle in text, (
                f"operations.md glossary misses MetricsSnapshot.{field.name}"
            )

    def test_chaos_runbook_documents_the_fault_grammar(self):
        # The runbook is the schema reference the scenario loader's error
        # messages point at, so it must cover every fault kind, every
        # fault-point family, and every invariant key.
        from repro.chaos import FAULT_KINDS
        from repro.chaos.scenario import Invariants

        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        assert "## Chaos runbook" in text
        for kind in FAULT_KINDS:
            assert f"`{kind}" in text, f"runbook misses fault kind {kind!r}"
        for point in ("store", "frontend", "shard:i", "shard:i/replica:j"):
            assert point in text, f"runbook misses fault point {point!r}"
        for invariant in fields(Invariants):
            assert f"`{invariant.name}`" in text, (
                f"runbook misses invariant {invariant.name!r}"
            )
        assert "DEGRADED" in text and "verdict_digest" in text

    def test_chaos_runbook_quotes_the_pinned_smoke_scenario(self):
        # The CI matrix is pinned: the runbook example and the checked-in
        # smoke.yaml must not drift apart silently.
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        smoke = REPO_ROOT / "benchmarks" / "scenarios" / "smoke.yaml"
        assert smoke.is_file(), "benchmarks/scenarios/smoke.yaml is missing"
        assert "benchmarks/scenarios/smoke.yaml" in text
        for line in ("name: smoke", "max_attempts: 3", "staleness_bound_epochs: 4"):
            assert line in smoke.read_text(encoding="utf-8"), (
                f"smoke.yaml lost pinned line {line!r}"
            )

    def test_benchmarks_page_names_every_floor_module(self):
        text = (REPO_ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
        for name in ("bench_hotpaths.py", "bench_store.py", "bench_segment.py",
                     "bench_chaos.py"):
            assert (REPO_ROOT / "benchmarks" / name).is_file(), f"{name} is missing"
            assert name in text, f"docs/benchmarks.md misses {name}"

    def test_every_bench_file_the_docs_name_exists(self):
        # A floor file that was retired must leave the docs with it.
        pages = DOC_FILES + [REPO_ROOT / "benchmarks" / "README.md"]
        for path in pages:
            for name in set(re.findall(r"bench_\w+\.py", path.read_text(encoding="utf-8"))):
                assert (REPO_ROOT / "benchmarks" / name).is_file(), (
                    f"{path.name} names benchmarks/{name}, which does not exist"
                )

    def test_what_checks_what_names_real_tests_and_real_cells(self):
        # The property -> check map is only worth having while every test
        # id resolves and every cell is one BENCHMARK.json declares.
        import json

        text = (REPO_ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
        section = text.split("## What checks what", 1)[1].split("\n## ", 1)[0]
        ids = re.findall(r"`(test_\w+\.py(?:::\w+)+)`", section)
        assert len(ids) >= 20, "the map lost its test ids"
        for test_id in ids:
            filename, *names = test_id.split("::")
            source = (REPO_ROOT / "tests" / filename).read_text(encoding="utf-8")
            for name in names:
                assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), (
                    f"docs/benchmarks.md names {test_id}, but {filename} has no {name}"
                )
        contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in contract[key]
        }
        cells = {
            token
            for token in re.findall(r"`([a-z0-9_.]+)`", section)
            if "." in token and not token.endswith(".py")
        }
        assert len(cells) >= 10, "the map lost its cells"
        assert cells <= declared, f"not in BENCHMARK.json: {sorted(cells - declared)}"


class TestGeoTierDocsComplete:
    """The geo-tier docs are the reference for the queue layout, the
    watermark protocol, bootstrap, and the edge-lag response — linted
    against the code so the protocol and its operator story stay
    documented."""

    def test_architecture_documents_the_geo_tier(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "## Geo replication" in text
        for needle in (
            "OutboundQueue", "EdgeReplica", "GeoReplicator", "watermark",
            "floor_epoch", "bootstrap", "staleness_bound_epochs",
            "DRAIN_BATCH_LIMIT", "verify_converged", "read-your-writes",
            "exactly-once",
        ):
            assert needle in text, f"architecture.md geo section misses {needle!r}"

    def test_operations_has_the_edge_lag_runbook(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        assert "## Edge lag runbook" in text
        for needle in (
            "`router_geo_watermark_lag_epochs`", "`router_geo_queue_depth`",
            "`replication-staleness`", "staleness_epochs", "kill_edge",
            "queue_dir", "client.write_p95_ms",
            "test_lagging_edge_never_blocks_a_write_nor_serves_past_the_bound",
        ):
            assert needle in text, f"edge-lag runbook misses {needle!r}"

    def test_chaos_runbook_documents_geo_scenarios(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for needle in (
            "edge:i", "geo_converged", "edge_staleness_bound_epochs",
            "--drain-seed", "--deterministic-csv",
            "benchmarks/scenarios/geo.yaml",
        ):
            assert needle in text, f"chaos runbook misses geo needle {needle!r}"
        geo = REPO_ROOT / "benchmarks" / "scenarios" / "geo.yaml"
        assert geo.is_file(), "benchmarks/scenarios/geo.yaml is missing"
        for line in ("name: geo", "edges: 2", "geo_converged: true"):
            assert line in geo.read_text(encoding="utf-8"), (
                f"geo.yaml lost pinned line {line!r}"
            )


class TestStorageEngineDocsComplete:
    """The storage-engine section is the reference for the segment file
    format and its recovery rules — linted so the layout, the cache
    semantics, and the migration path stay documented."""

    def test_architecture_documents_the_segment_format(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "## Storage engine" in text
        for needle in (
            "RSEGMT01", "footer", "checkpoint", "page cache", "CRC",
            "zlib", "CorruptSegmentError", "floor_epoch", "seek",
            "FLAG_CONTINUES", "torn", "block",
        ):
            assert needle in text, f"architecture.md storage section misses {needle!r}"

    def test_docs_state_what_a_bomb_block_and_an_untiled_footer_do(self):
        from repro.store.segment import _FOOTER_MAX_RAW

        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "`raw_len + 1`" in architecture and "tiles the data region" in architecture
        assert f"{_FOOTER_MAX_RAW >> 20} MiB" in architecture
        operations = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for needle in ("A bomb block in a store file", "A footer that does not tile the file"):
            assert needle in operations, f"operations.md cheat-sheet misses {needle!r}"

    def test_the_store_engine_constants_table_matches_the_code(self):
        """Every row names a constant of its module at its value, and every
        constant the engine is tuned by has a row."""
        import importlib

        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        section = text.split("### Store engine constants", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `store/(\w+)\.py` \| `([^`]+)` \|", section, re.M)
        documented = {}
        for name, module, value in rows:
            actual = getattr(importlib.import_module(f"repro.store.{module}"), name)
            assert json.loads(value) == actual, f"row `{name}` says {value}, code has {actual}"
            documented[name] = module
        assert documented == {
            "CHECKPOINT_INTERVAL": "segment",
            "BLOCK_SIZE": "segment",
            "COMPRESSION_LEVEL": "segment",
            "PAGE_CACHE_BLOCKS": "segment",
            "INDEX_REBUILD_FRACTION": "store",
            "GRAPH_REBUILD_FRACTION": "store",
        }

    def test_the_bounded_containers_table_matches_the_code(self):
        """Every row names a constant of its module at its value, and the
        table lists every bound the serving, obs, retrieval and store paths have."""
        import importlib

        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        section = text.split("### Bounded containers", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)/(\w+)\.py` \| `([0-9.]+)` \|", section, re.M)
        assert [name for name, *_ in rows] == [
            "RING_MEMO_CAPACITY", "HOME_MEMO_CAPACITY", "STALE_CACHE_CAPACITY",
            "EVENT_LOG_CAPACITY", "HISTOGRAM_WINDOW", "SERIES_CAPACITY", "MAX_SERIES",
            "MAX_SPANS_PER_TRACE", "EMBEDDING_CACHE_SIZE", "WARM_BATCH_SIZE",
            "READ_TIMEOUT_S", "MAX_CONNECTIONS", "PAGE_CACHE_BLOCKS",
        ]
        for name, package, module, value in rows:
            actual = getattr(importlib.import_module(f"repro.{package}.{module}"), name)
            assert json.loads(value) == actual, f"row `{name}` says {value}, code has {actual}"

    def test_the_configuration_constants_table_matches_the_code(self):
        """Every row names a constant of its module at its value, and the
        table lists every constant the former configuration fields became."""
        import importlib

        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        section = text.split("### Configuration constants", 1)[1].split("\n#", 1)[0]
        rows = re.findall(
            r"^\| `(\w+)` \| `([^`]+)` \| `(\w+)/(\w+)\.py` \| [^|]+ \|$", section, re.M
        )
        documented = {}
        for name, value, package, module in rows:
            actual = getattr(importlib.import_module(f"repro.{package}.{module}"), name)
            assert json.loads(value) == actual, f"row `{name}` says {value}, code has {actual}"
            documented[name] = f"{package}/{module}"
        assert documented == {
            **dict.fromkeys(
                ["UPSTREAM_MODEL", "NUM_QUESTIONS", "SELECTED_QUESTIONS", "CHUNK_STRIDE",
                 "MAX_EVIDENCE_CHUNKS", "SERP_REQUEST_SECONDS", "DOCUMENT_FETCH_SECONDS"],
                "validation/rag",
            ),
            "COMMERCIAL_MODEL": "benchmark/config",
            **dict.fromkeys(
                ["NUM_PERSONS", "NUM_CITIES", "NUM_COUNTRIES", "NUM_ORGANIZATIONS",
                 "NUM_UNIVERSITIES", "NUM_FILMS", "NUM_BOOKS", "NUM_BANDS", "NUM_AWARDS",
                 "NUM_TEAMS"],
                "worldmodel/generator",
            ),
            **dict.fromkeys(
                ["EMPTY_RATE", "KG_ORIGIN_RATE", "NOISE_RATE", "NEWS_RATE"], "retrieval/webgen"
            ),
        }

    def test_docs_state_what_a_hostile_header_does(self):
        operations = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for needle in (
            "A hostile segment header", "A hostile JSONL header", "A record field that is not UTF-8"
        ):
            assert needle in operations, f"operations.md cheat-sheet misses {needle!r}"
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "JSON {version, floor_epoch}  " in architecture
        assert "has a `floor_epoch` that is not" in architecture

    def test_operations_documents_the_migration_path(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for needle in (
            "`convert`", "imported once", "export", "segment", "jsonl",
            "state digest", "bench_segment.py",
        ):
            assert needle in text, f"operations.md migration note misses {needle!r}"


class TestRecordDocs:
    def test_the_tuple_backed_records_list_matches_the_census(self):
        """``docs/architecture.md`` names exactly the records
        ``tests/test_records.py``'s census finds, in ``TUPLE_RECORDS`` order."""
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        match = re.search(r"^\*\*Tuple-backed records:\*\* (?P<names>[^.]*)\.", text, re.M)
        assert match, "architecture.md has no **Tuple-backed records:** list"
        documented = re.findall(r"`([A-Za-z]+)`", match.group("names"))
        assert documented == [cls.__name__ for cls in TUPLE_RECORDS]


class TestObservabilityRunbookComplete:
    """The observability runbook is the reference for the span taxonomy,
    the unified registry's metric names, and the event kinds — each is
    linted against the code so a renamed series must be re-documented."""

    @pytest.fixture(scope="class")
    def runbook(self):
        text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        assert "## Observability runbook" in text
        return text

    def test_every_registry_metric_name_documented(self, runbook):
        from repro.service import ROUTER_METRIC_NAMES, SERVICE_METRIC_NAMES

        for name in SERVICE_METRIC_NAMES + ROUTER_METRIC_NAMES:
            assert f"`{name}`" in runbook, f"runbook misses metric `{name}`"
        # Every "`label` = `a` / `b`" cell of the family tables lists exactly
        # the label values a fresh worker / a 1-edge router renders.
        from repro.service import ServiceMetrics, ShardedValidationService, ValidationService
        from repro.store import GeoReplicator, ShardedStore

        store = ShardedStore.partition([], [], num_shards=1)
        geo = GeoReplicator(store)
        router = ShardedValidationService(
            [[ValidationService(None)]],
            store=store,
            geo=geo,
            edge_services={
                "edge-0": [ValidationService(None, store=geo.add_edge("edge-0").stores[0])]
            },
        )
        rendered = ServiceMetrics().exposition() + router.metrics.exposition()
        cells = re.findall(
            r"^\| `(\w+)` \| \w+ \| `(\w+)` = (`\w+`(?: / `\w+`)*) \|$", runbook, re.M
        )
        assert len(cells) >= 2, "the label-value cells moved; fix this lint"
        for family, label, values in cells:
            emitted = re.findall(
                rf'^{family}\w*{{[^}}]*\b{label}="([^"]*)"', rendered, re.M
            )
            assert set(re.findall(r"`(\w+)`", values)) == set(emitted), (
                f"runbook lists `{family}` `{label}` values {values}, "
                f"the code renders {sorted(set(emitted))}"
            )

    def test_every_span_name_documented(self, runbook):
        from repro.obs import SPAN_TAXONOMY

        for name in SPAN_TAXONOMY:
            assert f"`{name}`" in runbook, f"runbook misses span `{name}`"

    def test_every_event_kind_documented(self, runbook):
        from repro.obs import EVENT_KINDS

        for kind in EVENT_KINDS:
            assert f"`{kind}`" in runbook, f"runbook misses event kind `{kind}`"

    def test_runbook_covers_statuses_sampling_and_exemplars(self, runbook):
        for needle in ("SHED", "DEGRADED", "Head sampling", "sample_rate",
                       "exemplar", "trace_id", "tests' strict parser",
                       "VirtualClock", "byte-identical"):
            assert needle in runbook, f"runbook misses {needle!r}"

    def test_slo_section_pins_every_state_rule_and_slo_name(self, runbook):
        # The SLOs-and-alerting section is the reference for the alert
        # lifecycle, the burn-rate windows, and the fleet SLO set — each
        # is linted against the code so a rename must be re-documented.
        from repro.obs import ALERT_STATES, DEFAULT_BURN_RULES, fleet_slos

        assert "### SLOs and alerting" in runbook
        for state in ALERT_STATES:
            assert f"`{state}`" in runbook, f"runbook misses alert state `{state}`"
        for rule in DEFAULT_BURN_RULES:
            assert f"`{rule.severity}`" in runbook, (
                f"runbook misses burn severity `{rule.severity}`"
            )
            factor = f"{rule.factor:g}"
            assert factor in runbook, f"runbook misses burn factor {factor}"
        for slo in fleet_slos(2, 2, edges=1):
            assert f"`{slo.name}`" in runbook, f"runbook misses SLO `{slo.name}`"
        for needle in ("MetricsScraper", "burn rate", "error budget",
                       "expect_alerts", "forbid_alerts", "obs top", "obs slo",
                       '{"cmd": "slo"}', "obs.exposition_ms",
                       "slo-name:severity", "MAX_SERIES"):
            assert needle in runbook, f"runbook misses {needle!r}"
