"""Tests for the command-line interface that regenerates tables and figures."""

import io
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.benchmark import EXPERIMENTS, BenchmarkRunner, ExperimentConfig
from repro.benchmark.cli import build_parser, build_service_parser, main, run_experiment

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "table5"
        assert args.scale == pytest.approx(0.05)

    def test_experiment_choices_cover_all_tables_and_figures(self):
        expected = {
            "table2", "table3", "table4", "table5", "table6", "table7",
            "table8", "table9", "figure2", "figure3", "figure4",
            "corpus-stats", "ablation", "baselines",
        }
        assert expected == set(EXPERIMENTS)

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--experiment", "table99"])


class TestRunExperiment:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_renders_under_its_one_title(self, runner, name):
        # Figures 2 and 4 print one panel per metric / method, each headed
        # by the title plus the panel's name.
        lines = run_experiment(name, runner).splitlines()
        assert lines[0].startswith(EXPERIMENTS[name].title)
        assert len(lines) > 2 and all(lines[1:3])

    def test_table2_renders(self, runner):
        rendered = run_experiment("table2", runner)
        assert "Table 2" in rendered
        assert "factbench" in rendered

    def test_table4_renders_without_running_grid(self, runner):
        rendered = run_experiment("table4", runner)
        assert "Sliding Window" in rendered

    def test_unknown_experiment_raises(self, runner):
        with pytest.raises(KeyError):
            run_experiment("tableX", runner)


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_service_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8765
        assert args.methods == ("dka", "giv-z")

    def test_loadgen_parser_parses_mix(self):
        args = build_service_parser().parse_args(
            ["loadgen", "--requests", "50", "--concurrency", "4",
             "--methods", "dka", "--models", "gemma2:9b", "--no-cache"]
        )
        assert args.command == "loadgen"
        assert (args.requests, args.concurrency) == (50, 4)
        assert args.methods == ("dka",) and args.models == ("gemma2:9b",)
        assert args.no_cache

    def test_service_args_validated_before_substrate_build(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["loadgen", "--models", "gemma2:9B"], stream=io.StringIO())
        with pytest.raises(SystemExit, match="unknown method"):
            main(["loadgen", "--methods", "gda"], stream=io.StringIO())
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["serve", "--datasets", "wikidata"], stream=io.StringIO())
        # Empty CSVs fail fast too, instead of starting an unrestricted
        # server or crashing mid-run.
        with pytest.raises(SystemExit, match="at least one"):
            main(["serve", "--methods", ","], stream=io.StringIO())
        with pytest.raises(SystemExit, match="at least one"):
            main(["loadgen", "--models", ""], stream=io.StringIO())

    def test_loadgen_end_to_end(self):
        stream = io.StringIO()
        code = main(
            ["loadgen", "--requests", "40", "--concurrency", "8",
             "--scale", "0.02", "--max-facts", "10", "--world-scale", "0.12",
             "--methods", "dka", "--models", "gemma2:9b",
             "--time-scale", "0.001"],
            stream=stream,
        )
        out = stream.getvalue()
        assert code == 0
        assert "Closed-loop load run: 40 requests" in out
        assert "throughput" in out and "p99 latency" in out
        assert "Service metrics" in out

    SMALL = ["--scale", "0.02", "--max-facts", "10", "--world-scale", "0.12",
             "--methods", "dka", "--models", "gemma2:9b", "--time-scale", "0"]

    def test_the_default_shape_is_the_1x1_fleet(self):
        """At the default ``--shards 1 --replicas 1`` both front doors run
        the router: ``loadgen`` prints its per-shard table and a ``serve``
        reply carries the epoch vector."""
        stream = io.StringIO()
        assert main(["loadgen", "--requests", "12", *self.SMALL], stream=stream) == 0
        out = stream.getvalue()
        assert "Per-shard metrics" in out and "Per-replica health" not in out

        fact = BenchmarkRunner(
            ExperimentConfig(scale=0.02, max_facts_per_dataset=10, world_scale=0.12, seed=7)
        ).dataset("factbench")[0]
        banner = io.StringIO()
        server = threading.Thread(
            target=main,
            args=(["serve", "--port", "0", "--max-requests", "1", *self.SMALL],),
            kwargs={"stream": banner},
        )
        server.start()
        deadline = time.monotonic() + 60
        try:
            while not (bound := re.search(r"127\.0\.0\.1:(\d+)", banner.getvalue())):
                assert server.is_alive(), "serve exited before it bound a port"
                assert time.monotonic() < deadline, "serve never bound a port"
                time.sleep(0.01)
            with socket.create_connection(("127.0.0.1", int(bound.group(1))), timeout=30) as conn:
                conn.sendall(
                    json.dumps(
                        {"dataset": "factbench", "fact_id": fact.fact_id,
                         "method": "dka", "model": "gemma2:9b"}
                    ).encode() + b"\n"
                )
                with conn.makefile("rb") as lines:
                    reply = json.loads(lines.readline())
        finally:
            server.join(timeout=60)
        assert not server.is_alive()
        assert reply["outcome"] == "completed"
        assert reply["epoch_vector"] == [0]
        assert "1x1 fleet" in banner.getvalue()
        assert "Per-shard metrics" in banner.getvalue()

    @pytest.mark.parametrize("shape", [[], ["--shards", "2"]], ids=["1x1", "2x1"])
    @pytest.mark.parametrize("timeout", ["-1", "nan", "inf"])
    def test_a_bad_request_timeout_is_a_one_line_error_at_every_shape(self, shape, timeout):
        with pytest.raises(SystemExit, match="--request-timeout must be a finite"):
            main(["loadgen", "--request-timeout", timeout, *shape], stream=io.StringIO())

    @pytest.mark.parametrize(
        "damage, message",
        [
            # A shard whose header no longer passes its CRC ...
            (lambda data: data[:20] + b"\xff" * 8 + data[28:], "header failed its CRC"),
            # ... and a shard that is a JSONL log, not a segment.
            (lambda data: b'{"kind": "header", "version": 1, "floor_epoch": 0}\n',
             "import it with `convert`"),
        ],
        ids=["corrupted-shard", "jsonl-shard"],
    )
    def test_sharded_ingest_reports_an_unreadable_shard_like_single_store_ingest(
        self, tmp_path, damage, message
    ):
        ops = tmp_path / "ops.jsonl"
        ops.write_text(
            '{"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}\n'
            '{"op": "add_triple", "subject": "c", "predicate": "p", "object": "d"}\n'
        )
        argv = ["ingest", "--store", str(tmp_path / "s"), "--mutations", str(ops), "--shards", "2"]
        assert main(argv, stream=io.StringIO()) == 0
        shard = tmp_path / "s.shard1"
        shard.write_bytes(damage(shard.read_bytes()))
        # A typed exit naming the shard, not a CorruptSegmentError traceback.
        with pytest.raises(SystemExit, match=r"cannot read store log: .*s\.shard1.*" + message):
            main(argv, stream=io.StringIO())
        with pytest.raises(SystemExit, match=r"cannot read store log: .*s\.shard1.*" + message):
            main(["ingest", "--store", str(shard), "--mutations", str(ops)], stream=io.StringIO())

    OPS = (
        '{"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}\n'
        '{"op": "add_triple", "subject": "c", "predicate": "p", "object": "d"}\n'
        '{"op": "add_triple", "subject": "e", "predicate": "p", "object": "f"}\n'
    )

    @pytest.mark.parametrize(
        "saved, asked, found",
        [
            (2, 1, "s.shard1"),
            (1, 2, "s"),
            (3, 2, "s.shard2"),
            (2, 3, "s.shard1"),
        ],
        ids=["1-beside-2", "2-beside-1", "2-beside-3", "3-beside-2"],
    )
    def test_ingest_refuses_a_shard_count_other_than_the_saved_one(
        self, tmp_path, saved, asked, found
    ):
        """``ingest`` never starts a second store beside a saved one: a
        ``--shards`` that disagrees with the files under ``--store`` is one
        typed exit naming the last file found and the count it implies,
        with nothing written."""
        ops = tmp_path / "ops.jsonl"
        ops.write_text(self.OPS)
        argv = ["ingest", "--store", str(tmp_path / "s"), "--mutations", str(ops)]
        assert main(argv + ["--shards", str(saved)], stream=io.StringIO()) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(
            SystemExit,
            match=rf"cannot read store log: .*: holds {saved} saved shard\(s\) "
            rf"\(.*{re.escape(found)}\), not the {asked} requested",
        ):
            main(argv + ["--shards", str(asked)], stream=io.StringIO())
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ingest_prints_per_file_the_state_digest_convert_prints(self, tmp_path, shards):
        ops = tmp_path / "ops.jsonl"
        ops.write_text(self.OPS)
        out = io.StringIO()
        store = str(tmp_path / "s")
        argv = ["ingest", "--store", store, "--mutations", str(ops), "--shards", str(shards)]
        assert main(argv, stream=out) == 0
        saved = re.findall(r"^saved (\S+): .*, state digest ([0-9a-f]{16})$", out.getvalue(), re.M)
        expected = [store] if shards == 1 else [f"{store}.shard{i}" for i in range(shards)]
        assert [path for path, _ in saved] == expected
        for path, digest in saved:
            converted = io.StringIO()
            argv = ["convert", "--store", path, "--output", path + ".jsonl"]
            assert main(argv, stream=converted) == 0
            assert f"\nstate digest {digest} " in converted.getvalue()

    def test_running_the_cli_as_a_module_prints_no_runpy_warning(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SOURCE_ROOT), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.benchmark.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr


    def test_chaos_refuses_a_bad_service_value_before_any_substrate_is_built(
        self, tmp_path, monkeypatch
    ):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "models: ['gemma2:9b']\n"
            "service: {max_batch_size: 0}\n"
            "matrix:\n"
            "  topology: [{shards: 1, replicas: 2}]\n"
            "  traffic: [{shape: steady}]\n"
            "  faults:\n"
            "    - name: kill\n"
            "      schedule: [{at_s: 0.0, target: 'shard:0/replica:1', fault: kill}]\n"
        )

        def no_runner(*args, **kwargs):
            raise AssertionError("a BenchmarkRunner was built for an invalid scenario")

        monkeypatch.setattr("repro.benchmark.cli.BenchmarkRunner", no_runner)
        stream = io.StringIO()
        with pytest.raises(SystemExit, match="invalid scenario: .*max_batch_size"):
            main(["chaos", str(scenario)], stream=stream)
        assert "running scenario" not in stream.getvalue()


class TestMain:
    def test_main_writes_output_file(self, tmp_path):
        output = tmp_path / "table2.txt"
        stream = io.StringIO()
        code = main(
            [
                "--experiment", "table2",
                "--scale", "0.01",
                "--max-facts", "12",
                "--world-scale", "0.12",
                "--documents-per-fact", "6",
                "--output", str(output),
            ],
            stream=stream,
        )
        assert code == 0
        assert "Table 2" in stream.getvalue()
        assert output.read_text(encoding="utf-8").strip()
