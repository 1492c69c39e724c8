"""Config parsing, CLI subcommands, exit codes, and output stability."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from specdec.cli import main
from specdec.config import (
    ConfigFileError,
    ConfigParseError,
    ConfigValueError,
    RunConfig,
    parse_config,
)
from specdec.verify import ar_decode


@pytest.fixture(autouse=True)
def clear_seed_env(monkeypatch):
    monkeypatch.delenv("SPECDEC_SEED", raising=False)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    # A string is written as it is, for JSON that a dict cannot express.
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def from_file(tmp_path, payload) -> RunConfig:
    return parse_config(write_config(tmp_path, payload), {})


def by_replace(tmp_path, payload) -> RunConfig:
    return dataclasses.replace(RunConfig(), **payload)


# Every way a config is built converts and checks its values alike.
BUILDS = pytest.mark.parametrize("build", [from_file, by_replace], ids=["file", "replace"])


class TestParseConfig:
    def test_empty_config_gives_defaults(self):
        config = parse_config(None, {})
        assert config.r_values == (0, 3, 5, 9)
        assert config.top_k == 8
        assert config.max_nodes == 50
        assert config.tree_depth == 4
        assert config.vocab_size == 256
        assert config.episodes == 50
        assert config.seed == 0

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"r_values": [5], "episodes": 3})
        config = parse_config(path, {"r_values": (9,)})
        assert config.r_values == (9,)
        assert config.episodes == 3  # untouched file value survives

    def test_env_seed_fallback_and_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECDEC_SEED", "123")
        assert parse_config(None, {}).seed == 123
        path = write_config(tmp_path, {"seed": 7})
        assert parse_config(path, {}).seed == 7
        assert parse_config(path, {"seed": 9}).seed == 9

    def test_top_k_beyond_vocab_rejected(self, tmp_path):
        path = write_config(tmp_path, {"top_k": 300})
        with pytest.raises(ConfigValueError):
            parse_config(path, {})

    def test_missing_file(self):
        with pytest.raises(ConfigFileError):
            parse_config("/nonexistent/config.json", {})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            parse_config(str(path), {})

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"tree_dpeth": 4})
        with pytest.raises(ConfigValueError):
            parse_config(str(path), {})

    def test_tree_depth_five_accepted(self, tmp_path):
        path = write_config(tmp_path, {"tree_depth": 5})
        assert parse_config(path, {}).tree_depth == 5

    def test_partial_frame_length_rejected(self):
        with pytest.raises(ConfigValueError, match="frames"):
            parse_config(None, {"target_length": 10})

    def test_dimension_bounds_from_config(self, tmp_path):
        pairs = [[-1.0, 1.0]] * 7
        path = write_config(tmp_path, {"dimension_bounds": pairs})
        assert parse_config(path, {}).dimension_bounds.as_pairs() == pairs

    def test_latencies_must_come_together(self):
        with pytest.raises(ConfigValueError):
            parse_config(None, {"verify_latency": 0.02})

    def test_readme_config_block_lists_every_key_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1]
        block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        defaults = RunConfig()
        expected = {**defaults.to_json_dict(), "format": defaults.format, "out": defaults.out}
        assert list(block) == list(expected)
        assert block == json.loads(json.dumps(expected))

    @BUILDS
    def test_wrong_types_rejected(self, tmp_path, build):
        nan, inf = float("nan"), float("inf")
        for payload in (
            {"episodes": "many"},
            {"episodes": 2.5},
            {"seed": 1.5},
            {"agreement_p": "high"},
            {"agreement_p": "0.5"},
            # Float keys follow the integer rule: no bools, no strings.
            {"agreement_p": True},
            {"noise_sigma": "6"},
            {"measure_speedup": 1},
            # ``json`` reads NaN and Infinity.
            {"noise_sigma": nan},
            {"noise_sigma": "nan"},
            {"noise_sigma": inf},
            {"verify_latency": nan, "draft_latency": 0.001},
            {"verify_latency": 0.02, "draft_latency": inf},
            {"episodes": inf},
            {"dimension_bounds": [[-inf, inf]] + [[-1.0, 1.0]] * 6},
            # Each bound is exactly ``[low, high]``, two numbers.
            {"dimension_bounds": [[-1]] + [[-1.0, 1.0]] * 6},
            {"dimension_bounds": [[-1, 1, 99]] + [[-1.0, 1.0]] * 6},
            {"dimension_bounds": [["-1", "1"], [True, 2]] + [[-1.0, 1.0]] * 5},
            # List elements follow the integer rule, in a JSON list.
            {"r_values": "039"},
            {"r_values": {"0": 1}},
            {"r_values": [True, 2.7]},
            {"r_values": [True, 2]},
            {"r_values": [0, 3.5]},
            {"per_dimension_r": [0.9] * 7},
            {"per_dimension_r": "0000000"},
            {"per_dimension_r": [9, 9, 9, 9, 9, 9, False]},
            {"r_values": [3, 3]},
            # Per-dimension thresholds override every nonzero r alike.
            {
                "per_dimension_r": [9, 9, 9, 9, 9, 9, 0],
                "r_values": [0, 3, 9],
                "episodes": 4,
                "target_length": 28,
            },
        ):
            with pytest.raises(ConfigValueError, match="|".join(payload)):  # names a key
                build(tmp_path, payload)

    def test_repeated_flag_threshold_rejected(self):
        with pytest.raises(ConfigValueError, match="repeat"):
            parse_config(None, {"r_values": (3, 3)})  # as ``--r 3 --r 3`` passes it

    @BUILDS
    def test_integral_values_stored_as_declared_types(self, tmp_path, build):
        config = build(
            tmp_path, {"target_length": 14.0, "report_positions": 6.0, "r_values": [0, 9]}
        )
        assert type(config.target_length) is int and config.target_length == 14
        assert type(config.report_positions) is int and config.report_positions == 6
        assert config.r_values == (0, 9) and type(config.r_values) is tuple
        hash(config)  # a frozen config holds no list

    @pytest.mark.parametrize(
        "key, payload",
        [
            ("vocab_size", {"vocab_size": 1}),
            ("vocab_size", {"vocab_size": 65536}),
            ("top_k", {"top_k": 0}),
            ("tree_depth", {"tree_depth": 0}),
            ("max_nodes", {"max_nodes": 0}),
            ("agreement_p", {"agreement_p": 1.5}),
            ("noise_sigma", {"noise_sigma": 0}),
            ("r_values", {"r_values": [-1]}),
            ("per_dimension_r", {"per_dimension_r": [9] * 6}),
            ("per_dimension_r", {"per_dimension_r": [9, 9, 9, 9, 9, 9, -1]}),
            ("verify_latency", {"verify_latency": 0, "draft_latency": 0.001}),
            ("draft_latency", {"verify_latency": 0.02, "draft_latency": -0.001}),
            ("measure_speedup", {"measure_speedup": True}),
            pytest.param("episodes", '{"episodes": 1, "episodes": 2}', id="episodes-repeated"),
        ],
    )
    def test_out_of_range_values_rejected_naming_the_key(self, tmp_path, key, payload):
        """Ranges the models, tree, cost model and policies own, however a config is built."""
        # A repeated key exists only in a file; every other payload is also built directly.
        for build in (from_file, by_replace) if isinstance(payload, dict) else (from_file,):
            with pytest.raises(ConfigValueError, match=key):
                build(tmp_path, payload)


class TestRunAblation:
    def test_two_thresholds_give_two_monotone_rows(self, capsys):
        argv = ["ablate", "--r", "0", "--r", "9", "--episodes", "12", "--length", "28"]
        assert main(argv + ["--top-k", "1", "--format", "json"]) == 0
        row0, row9 = json.loads(capsys.readouterr().out)["sweep"]
        assert (row0["r"], row9["r"]) == (0, 9)
        assert row9["tokens_per_pass"] >= row0["tokens_per_pass"]
        assert row0["success_rate"] == 1.0

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["ablate", "--r", "0", "--r", "5", "--episodes", "4", "--length", "14"]
        argv += ["--seed", "3", "--format", "json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCliCommands:
    def test_bench_exit_zero(self, capsys):
        assert main(["bench", "--episodes", "2", "--length", "14"]) == 0
        out = capsys.readouterr().out
        assert "tokens/pass" in out

    def test_bench_json_format(self, capsys):
        assert main(["bench", "--episodes", "1", "--length", "14", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert {row["r"] for row in payload["policies"]} == {0, 3, 5, 9}

    def test_bench_csv_format(self, capsys):
        assert main(
            ["bench", "--episodes", "1", "--length", "14", "--format", "csv", "--r", "0"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("mode,r,length_bucket")
        assert len(lines) == 1 + 6  # header + one row per bucket

    def test_decode_prints_trace(self, capsys):
        assert main(["decode", "--length", "14", "--r", "9"]) == 0
        out = capsys.readouterr().out
        assert "step   1:" in out
        assert "action 0:" in out
        assert "tokens/pass" in out

    def test_ablate_outputs_rows(self, tmp_path, capsys, monkeypatch):
        assert main(["ablate", "--episodes", "2", "--length", "14", "--r", "0", "--r", "9"]) == 0
        out = capsys.readouterr().out
        assert "tokens/pass" in out
        # ``ablate`` renders no measured speedup, so it times nothing.
        path = write_config(
            tmp_path,
            {
                "episodes": 1,
                "target_length": 14,
                "r_values": [0, 9],
                "verify_latency": 0.002,
                "draft_latency": 0.0001,
                "measure_speedup": True,
            },
        )

        def no_timing(config):
            raise AssertionError("ablate timed a decode")

        monkeypatch.setattr("specdec.cli.measure_speedup", no_timing)
        assert main(["ablate", "--config", path]) == 0
        assert "tokens/pass" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["bench", "ablate"])
    def test_failed_identity_exits_one(self, command, capsys, monkeypatch):
        def fail(report):
            raise ValueError("proportions do not sum to 1")

        monkeypatch.setattr("specdec.cli.validate_report", fail)
        assert main([command, "--episodes", "1", "--length", "14", "--r", "0", "--r", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "report identity check failed: proportions do not sum to 1\n"

    def test_output_file_byte_stable(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code = main(
                [
                    "bench",
                    "--episodes",
                    "2",
                    "--length",
                    "14",
                    "--seed",
                    "11",
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_exit_codes_distinct_per_error(self, tmp_path, capsys):
        assert main(["bench", "--config", "/missing.json"]) == 3
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        assert main(["bench", "--config", str(broken)]) == 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"top_k": 300}))
        assert main(["bench", "--config", str(bad)]) == 5
        capsys.readouterr()
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b"\xff\xfe{}")
        assert main(["bench", "--config", str(undecodable)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # The models pack ``seed + 1`` as a signed 64-bit integer.
        assert main(["decode", "--seed", str(2**63 - 1), "--length", "7"]) == 5
        assert capsys.readouterr().err == f"error: seed must be in [-2^63, 2^63 - 2], got {2**63 - 1}\n"
        assert main(["decode", "--seed", str(2**63 - 2), "--length", "7"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["bench", "ablate", "decode"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, command):
        for out in (tmp_path / "missing" / "report.txt", tmp_path):
            argv = [command, "--episodes", "1", "--length", "7", "--r", "0", "--r", "9"]
            assert main(argv + ["--out", str(out)]) == 6
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {str(out)!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["bench", "ablate", "decode"])
    def test_unwritable_out_fails_before_decoding(self, tmp_path, capsys, monkeypatch, command):
        def decode_nothing(*args, **kwargs):
            raise AssertionError("an episode ran before --out was checked")

        monkeypatch.setattr("specdec.cli.run_batch", decode_nothing)
        out = str(tmp_path / "missing" / "report.txt")
        assert main([command, "--r", "0", "--r", "9", "--out", out]) == 6
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out!r}: ") and err.count("\n") == 1

    def test_existing_out_is_overwritten(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        out.write_text("stale report that is longer than the new one\n" * 100)
        argv = ["decode", "--length", "7", "--r", "9"]
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_ablate_single_r_exit_code(self, capsys):
        assert main(["ablate", "--episodes", "1", "--length", "14", "--r", "9"]) == 5
        capsys.readouterr()

    def test_rejected_ablate_leaves_out_as_it_was(self, tmp_path, capsys):
        # A one-threshold sweep is rejected before ``--out`` is created or opened.
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"an earlier report\n")
        for out in (new, old):
            assert main(["ablate", "--r", "0", "--episodes", "1", "--out", str(out)]) == 5
        assert not new.exists()
        assert old.read_bytes() == b"an earlier report\n"
        capsys.readouterr()

    def test_config_file_drives_bench(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"episodes": 1, "target_length": 14, "r_values": [0, 9], "seed": 4},
        )
        assert main(["bench", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 4
        assert {row["r"] for row in payload["policies"]} == {0, 9}

    def test_bench_with_measurement_reports_measured_speedup(self, tmp_path, capsys, monkeypatch):
        path = write_config(
            tmp_path,
            {
                "episodes": 1,
                "target_length": 14,
                "r_values": [0, 9],
                "top_k": 1,
                "agreement_p": 1.0,
                "verify_latency": 0.002,
                "draft_latency": 0.0001,
                "measure_speedup": True,
            },
        )
        ar_calls = []

        def counting_ar_decode(*args, **kwargs):
            ar_calls.append(args)
            return ar_decode(*args, **kwargs)

        monkeypatch.setattr("specdec.harness.ar_decode", counting_ar_decode)
        assert main(["bench", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Greedy decoding does not depend on r: it runs once per episode (one
        # here), not once per threshold, and every row shares its time.
        assert len(ar_calls) == 1
        rows = payload["policies"]
        assert [row["r"] for row in rows] == [0, 9]
        measured, measured9 = (row["measured_speedup"] for row in rows)
        assert measured["ar_seconds"] == measured9["ar_seconds"]
        assert measured["measured"] > 1.0
        assert rows[0]["estimated_speedup"] > 1.0
        # The table renderer carries the measurement column too.
        assert main(["bench", "--config", path, "--format", "table"]) == 0
        assert "meas.speedup" in capsys.readouterr().out
