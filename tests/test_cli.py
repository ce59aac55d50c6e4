"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.resolution == 512
        assert args.window == 64

    def test_table_number_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_resources_module_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resources", "alu"])

    def test_resources_defaults_to_memory_sweep(self):
        args = build_parser().parse_args(["resources"])
        assert args.module == "memory"
        assert args.device == "XC7Z020"
        assert args.mode == "exhaustive"

    def test_device_flag_choices(self):
        for command in ("resources", "perf", "fault-campaign"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--device", "XC9999"])
            args = build_parser().parse_args([command, "--device", "ZU7EV"])
            assert args.device == "ZU7EV"

    def test_fault_campaign_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault-campaign", "--schemes", "raid5"])

    def test_fault_campaign_defaults(self):
        args = build_parser().parse_args(["fault-campaign"])
        assert args.resolution == 96
        assert args.window == 8
        assert not args.smoke


class TestCommands:
    def test_fig3(self, capsys):
        assert main(["fig3", "--resolution", "128", "--window", "16"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out and "LL" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        assert "87.50" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_resources(self, capsys):
        assert main(["resources", "iwt"]) == 0
        out = capsys.readouterr().out
        assert "592.10" in out or "592.1" in out

    def test_throughput(self, capsys):
        assert main(["throughput"]) == 0
        assert "traditional" in capsys.readouterr().out

    def test_fault_campaign_smoke(self, capsys):
        assert main(["fault-campaign", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "SEU campaign" in out
        assert "secded" in out and "none" in out
        assert "12.5%" in out
        assert "XC7Z020" in out

    def test_fault_campaign_device_in_title(self, capsys):
        assert main(["fault-campaign", "--smoke", "--device", "ZU7EV"]) == 0
        assert "ZU7EV" in capsys.readouterr().out

    def test_mse_small(self, capsys):
        code = main(
            ["mse", "--resolution", "128", "--window", "16", "--images", "2",
             "--processes", "1"]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_fig13_small(self, capsys):
        # Uses the small-resolution path through the same code.
        code = main(
            ["fig13", "--resolution", "256", "--images", "2", "--processes", "1"]
        )
        assert code == 0
        assert "±" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "wavelets", "--resolution", "128"]) == 0
        assert "haar" in capsys.readouterr().out

    def test_validate(self, capsys):
        code = main(
            ["validate", "--resolution", "16", "--window", "4", "--no-cycle"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_full_small(self, capsys):
        assert main(["validate", "--resolution", "16", "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("register-level") == 1

    def test_coding(self, capsys):
        assert main(["coding", "--resolution", "128", "--window", "16"]) == 0
        assert "LOCO" in capsys.readouterr().out

    def test_dataset_render(self, tmp_path, capsys):
        code = main(
            ["dataset", "--out", str(tmp_path), "--resolution", "64", "--images", "2"]
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.pgm"))
        assert len(files) == 2

    def test_compress_decompress_roundtrip(self, tmp_path, capsys):
        import numpy as np

        from repro.imaging import generate_scene
        from repro.imaging.pgm import read_pgm, write_pgm

        src = tmp_path / "in.pgm"
        rwc = tmp_path / "img.rwc"
        back = tmp_path / "out.pgm"
        write_pgm(src, generate_scene(seed=5, resolution=64))
        assert main(["compress", str(src), str(rwc), "--ll-dpcm"]) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["decompress", str(rwc), str(back)]) == 0
        assert np.array_equal(read_pgm(back), read_pgm(src))  # lossless


class TestResourcesCommand:
    def test_memory_sweep_default_device(self, capsys):
        assert main(["resources", "--images", "2"]) == 0
        out = capsys.readouterr().out
        assert "Memory placement on XC7Z020" in out
        assert "bram18" in out

    def test_memory_sweep_ultrascale(self, capsys):
        assert main(["resources", "--device", "ZU7EV", "--images", "2"]) == 0
        out = capsys.readouterr().out
        assert "Memory placement on ZU7EV" in out
        assert "LUTRAM" in out and "uram" in out

    def test_format_json_and_artifact(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "resources.json"
        code = main(
            [
                "resources",
                "--device",
                "ZU7EV",
                "--images",
                "2",
                "--format",
                "json",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        from repro.analysis.resources import RESOURCES_SCHEMA, load_resources_json

        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload["schema"] == RESOURCES_SCHEMA
        payload = load_resources_json(out_json)
        assert payload == stdout_payload
        kinds = {
            pt["placement"]["payload"]["primitive"] for pt in payload["points"]
        }
        assert "uram" in kinds

    def test_legacy_module_tables_still_work(self, capsys):
        assert main(["resources", "overall"]) == 0
        assert "LUT" in capsys.readouterr().out


class TestPerfCommand:
    def test_perf_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compressed-fast" in out
        assert "headline" in out
        from repro.analysis.perf import load_bench_json

        payload = load_bench_json(out_json)
        assert payload["engines"]["compressed-fast"]["pixels_per_sec"] > 0

    def test_perf_strategy_subset(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--strategy",
                "sequential",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subset run" in out
        assert "golden" not in out
        from repro.analysis.perf import load_bench_json

        payload = load_bench_json(out_json)
        assert set(payload["engines"]) == {"compressed-sequential"}

    def test_perf_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--strategy", "warp-drive"])

    def test_perf_device_rides_on_payload(self, tmp_path):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--device",
                "ZU3EG",
                "--strategy",
                "sequential",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        from repro.analysis.perf import load_bench_json

        assert load_bench_json(out_json)["device"] == "ZU3EG"


class TestStreamCommand:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.resolution == 512
        assert args.frames == 8
        assert tuple(args.workers) == (1, 2, 4)

    def test_stream_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_stream.json"
        code = main(["stream", "--smoke", "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-process" in out
        assert "streamed" in out
        from repro.analysis.stream_perf import load_stream_json

        payload = load_stream_json(out_json)
        assert [e["workers"] for e in payload["scaling"]] == [1, 2]
        assert all(e["bit_identical"] for e in payload["scaling"])


class TestMetricsCommand:
    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.resolution == 256
        assert args.window == 16
        assert args.engine == "compressed"
        assert args.repeats == 3

    def test_common_engine_flags_are_uniform(self):
        """perf/stream/fault-campaign/metrics share one flag vocabulary."""
        for command in ("perf", "stream", "metrics"):
            args = build_parser().parse_args(
                [command, "--resolution", "100", "--window", "4", "--threshold", "2"]
            )
            assert (args.resolution, args.window, args.threshold) == (100, 4, 2)
        fc = build_parser().parse_args(
            ["fault-campaign", "--resolution", "100", "--window", "4"]
        )
        assert (fc.resolution, fc.window) == (100, 4)

    def test_metrics_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--engine", "quantum"])

    def test_metrics_run_and_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "metrics",
                "--resolution",
                "64",
                "--window",
                "8",
                "--repeats",
                "1",
                "--jsonl",
                str(jsonl),
                "--prometheus",
                str(prom),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-stage span timings" in out
        assert "bit-identical" in out
        from repro.observability.export import (
            load_metrics_jsonl,
            parse_prometheus_names,
        )

        records = load_metrics_jsonl(jsonl)
        assert any(r["name"] == "repro_frames_total" for r in records)
        names = parse_prometheus_names(prom.read_text())
        assert "repro_span_seconds" in names
