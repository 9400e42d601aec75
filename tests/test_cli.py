"""Tests for repro.cli — the command-line interface."""

import pytest

import repro.cli as cli
from repro.cli import build_parser, main


@pytest.fixture
def opened_sessions(monkeypatch):
    """Every session the CLI's model commands open, in order."""
    sessions = []
    real = cli._session

    def spy(args, **kwargs):
        sessions.append(real(args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(cli, "_session", spy)
    return sessions


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dse_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.device == "pynq-z1"
        assert args.model == "vgg16"
        assert args.objective == "throughput"


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "vu9p" in out and "pynq-z1" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "darknet19" in out

    def test_dse_tiny(self, capsys):
        assert main(
            ["dse", "--model", "tiny_cnn", "--device", "pynq-z1", "-v"]
        ) == 0
        out = capsys.readouterr().out
        assert "PI=" in out
        assert "conv1" in out  # verbose per-layer mapping

    def test_unknown_model_is_error(self, capsys):
        assert main(["dse", "--model", "resnet-9000"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_device_is_error(self, capsys):
        assert main(["dse", "--device", "virtex-2"]) == 1

    def test_compile_writes_files(self, tmp_path, capsys):
        rc = main([
            "compile", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--exact", "-o", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "program.bin").exists()
        assert (tmp_path / "program.asm").exists()
        asm = (tmp_path / "program.asm").read_text()
        assert "COMP" in asm

    def test_compile_output_loads_back(self, tmp_path):
        from repro.isa import Program

        main([
            "compile", "--model", "tiny_cnn", "--device", "pynq-z1",
            "-o", str(tmp_path),
        ])
        program = Program.load(tmp_path / "program.bin")
        assert len(program) > 0

    def test_simulate(self, capsys):
        rc = main(["simulate", "--model", "tiny_cnn",
                   "--device", "pynq-z1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GOPS" in out
        assert "COMP" in out

    def test_simulate_is_timing_only(self, capsys, opened_sessions):
        assert main(["simulate", "--model", "tiny_cnn",
                     "--device", "pynq-z1"]) == 0
        # Printed by the eager, packed-data compile this replaced.
        assert capsys.readouterr().out == (
            "tiny_cnn on pynq-z1: 0.02 ms/image/instance, 40.8 GOPS "
            "aggregate, 80 instructions\n"
            "  LOAD_INP   71.7% busy\n"
            "  LOAD_WGT   83.0% busy\n"
            "  COMP       46.5% busy\n"
            "  SAVE       62.9% busy\n"
        )
        (session,) = opened_sessions
        assert not session.compiler_options.pack_data
        assert not session.parameters().drawn

    def test_simulate_functional_packs_data(self, opened_sessions):
        assert main(["simulate", "--model", "tiny_cnn",
                     "--device", "pynq-z1", "--functional"]) == 0
        (session,) = opened_sessions
        assert session.compiler_options.pack_data
        assert session.parameters().drawn

    def test_emit_hls(self, tmp_path, capsys):
        rc = main([
            "emit-hls", "--model", "tiny_cnn", "--device", "pynq-z1",
            "-o", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "hybriddnn_top.cpp").exists()
        assert (tmp_path / "hybriddnn_config.h").exists()

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "tableX"]) == 2

    def test_experiments_table3(self, capsys):
        assert main(["experiments", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_serve_round_trip(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--policy", "least-loaded",
            "--requests", "16", "--max-batch", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 16 requests over 2 shard(s)" in out
        assert "GOPS aggregate" in out
        # Uniform traffic must reproduce the analytical BatchRunner
        # number (the ratio is printed to 3 decimals).
        assert "serve/reference = 1.000" in out

    def test_serve_poisson_auto_qps(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qps not given" in out
        assert "served 8 requests" in out

    def test_serve_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "fifo"])

    def test_serve_seed_reproduces_poisson_runs(self, capsys):
        def virtual(out):
            # The "kernel: ... host time ... events/s" line measures
            # the host, not the modeled system — everything else must
            # be seed-deterministic.
            return "\n".join(
                line for line in out.splitlines()
                if "host time" not in line
            )

        args = [
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "12",
            "--qps", "5000",
        ]
        assert main(args + ["--seed", "5"]) == 0
        first = virtual(capsys.readouterr().out)
        assert main(args + ["--seed", "5"]) == 0
        second = virtual(capsys.readouterr().out)
        assert first == second
        assert main(args + ["--seed", "6"]) == 0
        assert virtual(capsys.readouterr().out) != first

    def test_serve_closed_loop(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--closed-loop", "3",
            "--think-time", "0.1", "--requests", "12", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed-loop: 3 clients" in out
        assert "served 12 requests" in out
        # The open-loop BatchRunner cross-check does not apply.
        assert "serve/reference" not in out

    def test_serve_kill_restore_scenario(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--policy", "least-loaded",
            "--requests", "16",
            "--scenario", "kill:shard0@0.0001,restore@0.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario: kill shard0" in out
        assert "served 16 requests" in out

    def test_serve_bad_scenario_is_error(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--requests", "4", "--scenario", "kill:shard7@0.1",
        ])
        assert rc == 1
        assert "unknown shard" in capsys.readouterr().err

    def test_serve_slo_shed(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "fixed-qps", "--qps", "20000",
            "--requests", "48", "--slo-p99", "0.05",
            "--slo-action", "shed",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo: p99 target 0.05 ms" in out

    def test_serve_autoscale_round_trip(self, tmp_path, capsys):
        report_path = tmp_path / "out" / "report.json"
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--autoscale", "1:3", "--target-p99", "0.08",
            "--warmup", "0.02", "--traffic", "burst", "--burst", "12",
            "--requests", "48", "--max-batch", "4",
            "--report-json", str(report_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # The pool is replicated to max, not --shards.
        assert "served 48 requests over 3 shard(s)" in out
        assert "autoscaler: 1..3 shards, target p99 0.08 ms" in out
        # The BatchRunner cross-check does not apply to elastic pools.
        assert "serve/reference" not in out
        import json

        payload = json.loads(report_path.read_text())
        assert payload["count"] == 48
        assert payload["scale_ups"] >= 1

    def test_serve_autoscale_bad_specs_are_errors(self, capsys):
        base = ["serve", "--model", "tiny_cnn", "--device", "pynq-z1",
                "--requests", "4"]
        for extra in (
            ["--autoscale", "two:4", "--target-p99", "1"],
            ["--autoscale", "1:4"],  # no target
            ["--autoscale", "1:4", "--target-p99", "1",
             "--target-util", "0.5"],  # both targets
            ["--target-util", "0.5"],  # target without bounds
            ["--autoscale", "1:4", "--target-p99", "1",
             "--scenario", "kill:shard0@0.1"],  # fights the scenario
            ["--autoscale", "4:1", "--target-p99", "1"],  # min > max
        ):
            assert main(base + extra) == 1
            assert "error:" in capsys.readouterr().err

    def test_serve_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "timestamp\n" + "\n".join(
                f"{k // 4 * 0.01:.4f}" for k in range(16)
            ) + "\n"
        )
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--trace", str(trace),
            "--trace-scale", "0.5", "--trace-loop", "2",
            "--max-batch", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace trace.csv: 32 arrivals" in out
        assert "served 32 requests" in out
        assert "serve/reference" not in out

    def test_serve_trace_with_closed_loop_is_error(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.csv"
        trace.write_text("0.0\n0.1\n")
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--trace", str(trace), "--closed-loop", "2",
        ])
        assert rc == 1
        assert "pick one" in capsys.readouterr().err

    def test_serve_chaos_scenario_and_shape(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--qps", "2000",
            "--requests", "16",
            "--scenario", "degrade:shard0@0.001..0.01x4",
            "--shape", "flash:2@0.005~0.002",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario: degrade shard0 x4" in out
        assert "flash" in out
        assert "served 16 requests" in out

    def test_serve_shape_with_closed_loop_is_error(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--closed-loop", "2", "--requests", "8",
            "--shape", "diurnal:0.5x0.01",
        ])
        assert rc == 1
        assert "closed-loop" in capsys.readouterr().err

    def test_sweep_round_trip(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--scenarios", "none;kill:shard0@0.002,restore@0.01",
            "--policies", "round-robin", "--pools", "2",
            "--requests", "8", "--seed", "3",
            "--report-json", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep: 2 cells" in out
        assert "SLO attainment" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["cell_count"] == 2
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert (
                cell["served"] + cell["shed"] + cell["unserved"]
                == cell["issued"]
            )

    def test_sweep_bad_grid_is_error(self, capsys):
        rc = main([
            "sweep", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--scenarios", "kill:shard5@0.01", "--pools", "2",
        ])
        assert rc == 1
        assert "smallest pool" in capsys.readouterr().err
        rc = main([
            "sweep", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--pools", "two",
        ])
        assert rc == 1
        assert "shard counts" in capsys.readouterr().err

    def test_experiments_seed_flag_parses(self):
        args = build_parser().parse_args(
            ["experiments", "serving", "--seed", "7"]
        )
        assert args.seed == 7
        assert args.name == "serving"

    def test_experiment_names_are_the_registry(self):
        args = build_parser().parse_args(["experiments", "plan"])
        assert tuple(cli._experiment_registry(args)) == cli.EXPERIMENTS
        assert set(cli.SEEDED_EXPERIMENTS) < set(cli.EXPERIMENTS)

    def test_experiments_help_lists_every_experiment(
        self, capsys, monkeypatch
    ):
        # A wide terminal keeps argparse from wrapping at the hyphens.
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit):
            main(["experiments", "--help"])
        text = capsys.readouterr().out
        assert "|".join(cli.EXPERIMENTS) in text
        assert "/".join(cli.SEEDED_EXPERIMENTS) in text
        for name in ("scalability", "roofline", "instruction-stats", "plan"):
            assert name in text

    def test_cache_info_and_compact(self, tmp_path, capsys):
        from collections import Counter

        from repro.dse import explore_hardware
        from repro.fpga import get_device
        from repro.pipeline import EvaluationStore, PipelineSession

        # A DSE persists partitions only; estimates come from sessions
        # pinned to one design, each flush one segment.
        cache_dir = str(tmp_path / "memo")
        for model, device in (("tiny_cnn", "pynq-z1"),
                              ("tiny_mlp", "pynq-z1"),
                              ("tiny_cnn", "zcu102")):
            cfg = explore_hardware(get_device(device))[0].cfg
            with PipelineSession(model, device, cfg=cfg,
                                 store=cache_dir) as session:
                session.estimate()
        estimates, partitions = EvaluationStore(cache_dir).load()
        scopes = Counter(key[2] for key in estimates)
        assert set(scopes) == {"pynq-z1", "zcu102"}
        capsys.readouterr()
        assert main(["cache", "info", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "3 segment(s)" in out
        assert (f"{len(estimates)} estimate + {len(partitions)} partition "
                "entries stored") in out
        for device, count in scopes.items():
            assert f"    {device}: {count}\n" in out
        assert "would merge 3 segments into 1" in out
        assert main(["cache", "compact", cache_dir]) == 0
        out = capsys.readouterr().out
        # The counts are the merge's own, equal to a full load's.
        assert (f"merged 3 segments into 1 ({len(estimates)} estimate + "
                f"{len(partitions)} partition entries)") in out
        # Idempotent: a second compact is a no-op.
        assert main(["cache", "compact", cache_dir]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        # The compacted store keeps every scope.
        assert main(["cache", "info", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 segment(s)" in out
        for device, count in scopes.items():
            assert f"    {device}: {count}\n" in out
        assert EvaluationStore(cache_dir).load() == (estimates, partitions)

    def test_cache_info_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "info", str(tmp_path / "nowhere")]) == 0
        assert "empty" in capsys.readouterr().out
        # Inspection never creates the directory.
        assert main(["cache", "compact", str(tmp_path / "nowhere")]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert not (tmp_path / "nowhere").exists()

    def test_model_from_json(self, tmp_path, capsys):
        from repro.ir import save_network, zoo

        path = tmp_path / "model.json"
        save_network(zoo.tiny_cnn(), path)
        assert main(["dse", "--model", str(path),
                     "--device", "pynq-z1"]) == 0
