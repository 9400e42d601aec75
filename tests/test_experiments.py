"""Tests for the experiment drivers (fast subsets of each table/figure)."""

import pytest

from repro.experiments import (
    run_bandwidth_ablation,
    run_dataflow_ablation,
    run_estimation_error,
    run_figure6,
    run_overhead,
    run_table3,
    run_vgg16_case,
)
from repro.experiments.ablation import (
    format_bandwidth_ablation,
    format_dataflow_ablation,
)
from repro.experiments.common import paper_config, simulate_network
from repro.experiments.estimation_error import format_estimation_error
from repro.experiments.figure6 import Figure6Point, format_figure6
from repro.experiments.overhead import PAPER_LUT_OVERHEAD, format_overhead
from repro.experiments.table3 import format_table3
from repro.experiments.vgg16_case import format_vgg16_case
from repro.errors import DeviceError


class TestCommon:
    def test_paper_config_vu9p(self):
        cfg, device = paper_config("vu9p")
        assert (cfg.pi, cfg.po, cfg.pt, cfg.instances) == (4, 4, 6, 6)
        assert device.name == "vu9p"

    def test_paper_config_unknown(self):
        with pytest.raises(DeviceError):
            paper_config("zcu102")

    def test_simulate_network(self, cfg_pynq_paper, pynq):
        from repro.ir import zoo
        from repro.mapping import NetworkMapping

        net = zoo.tiny_cnn(input_size=16)
        sim = simulate_network(
            net, cfg_pynq_paper, pynq,
            NetworkMapping.uniform(net, "wino", "ws"),
        )
        assert sim.cycles > 0


class TestTable3:
    def test_rows_match_paper_within_tolerance(self):
        rows = run_table3()
        for row in rows:
            for kind in ("luts", "dsps", "brams"):
                ours = getattr(row.ours, kind)
                paper = getattr(row.paper, kind)
                assert ours == pytest.approx(paper, rel=0.005), (
                    row.device, kind,
                )

    def test_format(self):
        text = format_table3(run_table3())
        assert "vu9p" in text and "pynq-z1" in text
        assert "100.00%" in text  # PYNQ DSPs


class TestOverhead:
    def test_vu9p_overhead_matches_paper(self):
        rows = run_overhead(devices=("vu9p",))
        assert rows[0].lut_overhead == pytest.approx(
            PAPER_LUT_OVERHEAD, abs=0.002
        )
        assert rows[0].dsp_overhead == 0

    def test_format(self):
        assert "26.4%" in format_overhead(run_overhead(devices=("vu9p",)))


class TestFigure6Subset:
    @pytest.fixture(scope="class")
    def points(self):
        # A reduced sweep keeps the suite fast while covering all
        # kernels and the memory-bound tail.
        return run_figure6(
            "pynq-z1",
            series=((28, 64), (14, 128)),
            kernels=(1, 3, 5),
        )

    def test_point_count(self, points):
        assert len(points) == 6

    def test_winograd_wins_3x3(self, points):
        for p in points:
            if p.kernel == 3:
                assert p.wino_real_gops > p.spat_real_gops

    def test_spatial_wins_1x1(self, points):
        # 1x1: Winograd tile overhead makes Spatial the right mode.
        for p in points:
            if p.kernel == 1:
                assert p.spat_real_gops > p.wino_real_gops

    def test_spatial_stable(self, points):
        # Paper: Spatial performance is stable across layers.
        reals = [p.spat_real_gops for p in points if p.kernel == 3]
        assert max(reals) / min(reals) < 1.5

    def test_estimates_track_reality(self, points):
        for p in points:
            assert p.spat_error < 0.35
            assert p.wino_error < 0.35

    def test_format(self, points):
        text = format_figure6("pynq-z1", points)
        assert "WinoReal" in text

    def test_point_errors_computed(self):
        p = Figure6Point(0, 3, 14, 64, 100.0, 90.0, 50.0, 50.0)
        assert p.wino_error == pytest.approx(1 / 9)
        assert p.spat_error == 0.0


class TestAblations:
    def test_bandwidth_crossover_exists(self):
        points = run_bandwidth_ablation(bandwidths=(0.25, 4.0))
        # Starved: spatial wins or ties; ample: Winograd wins clearly.
        assert points[-1].best_mode == "wino"
        assert points[0].wino_gops / points[0].spat_gops < 1.1

    def test_dataflow_crossover(self):
        points = run_dataflow_ablation(features=(7, 56))
        assert points[0].best_dataflow == "ws"
        assert points[-1].best_dataflow == "is"

    def test_formats(self):
        assert "Best mode" in format_bandwidth_ablation(
            run_bandwidth_ablation(bandwidths=(1.0,))
        )
        assert "Best dataflow" in format_dataflow_ablation(
            run_dataflow_ablation(features=(14,))
        )


class TestScalability:
    def test_embedded_subset(self):
        from repro.experiments.scalability import (
            format_scalability,
            run_scalability,
        )

        rows = run_scalability("tiny_cnn", devices=("pynq-z1", "zcu102"))
        by_dev = {r.device: r for r in rows}
        assert by_dev["zcu102"].gops > by_dev["pynq-z1"].gops
        text = format_scalability(rows, "tiny_cnn")
        assert "zcu102" in text


@pytest.mark.slow
class TestSlowExperiments:
    """Full-size experiments; run explicitly or via the benchmarks."""

    def test_estimation_error_single_digit(self):
        rows = run_estimation_error(devices=("pynq-z1",))
        assert rows[0].error < 0.10  # paper: 4.03%

    def test_vgg16_case_matches_paper(self):
        rows = run_vgg16_case(devices=("pynq-z1",))
        assert rows[0].matches_paper

    def test_estimation_error_format(self):
        text = format_estimation_error(
            run_estimation_error(devices=("pynq-z1",))
        )
        assert "pynq-z1" in text

    def test_vgg16_case_format(self):
        text = format_vgg16_case(run_vgg16_case(devices=("pynq-z1",)))
        assert "matches paper" in text


class TestScenarioStudy:
    #: ``scenario_study.main(seed=2020)``'s text as the original
    #: kill/restore-only scenario type produced it; the study now runs
    #: on Kill/Restore chaos ops and must print the same bytes.
    EXPECTED = (
        "Failure scenarios: kill shard0 @ 25%, restore @ 55% "
        "(VGG16-64, 2x vu9p, Poisson @ 1.2x simulated rate)\n"
        + "=" * 102 + "\n"
        "Policy            GOPS    GOPS (kill)  stretch  p99 ms  "
        "p99 ms (kill)  survivor share\n"
        "----------------  ------  -----------  -------  ------  "
        "-------------  --------------\n"
        "round-robin       5038.9  3209.1       1.57x    12.74   39.95"
        "          78/96\n"
        "least-loaded      5038.9  4103.1       1.23x    12.74   35.29"
        "          60/96\n"
        "shortest-latency  5038.9  4103.1       1.23x    12.74   35.29"
        "          60/96\n"
        "* all policies re-serve the killed shard's in-flight work: "
        "no request lost\n"
        "\n"
        "\n"
        "SLO control: vu9p + pynq-z1 pool at 1.5x simulated rate "
        "(round-robin, p99 target = 4 cloud batch-times)\n"
        + "=" * 103 + "\n"
        "Action   served  shed  rerouted  p99 ms  GOPS\n"
        "-------  ------  ----  --------  ------  -----\n"
        "none     64      0     0         700.96  217.6\n"
        "shed     48      16    0         564.87  203.6\n"
        "reroute  64      0     6         564.87  271.4\n"
        "* shedding cut p99 to 0.81x the uncontrolled tail at the cost "
        "of 16 requests\n"
    )

    def test_main_text_is_pinned(self, capsys):
        from repro.experiments import scenario_study

        assert scenario_study.main(seed=2020) == self.EXPECTED
        assert capsys.readouterr().out == self.EXPECTED + "\n"
