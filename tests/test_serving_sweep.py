"""Tests for repro.serving.sweep — seeded chaos grids, worker pools.

The load-bearing test is serial-vs-process byte identity: ``jobs=2``
must be the same computation as ``jobs=1`` scheduled differently, or a
CI sweep artifact would depend on the runner's core count.
"""

import json
import os

import pytest

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    SweepGrid,
    SweepOptions,
    run_sweep,
)
from repro.serving.sweep import map_pinned


def make_session(instances=1, frequency=100.0):
    device = get_device("vu9p")
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=instances, frequency_mhz=frequency,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    return PipelineSession(
        zoo.tiny_cnn(input_size=16, channels=8),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=False, pack_data=False),
    )


GRID = dict(
    scenarios=(
        "none",
        "degrade:shard0@0.001..0.01x4",
        "kill:shard0@0.002,restore@0.01",
    ),
    policies=("round-robin", "shortest-latency"),
    pool_sizes=(2, 3),
)


# -- grid validation -------------------------------------------------------


class TestSweepGrid:
    def test_cells_are_scenario_major_and_seeded_by_index(self):
        grid = SweepGrid(**GRID)
        cells = grid.cells(100)
        assert len(cells) == len(grid) == 12
        assert [cell.index for cell in cells] == list(range(12))
        assert [cell.seed for cell in cells] == list(range(100, 112))
        assert cells[0].scenario == "none"
        assert cells[0].policy == "round-robin"
        assert cells[0].pool_size == 2
        assert cells[1].pool_size == 3
        assert cells[2].policy == "shortest-latency"
        assert cells[4].scenario == "degrade:shard0@0.001..0.01x4"

    def test_rejects_empty_axes(self):
        with pytest.raises(ServingError):
            SweepGrid([], ["round-robin"], [2])

    def test_rejects_unknown_policy(self):
        with pytest.raises(ServingError, match="policy"):
            SweepGrid(["none"], ["fifo"], [2])

    def test_rejects_bad_scenario_spec(self):
        with pytest.raises(ServingError):
            SweepGrid(["frobnicate:shard0@1"], ["round-robin"], [2])

    def test_rejects_shard_missing_from_smallest_pool(self):
        with pytest.raises(ServingError, match="smallest pool"):
            SweepGrid(
                ["kill:shard2@0.01"], ["round-robin"], [2, 4]
            )

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ServingError):
            SweepGrid(["none"], ["round-robin"], [0])


class TestSweepOptions:
    def test_validates_eagerly(self):
        with pytest.raises(ServingError):
            SweepOptions(jobs=0)
        with pytest.raises(ServingError):
            SweepOptions(requests=0)
        with pytest.raises(ServingError):
            SweepOptions(load_factor=0.0)
        with pytest.raises(ServingError):
            SweepOptions(slo_action="panic")
        with pytest.raises(ServingError):
            SweepOptions(shapes=("square:1x2",))

    def test_validates_trace_eagerly(self, tmp_path):
        # A missing/unreadable trace fails at construction, not in
        # cell 0 of a sweep.
        with pytest.raises(ServingError, match="cannot read trace"):
            SweepOptions(trace=str(tmp_path / "missing.csv"))
        # Trace knobs without a trace are a spec error.
        with pytest.raises(ServingError, match="only apply"):
            SweepOptions(trace_scale=0.5)
        with pytest.raises(ServingError, match="only apply"):
            SweepOptions(trace_loop=2)
        # A bad shape fails even when it would warp a valid trace.
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp\n0.0\n0.001\n0.002\n")
        with pytest.raises(ServingError):
            SweepOptions(trace=str(trace), shapes=("square:1x2",))

    def test_trace_composes_with_shapes_at_construction(self, tmp_path):
        from repro.serving.traffic import (
            TraceSource,
            parse_shape,
            shape_arrivals,
            shaped_trace,
        )

        trace = tmp_path / "trace.csv"
        trace.write_text(
            "timestamp\n"
            + "\n".join(f"{i * 0.004:.6f}" for i in range(24))
            + "\n"
        )
        shapes = ("flash:5@0.02~0.03",)
        options = SweepOptions(
            trace=str(trace), trace_scale=0.5, trace_loop=2,
            shapes=shapes,
        )
        source = TraceSource.load(str(trace), time_scale=0.5, loop=2)
        expected = shaped_trace(
            source, [parse_shape(spec) for spec in shapes]
        )
        shaped = options.trace_source.arrivals.tolist()
        assert shaped == expected.arrivals.tolist()
        # The warp is real: shaped arrivals differ from the replay.
        assert shaped != source.arrivals.tolist()
        assert shaped == shape_arrivals(
            source.arrivals, [parse_shape(spec) for spec in shapes]
        )


# -- running ---------------------------------------------------------------


class _Scaled:
    """A pinned state for :func:`map_pinned`: multiplies by its payload."""

    def __init__(self, factor):
        self.factor = factor
        self.pid = os.getpid()

    def run(self, item):
        return item * self.factor, self.pid


class TestMapPinned:
    def test_serial_runs_the_parent_state(self):
        results = map_pinned(_Scaled(3), _Scaled, 5, [1, 2], jobs=1)
        assert results == [(3, os.getpid()), (6, os.getpid())]

    def test_workers_are_primed_from_the_payload_in_item_order(self):
        items = list(range(9))
        results = map_pinned(_Scaled(3), _Scaled, 5, items, jobs=2)
        assert [value for value, _ in results] == [5 * i for i in items]
        assert os.getpid() not in {pid for _, pid in results}


class TestRunSweep:
    @pytest.fixture(scope="class")
    def reports(self):
        grid = SweepGrid(**GRID)
        session = make_session()
        serial = run_sweep(
            session, grid, SweepOptions(requests=16), seed=7
        )
        process = run_sweep(
            session, grid,
            SweepOptions(requests=16, jobs=2),
            seed=7,
        )
        return serial, process

    def test_serial_and_process_byte_identical(self, reports):
        serial, process = reports
        assert serial.to_json() == process.to_json()
        assert serial == process  # wall_seconds excluded from equality

    def test_every_cell_accounts_for_every_request(self, reports):
        serial, _ = reports
        for cell in serial.cells:
            assert (
                cell["served"] + cell["shed"] + cell["unserved"]
                == cell["issued"]
            ), cell

    def test_report_schema_is_trajectory_compatible(self, reports):
        serial, _ = reports
        payload = json.loads(serial.to_json())
        # The headline numbers append_trajectory.summarise reads live
        # at the top level, next to the structured breakdowns.
        for key in ("cell_count", "count", "shed", "unserved",
                    "slo_attainment", "p99_latency_s"):
            assert key in payload, key
        assert "wall_seconds" not in payload
        assert set(payload["per_scenario"]) == set(GRID["scenarios"])
        for stats in payload["per_scenario"].values():
            assert 0.0 <= stats["attainment"] <= 1.0
            assert set(stats["survival"]) == {"1x", "2x", "4x", "8x"}
            for fraction in stats["survival"].values():
                assert 0.0 <= fraction <= 1.0

    def test_survival_is_monotone_in_the_multiple(self, reports):
        serial, _ = reports
        for stats in serial.per_scenario.values():
            fractions = [
                stats["survival"][key] for key in ("1x", "2x", "4x", "8x")
            ]
            assert fractions == sorted(fractions, reverse=True)

    def test_chaos_scenarios_hurt_attainment(self, reports):
        serial, _ = reports
        per = serial.per_scenario
        baseline = per["none"]["attainment"]
        assert any(
            per[spec]["attainment"] <= baseline
            for spec in GRID["scenarios"] if spec != "none"
        )

    def test_trace_replay_drives_every_cell(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "timestamp\n"
            + "\n".join(f"{i * 0.002:.6f}" for i in range(10))
            + "\n"
        )
        grid = SweepGrid(
            ["none", "kill:shard0@0.002,restore@0.01"],
            ["round-robin"],
            [2],
        )
        session = make_session()
        options = SweepOptions(
            trace=str(trace), trace_loop=2,
            shapes=("flash:4@0.005~0.01",),
        )
        report = run_sweep(session, grid, options, seed=7)
        # Every cell replays the full looped trace, not --requests.
        for cell in report.cells:
            assert cell["issued"] == 20
            assert (
                cell["served"] + cell["shed"] + cell["unserved"]
                == cell["issued"]
            )
        assert report.grid["trace"] == str(trace)
        assert report.grid["trace_loop"] == 2

    def test_trace_serial_and_process_byte_identical(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "\n".join(f"{i * 0.003:.6f}" for i in range(12)) + "\n"
        )
        grid = SweepGrid(
            ["none", "degrade:shard0@0.001..0.01x4"],
            ["round-robin", "shortest-latency"],
            [2],
        )
        session = make_session()
        kwargs = dict(
            trace=str(trace),
            trace_scale=0.5,
            shapes=("diurnal:0.5x0.02",),
        )
        serial = run_sweep(
            session, grid, SweepOptions(**kwargs), seed=5
        )
        process = run_sweep(
            session, grid,
            SweepOptions(jobs=2, **kwargs),
            seed=5,
        )
        assert serial.to_json() == process.to_json()

    def test_same_seed_reruns_identically(self):
        grid = SweepGrid(["none"], ["round-robin"], [2])
        session = make_session()
        options = SweepOptions(requests=12)
        first = run_sweep(session, grid, options, seed=3)
        second = run_sweep(session, grid, options, seed=3)
        third = run_sweep(session, grid, options, seed=4)
        assert first.to_json() == second.to_json()
        assert first.to_json() != third.to_json()
