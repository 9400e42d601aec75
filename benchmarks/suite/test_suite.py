"""Self-test of the benchmark suite: spec, metric names, comparison
verdicts and correctness checks.  Runs no workload, so it stays fast."""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import run
import workloads
from repro.compiler import CompilerOptions
from repro.experiments.common import paper_config
from repro.pipeline import CacheStats, PipelineSession
from repro.planning import PlanOptions, plan_capacity
from repro.serving import (
    ShardPool,
    ShardServer,
    SweepGrid,
    SweepOptions,
    TraceSource,
    WorkloadSpec,
    make_requests,
    run_sweep,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = harness.load_spec()


def _names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert SPEC["command"][1] == "benchmarks/suite/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {}
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = (_names("workloads") + _names("end_to_end")
             + _names("per_layer"))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def _synthetic_run(trace):
    rec = harness.Recorder(trace)
    rec.begin_iteration(0)
    with rec.span(harness.ITERATION):
        with rec.op("serve"):
            with rec.span("serving.run"):
                rec.count("serving.served", 10)
        rec.end_iteration()
    op_s = {"serve": [1.2], "output digest": [0.3]}
    return harness.Run(rec, 0.2, [0.1, 0.3, 0.2], [1.5], op_s, (1.0, 0.1))


@pytest.mark.parametrize("trace", [False, True])
def test_harness_produces_every_declared_metric(trace):
    assert list(workloads.WORKLOADS) == _names("workloads")
    line = harness.result_line(_synthetic_run(trace), SPEC, trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == _names(section)
    assert (line["correct"], line["attempted"], line["failed"]) == (
        True, 2, 0
    )
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
    if not trace:
        assert line["metrics"]["setup_s"]["value"] == pytest.approx(0.4)
        assert line["metrics"]["wall_s"]["value"] == pytest.approx(1.5)


def test_recorder_rejects_undeclared_names():
    rec = harness.Recorder(False)
    with pytest.raises(KeyError):
        rec.count("serving.nonsense", 1)
    with pytest.raises(KeyError):
        rec.gauge("sim.cycles.zcu102", 1)
    with pytest.raises(KeyError):
        with rec.span("serving.nonsense"):
            pass


def test_self_time_excludes_children_and_set_up():
    rec = harness.Recorder(True)
    rec.spans = [
        ["setup work", 0.0, 9.0, None, None],
        [harness.ITERATION, 10.0, 20.0, None, 0],
        ["serving.run", 11.0, 14.0, 1, 0],
        ["bench.checks", 15.0, 16.0, 1, 0],
    ]
    assert rec.self_times() == {
        harness.ITERATION: 6.0, "serving.run": 3.0, "bench.checks": 1.0,
    }
    metrics = harness.per_layer_metrics(rec, [10.0], 10.0, 0.0, 0.0)
    assert metrics["bench.span_coverage"] == pytest.approx(0.4)
    assert metrics["serving.run_s"] == 3.0


def test_failed_operations_and_changed_outputs_count_as_failed():
    rec = harness.Recorder(False)
    for index, payload in enumerate(("a", "a", "b")):
        rec.begin_iteration(index)
        with rec.op("check"):
            if index == 1:
                raise checks.CheckFailed("wrong")
        rec.output("out", payload)
        rec.end_iteration()
    # 3 checked ops + 3 digest ops; the raise and the changed digest fail.
    assert (rec.attempted, rec.failed) == (6, 2)


def _summary(values, bound=0.1):
    q1, median, q3 = harness.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values,
            "bound": bound, "better": "lower"}


@pytest.mark.parametrize("head, expected", [
    ([1.00, 1.01, 0.99], "same"),
    ([1.20, 1.21, 1.19], "worse"),
    ([0.80, 0.81, 0.79], "better"),
    ([0.70, 1.20, 1.60], "unresolved"),
    ([1.60, 1.70, 2.30], "worse"),
])
def test_compare_verdicts(head, expected):
    base = _summary([1.0, 1.01, 0.99])
    *_, word = run.verdict(base, _summary(head), 0.1, "lower")
    assert word == expected
    higher = {**_summary(head), "better": "higher"}
    flipped = {"worse": "better", "better": "worse"}
    *_, word = run.verdict(base, higher, 0.1, "higher")
    assert word == flipped.get(expected, expected)


def _result(wall_values):
    return {
        "meta": {"commit": "0" * 40, "date": "today"},
        "workloads": {"dse": {
            "end_to_end": {"wall_s": _summary(wall_values)},
            "digest": "d",
            "per_layer": {"dse.run_dse_s": {"value": 1.0, "unit": "s"}},
        }},
    }


def test_compare_exits_nonzero_only_on_a_regression(capsys):
    base = _result([1.0, 1.01, 0.99])
    assert run.compare(base, _result([1.0, 1.02, 0.98])) == 0
    assert run.compare(base, _result([1.3, 1.31, 1.29])) == 1
    assert "worse" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_pool():
    cfg, device = paper_config("pynq-z1")
    session = PipelineSession(
        "tiny_cnn", device, cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=False),
    )
    return session, ShardPool.replicate(session, 2)


def test_design_point_check():
    cfg, _ = paper_config("vu9p")
    checks.check_design_point("vu9p", cfg)
    with pytest.raises(checks.CheckFailed):
        checks.check_design_point("vu9p", dataclasses.replace(cfg, pt=4))


def test_accounting_check_rejects_broken_conservation(tiny_pool):
    _, pool = tiny_pool
    traffic = make_requests("poisson", 32, qps=2000.0, seed=1)
    server = ShardServer(pool)
    report = server.run(WorkloadSpec(traffic=traffic, policy="round-robin"))
    checks.check_accounting("ok", report, 32, {"default": 32})
    checks.check_engine("ok", "fastforward", server.last_engine)
    with pytest.raises(checks.CheckFailed):
        checks.check_accounting(
            "tampered", dataclasses.replace(report, shed=1), 32
        )
    with pytest.raises(checks.CheckFailed):
        checks.check_accounting("tampered", report, 32, {"default": 31})
    with pytest.raises(checks.CheckFailed):
        checks.check_engine("tampered", "kernel", server.last_engine)


def test_sweep_check_rejects_a_tampered_cell(tiny_pool):
    session, _ = tiny_pool
    grid = SweepGrid(["none"], ["round-robin"], [2])
    payload = run_sweep(session, grid, SweepOptions(requests=16)).to_dict()
    checks.check_sweep(payload, 1)
    payload["cells"][0]["served"] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(payload, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(payload, 2)


def test_plan_check_rejects_a_missed_slo():
    plan = plan_capacity(
        "tiny_cnn", "vu9p:0..1+pynq-z1:0..2",
        PlanOptions(slo_p99_s=1e-3, rate=2e5, requests=64, top_k=2),
    )
    payload = plan.to_dict()
    checks.check_plan(payload)
    payload["winner"]["replay"]["slo_ok"] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_plan(payload)
    payload["winner"] = {"plan": -1}
    with pytest.raises(checks.CheckFailed):
        checks.check_plan(payload)


def test_store_checks():
    checks.check_warm_session("ok", CacheStats(hits=5), 0)
    for stats, flushed in ((CacheStats(hits=4, misses=1), 0),
                           (CacheStats(hits=5), 3)):
        with pytest.raises(checks.CheckFailed):
            checks.check_warm_session("tampered", stats, flushed)
    reference = ("cfg", "mapping", "estimate")
    checks.check_same_selection("ok", reference, reference)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_selection(
            "tampered", reference, ("cfg", "other", "estimate")
        )


def test_bursty_trace_depends_only_on_the_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (7, 7, 8)):
        workloads.write_bursty_trace(path, seed)
    assert paths[0].read_text() == paths[1].read_text()
    assert paths[0].read_text() != paths[2].read_text()
    trace = TraceSource.load(paths[2], time_scale=2e-5, loop=2)
    assert len(trace.arrivals) == 152


def test_run_fails_without_the_program(tmp_path):
    """Next to nothing but BENCHMARK.json and the suite, a run exits
    nonzero and prints no result."""
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    for source in harness.SUITE_DIR.glob("*.py"):
        shutil.copy(source, suite / source.name)
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "dse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
