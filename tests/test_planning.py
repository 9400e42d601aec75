"""Tests for repro.planning — grid grammar, Tier A scoring semantics,
and the two-tier driver.

The load-bearing tests are (a) Tier A's prune codes mark only provably
infeasible plans (the randomized attack lives in
test_planning_properties.py; here the hand-built cases pin the
boundary) and (b) serial-vs-process Tier B byte identity, the same
invariant the sweep driver holds.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.planning import (
    AnalyticPlanScorer,
    ArrivalProfile,
    KindSpec,
    PlanGrid,
    PlanOptions,
    parse_devices,
    plan_capacity,
)
from repro.serving.traffic import Request


# -- device spec grammar --------------------------------------------------


def test_parse_devices_ranges_and_weights():
    kinds = parse_devices("vu9p:0..4+pynq-z1:2..8@1.5")
    assert kinds == (
        KindSpec("vu9p", 0, 4),
        KindSpec("pynq-z1", 2, 8, weight=1.5),
    )


def test_parse_devices_fixed_count_and_prefix():
    (kind,) = parse_devices("pynq:3")
    assert kind == KindSpec("pynq-z1", 3, 3)


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "vu9p",
        "vu9p:",
        "vu9p:a..b",
        "vu9p:1..2@zero",
        "vu9p:1..2@0",
        "vu9p:2..1",
        "vu9p:-1..2",
        "nosuchdev:1",
        "vu9p:1+vu9p:2",
    ],
)
def test_parse_devices_rejects(spec):
    with pytest.raises(PlanningError):
        parse_devices(spec)


def test_parse_devices_unknown_name_lists_catalog():
    with pytest.raises(PlanningError, match="expected one of"):
        parse_devices("x:1")


# -- plan grid ------------------------------------------------------------


def test_plan_grid_excludes_empty_plan_and_orders():
    grid = PlanGrid(parse_devices("vu9p:0..1+pynq-z1:0..1"), [1, 4])
    # 2x2 mixes minus the all-zero one, times two batch options.
    assert len(grid) == 6
    plans = [grid.plan(index) for index in range(len(grid))]
    # Mix odometer-style (first kind slowest), batches innermost.
    assert plans == [
        ((0, 1), 1),
        ((0, 1), 4),
        ((1, 0), 1),
        ((1, 0), 4),
        ((1, 1), 1),
        ((1, 1), 4),
    ]


def test_plan_grid_dedups_and_sorts_batches():
    grid = PlanGrid([KindSpec("vu9p", 1, 1)], [8, 1, 8])
    assert grid.batch_options == (1, 8)
    assert len(grid) == 2


def test_plan_grid_rejects_bad_inputs():
    with pytest.raises(PlanningError):
        PlanGrid([], [1])
    with pytest.raises(PlanningError):
        PlanGrid([KindSpec("vu9p", 1, 1)], [])
    with pytest.raises(PlanningError):
        PlanGrid([KindSpec("vu9p", 1, 1)], [0])
    with pytest.raises(PlanningError):
        # KindSpec itself refuses a 0..0 range — the grid can never
        # hold only the empty plan.
        KindSpec("vu9p", 0, 0)


def test_plan_grid_caps_size():
    with pytest.raises(PlanningError, match="narrow"):
        PlanGrid(
            [
                KindSpec("vu9p", 0, 1999),
                KindSpec("pynq-z1", 0, 999),
            ],
            [1],
        )


# -- arrival profile ------------------------------------------------------


def test_arrival_profile_from_requests():
    requests = [Request(index=i, arrival=i * 0.5) for i in range(5)]
    profile = ArrivalProfile.from_requests(requests)
    assert profile.count == 5
    assert profile.rate == pytest.approx(2.0)
    assert profile.last_arrival_s == pytest.approx(2.0)


def test_arrival_profile_simultaneous_is_infinite_rate():
    requests = [Request(index=i, arrival=0.0) for i in range(4)]
    profile = ArrivalProfile.from_requests(requests)
    assert math.isinf(profile.rate)
    assert profile.last_arrival_s == 0.0


def test_arrival_profile_rejects_empty():
    with pytest.raises(PlanningError):
        ArrivalProfile.from_requests([])


# -- analytic scorer ------------------------------------------------------


def make_scorer():
    # Two kinds: a fast 4-instance shard (1 ms/image) and a slow
    # single-instance one (10 ms/image).
    return AnalyticPlanScorer(
        service_seconds=[1e-3, 10e-3],
        instances=[4, 1],
        weights=[4.0, 1.0],
    )


def test_batch_service_table():
    scorer = make_scorer()
    table = scorer.batch_service_seconds(np.array([1, 4, 5]))
    # ceil(batch / NI) rounds of the per-image time.
    expected = np.array(
        [[1e-3, 10e-3], [1e-3, 40e-3], [2e-3, 50e-3]]
    )
    np.testing.assert_allclose(table, expected)


def test_score_prunes_service_floor():
    scorer = make_scorer()
    profile = ArrivalProfile(count=10, rate=100.0, last_arrival_s=0.09)
    counts = np.array([[0, 1], [1, 0]])
    batches = np.array([1, 1])
    # SLO below even the fast kind's one service round: both pruned.
    scores = scorer.score(counts, batches, profile, slo_p99_s=0.5e-3)
    assert list(scores.pruned) == [1, 1]
    # SLO between the two floors: only the slow-only plan is pruned.
    scores = scorer.score(counts, batches, profile, slo_p99_s=2e-3)
    assert list(scores.pruned) == [1, 0]
    assert math.isnan(scores.p99_s[0])
    assert np.isfinite(scores.p99_s[1])


def test_score_prunes_capacity_backlog():
    scorer = make_scorer()
    # 1000 requests in 10 ms at 100k req/s against a plan capping out
    # at 4000 img/s: the backlog bound forces p99 >= ~0.24 s.
    profile = ArrivalProfile(
        count=1000, rate=100_000.0, last_arrival_s=0.01
    )
    counts = np.array([[1, 0]])
    batches = np.array([4])
    scores = scorer.score(counts, batches, profile, slo_p99_s=0.1)
    assert list(scores.pruned) == [2]
    # A generous SLO keeps it (pruning is a proof, not a preference).
    scores = scorer.score(counts, batches, profile, slo_p99_s=10.0)
    assert list(scores.pruned) == [0]


def test_score_surrogate_columns_finite_when_stable():
    scorer = make_scorer()
    profile = ArrivalProfile(count=100, rate=500.0, last_arrival_s=0.2)
    counts = np.array([[1, 0], [1, 2]])
    batches = np.array([4, 4])
    scores = scorer.score(
        counts, batches, profile, slo_p99_s=1.0, max_wait_s=1e-3
    )
    assert list(scores.pruned) == [0, 0]
    assert np.all(np.isfinite(scores.p99_s))
    assert np.all(scores.utilisation < 1.0)
    # Billing: weights x makespan; the mixed plan fields weight 6.
    assert scores.billed_weight == pytest.approx([4.0, 6.0])
    # Fill wait is capped by max_wait_s.
    assert np.all(scores.fill_wait_s <= 1e-3 + 1e-12)


def test_score_rejects_bad_shapes():
    scorer = make_scorer()
    profile = ArrivalProfile(count=10, rate=10.0, last_arrival_s=1.0)
    with pytest.raises(PlanningError):
        scorer.score(
            np.array([[1]]), np.array([1]), profile, slo_p99_s=1.0
        )
    with pytest.raises(PlanningError):
        scorer.score(
            np.array([[1, 1]]), np.array([1, 2]), profile, slo_p99_s=1.0
        )
    with pytest.raises(PlanningError, match="zero shards"):
        scorer.score(
            np.array([[0, 0]]), np.array([1]), profile, slo_p99_s=1.0
        )
    with pytest.raises(PlanningError):
        scorer.score(
            np.array([[1, 0]]), np.array([1]), profile, slo_p99_s=0.0
        )


# -- plan options ---------------------------------------------------------


def test_plan_options_requires_exactly_one_workload():
    with pytest.raises(PlanningError, match="exactly one workload"):
        PlanOptions(slo_p99_s=1e-3)
    with pytest.raises(PlanningError, match="exactly one workload"):
        PlanOptions(slo_p99_s=1e-3, rate=10.0, trace="t.csv")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(slo_p99_s=0.0, rate=1.0),
        dict(slo_p99_s=1e-3, rate=-1.0),
        dict(slo_p99_s=1e-3, rate=1.0, requests=0),
        dict(slo_p99_s=1e-3, rate=1.0, traffic="nope"),
        dict(slo_p99_s=1e-3, rate=1.0, top_k=0),
        dict(slo_p99_s=float("inf"), rate=1.0),
        dict(slo_p99_s=1e-3, rate=1.0, jobs=0),
        dict(slo_p99_s=1e-3, rate=1.0, policy="nope"),
        dict(slo_p99_s=1e-3, rate=1.0, max_wait_s=-1.0),
        dict(slo_p99_s=1e-3, trace="t.csv", trace_scale=0.0),
        dict(slo_p99_s=1e-3, trace="t.csv", trace_loop=0),
        dict(slo_p99_s=1e-3, rate=1.0, event_budget=0),
    ],
)
def test_plan_options_validation(kwargs):
    with pytest.raises(PlanningError):
        PlanOptions(**kwargs)


# -- end-to-end driver ----------------------------------------------------

DEVICES_SMALL = "vu9p:0..2+pynq-z1:0..3"


def small_options(**overrides):
    kwargs = dict(
        slo_p99_s=200e-6,
        rate=900_000.0,
        requests=64,
        top_k=3,
        batch_options=(1, 6),
    )
    kwargs.update(overrides)
    return PlanOptions(**kwargs)


@pytest.fixture(scope="module")
def small_plan():
    return plan_capacity("tiny_cnn", DEVICES_SMALL, small_options())


def test_plan_capacity_report_shape(small_plan):
    report = small_plan.to_dict()
    assert report["plan_count"] == len(small_plan.grid)
    assert report["pruned"].keys() <= {"service-floor", "capacity-backlog"}
    assert len(report["finalists"]) == 3
    winner = report["winner"]
    assert winner == report["finalists"][0]
    assert set(winner["counts"]) == {"vu9p", "pynq-z1"}
    replay = winner["replay"]
    assert replay["served"] == 64
    assert replay["slo_ok"] is True
    assert report["slo_met"] is True
    assert report["plans_per_second"] > 0
    # The trajectory summary fields ride at top level.
    for key in ("count", "p99_latency_s", "shard_seconds",
                "plans_per_second"):
        assert key in report
    # JSON-serialisable as-is (the CLI dumps it verbatim).
    json.dumps(report)


def test_plan_capacity_winner_is_replay_ranked(small_plan):
    rows = small_plan.finalists
    keys = [
        (
            0 if row["replay"]["slo_ok"] else 1,
            row["replay"]["billed_shard_seconds"],
            row["replay"]["p99_latency_s"],
            row["plan"],
        )
        for row in rows
    ]
    assert keys == sorted(keys)


def test_plan_capacity_surrogate_alongside(small_plan):
    for row in small_plan.finalists:
        surrogate = row["surrogate"]
        assert surrogate["p99_s"] > 0
        assert 0 <= surrogate["utilisation"] < 1.0


def test_plan_capacity_autoscaler_settings(small_plan):
    auto = small_plan.autoscaler_settings()
    total = sum(small_plan.winner["counts"].values())
    assert 1 <= auto["min_shards"] <= auto["max_shards"] == total
    assert auto["target_p99_s"] == small_plan.options.slo_p99_s
    assert auto["max_batch"] == small_plan.winner["max_batch"]
    assert auto["policy"] == "shortest-latency"


def test_plan_capacity_describe(small_plan):
    text = small_plan.describe()
    assert "tier A" in text and "tier B" in text
    assert "winner" in text
    assert "autoscaler" in text


def test_plan_capacity_process_matches_serial(small_plan):
    serial = small_plan.to_dict()
    process = plan_capacity(
        "tiny_cnn",
        DEVICES_SMALL,
        small_options(jobs=4),
    ).to_dict()
    for report in (serial, process):
        report.pop("timings")
        report.pop("plans_per_second")
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        process, sort_keys=True
    )


def test_plan_capacity_trace_workload(tmp_path, small_plan):
    trace = tmp_path / "trace.csv"
    arrivals = [index / 900_000.0 for index in range(64)]
    trace.write_text(
        "timestamp\n" + "\n".join(f"{value:.9f}" for value in arrivals)
    )
    report = plan_capacity(
        "tiny_cnn",
        DEVICES_SMALL,
        small_options(rate=None, trace=str(trace)),
    )
    assert "trace" in report.workload
    assert report.profile.count == 64
    assert report.winner["replay"]["served"] == 64


def test_plan_capacity_unsatisfiable_slo_raises():
    with pytest.raises(PlanningError, match="provably infeasible"):
        plan_capacity(
            "tiny_cnn",
            DEVICES_SMALL,
            small_options(slo_p99_s=1e-9),
        )


def test_plan_capacity_store_warms_each_kind(tmp_path):
    # zcu102 has no paper config: its kind runs a DSE (which looks
    # nothing up) and pins the selection, whose estimates must come back
    # warm from the store on the second plan.
    from repro.pipeline import EvaluationCache

    options = small_options(rate=20_000.0, slo_p99_s=5e-3)
    plan_capacity("tiny_cnn", "zcu102:0..2", options, store=tmp_path)
    cache = EvaluationCache()
    report = plan_capacity(
        "tiny_cnn", "zcu102:0..2", options, cache=cache, store=tmp_path
    )
    assert report.slo_met
    stats = cache.stats
    assert stats.hits > 0
    assert stats.misses == 0


def test_plan_capacity_store_dir_under_a_file_fails_first(tmp_path,
                                                          monkeypatch):
    # Warming opens the store: a path that cannot be a directory fails
    # with its name before any kind is resolved.
    from repro.errors import ReproError
    from repro.planning import planner

    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_build(*args, **kwargs):
        raise AssertionError("a kind was built before the store failed")

    monkeypatch.setattr(planner.DeviceKind, "build", no_build)
    with pytest.raises(ReproError, match=str(blocker / "cache")):
        plan_capacity("tiny_cnn", "zcu102:0..2", small_options(),
                      store=blocker / "cache")
