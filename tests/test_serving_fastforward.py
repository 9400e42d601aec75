"""Oracle tests for the fast-forward replay engine.

The event kernel is the oracle: on every eligible configuration the
fast-forward recurrence must reproduce its :class:`ServingReport`
field for field (wall-clock perf fields use the *equivalent* event
count, asserted explicitly since they are ``compare=False``), and on
every ineligible configuration ``engine="auto"`` must quietly select
the kernel.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    ENGINES,
    BatcherOptions,
    Request,
    ShardPool,
    ShardServer,
    TraceSource,
    WorkloadSpec,
    ineligible_reason,
    make_requests,
    parse_scenario,
    percentile,
)
from repro.serving.autoscaler import AutoscalerOptions
from repro.serving.fastforward import _Dispatch, _form_batches
from repro.serving.scheduler import POLICIES
from repro.serving.slo import SloOptions
from repro.serving.traffic import ClosedLoopClientPool

#: Report keys that measure the host, not the modeled system — the
#: only ones the two engines may legitimately disagree on.
WALL_KEYS = (
    "events_processed",
    "wall_seconds",
    "events_per_second",
    "replay_requests_per_second",
)


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


@pytest.fixture(scope="module")
def session():
    return make_session(instances=2)


@pytest.fixture(scope="module")
def pools(session):
    """Replicated pools and ``ShardPool.of`` pools mixing 1- and
    2-instance designs and two clock rates (runs reset the timelines,
    so tests share them)."""
    single = make_session(instances=1)
    return {
        "replicated-1": ShardPool.replicate(session, 1),
        "replicated-2": ShardPool.replicate(session, 2),
        "replicated-3": ShardPool.replicate(session, 3),
        "mixed-2": ShardPool.of(single, session),
        "mixed-3": ShardPool.of(
            session, make_session(instances=1, frequency=150.0), single
        ),
    }


def post_run_state(server):
    """What a run leaves behind: busy horizons (bit for bit) and the
    policy's rotation."""
    rotation = getattr(server.scheduler.policy, "_next", None)
    return (
        [shard.busy_until.hex() for shard in server.pool],
        dict(rotation) if isinstance(rotation, dict) else rotation,
    )


def comparable(report):
    return {
        key: value for key, value in report.to_dict().items()
        if key not in WALL_KEYS
    }


def serve_both(server, spec):
    """The same workload on both engines; returns (kernel, fast) once
    both runs left the pool and policy in the same state."""
    kernel = server.run(replace(spec, engine="kernel"))
    assert server.last_engine == "kernel"
    kernel_state = post_run_state(server)
    fast = server.run(replace(spec, engine="fastforward"))
    assert server.last_engine == "fastforward"
    assert post_run_state(server) == kernel_state
    return kernel, fast


class TestByteIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        pool_name=st.sampled_from(
            ["replicated-1", "replicated-2", "replicated-3",
             "mixed-2", "mixed-3"]
        ),
        load=st.one_of(
            st.just(0.005), st.floats(min_value=0.3, max_value=3.0)
        ),
        count=st.integers(min_value=40, max_value=3000),
        max_batch=st.integers(min_value=1, max_value=6),
        wait_us=st.sampled_from([0.0, 50.0, 500.0, 2000.0]),
        kind=st.sampled_from(
            ["uniform", "fixed-qps", "poisson", "burst"]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fastforward_equals_kernel(
        self, pools, policy, pool_name, load, count, max_batch, wait_us,
        kind, seed,
    ):
        """Idle pools through 3x overload (loads are multiples of the
        pool's simulated capacity): loaded runs span many speculative
        windows, misses and scalar chunks."""
        pool = pools[pool_name]
        spec = WorkloadSpec(
            traffic=make_requests(
                kind, count, qps=load * pool.simulated_images_per_second(),
                seed=seed, burst=5,
            ),
            policy=policy,
            batcher=BatcherOptions(
                max_batch=max_batch, max_wait_s=wait_us * 1e-6
            ),
        )
        kernel, fast = serve_both(ShardServer(pool), spec)
        # Dataclass equality covers records, usage, counters and
        # shard_seconds; the wall fields are compare=False, so the
        # equivalent event count gets its own assertion.
        assert fast == kernel
        assert fast.events_processed == kernel.events_processed
        assert comparable(fast) == comparable(kernel)

    #: CI's benchmark job runs this matrix with ``REPRO_FULL_ORACLE=1
    #: pytest -m slow tests/test_serving_fastforward.py``.
    @pytest.mark.slow
    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="20k-request oracle matrix: set REPRO_FULL_ORACLE=1",
    )
    @pytest.mark.parametrize("wait_us", [0.0, 50.0])
    @pytest.mark.parametrize("pool_name", ["replicated-3", "mixed-3"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("load", [0.5, 1.0, 2.0])
    def test_large_runs_equal_kernel(
        self, pools, load, policy, pool_name, wait_us
    ):
        pool = pools[pool_name]
        spec = WorkloadSpec(
            traffic=make_requests(
                "poisson", 20_000,
                qps=load * pool.simulated_images_per_second(), seed=20,
            ),
            policy=policy,
            batcher=BatcherOptions(max_batch=4, max_wait_s=wait_us * 1e-6),
        )
        kernel, fast = serve_both(ShardServer(pool), spec)
        assert fast == kernel
        assert fast.events_processed == kernel.events_processed
        assert comparable(fast) == comparable(kernel)

    def test_trace_source_replays_identically(self, session):
        server = ShardServer(ShardPool.replicate(session, 2))
        arrivals = [0.0, 0.0, 1e-4, 2.5e-4, 2.5e-4, 2.5e-4, 9e-4]
        spec = WorkloadSpec(
            traffic=TraceSource(arrivals, time_scale=0.5, loop=3),
            batcher=BatcherOptions(max_batch=3),
        )
        kernel, fast = serve_both(server, spec)
        assert fast == kernel
        assert fast.events_processed == kernel.events_processed

    def test_post_run_state_mirrors_kernel(self, session):
        pool = ShardPool.replicate(session, 2)
        server = ShardServer(pool)
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 17, qps=800.0, seed=4),
            batcher=BatcherOptions(max_batch=2),
        )
        server.run(replace(spec, engine="kernel"))
        kernel_busy = [shard.busy_until for shard in pool]
        kernel_next = server.scheduler.policy._next
        server.run(replace(spec, engine="fastforward"))
        assert [shard.busy_until for shard in pool] == kernel_busy
        assert server.scheduler.policy._next == kernel_next

    def test_event_budget_error_matches_kernel(self, session):
        server = ShardServer(ShardPool.replicate(session, 2))
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 30, qps=500.0, seed=1),
            batcher=BatcherOptions(max_batch=4),
            max_events=20,
        )
        with pytest.raises(ServingError) as kernel_error:
            server.run(replace(spec, engine="kernel"))
        with pytest.raises(ServingError) as fast_error:
            server.run(replace(spec, engine="fastforward"))
        assert str(fast_error.value) == str(kernel_error.value)


def dispatch(pool, mode, arrivals, max_batch, max_wait_s, scalar=False):
    """Shard choices and starts from the windowed scan, or from the
    scalar step alone (the scan's own reference)."""
    _heads, sizes, flush_times = _form_batches(
        np.asarray(arrivals, dtype=np.float64), max_batch, max_wait_s
    )
    scan = _Dispatch(mode, flush_times, sizes, pool.shards)
    if scalar:
        scan.steps(0, len(sizes))
        return scan
    return scan.run()


#: The scan's policy arithmetic modes (weighted-fair runs as
#: round-robin over the trivial tenant set).
MODES = ("round-robin", "least-loaded", "shortest-latency")


class TestSpeculation:
    """The windowed scan against the scalar step it replaces, and the
    speculation's coverage where the pool is backlogged."""

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        pool_name=st.sampled_from(
            ["replicated-2", "replicated-3", "mixed-2", "mixed-3"]
        ),
        load=st.floats(min_value=0.3, max_value=3.0),
        count=st.integers(min_value=500, max_value=6000),
        max_batch=st.integers(min_value=1, max_value=6),
        wait_us=st.sampled_from([0.0, 50.0, 500.0]),
        kind=st.sampled_from(["fixed-qps", "poisson", "burst"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_windows_equal_scalar_steps(
        self, pools, mode, pool_name, load, count, max_batch, wait_us,
        kind, seed,
    ):
        pool = pools[pool_name]
        arrivals = [
            request.arrival for request in make_requests(
                kind, count, qps=load * pool.simulated_images_per_second(),
                seed=seed, burst=5,
            )
        ]
        args = (pool, mode, arrivals, max_batch, wait_us * 1e-6)
        scan, scalar = dispatch(*args), dispatch(*args, scalar=True)
        assert np.array_equal(scan.shard, scalar.shard)
        assert scan.start.tobytes() == scalar.start.tobytes()
        assert [value.hex() for value in scan.busy] == [
            value.hex() for value in scalar.busy
        ]

    @pytest.mark.parametrize("kind", ["uniform", "poisson"])
    @pytest.mark.parametrize("pool_name", ["replicated-2", "mixed-3"])
    @pytest.mark.parametrize("mode", MODES)
    def test_backlogged_runs_are_speculated(
        self, pools, mode, pool_name, kind
    ):
        """Past capacity nearly every batch is placed by a verified
        window.  ``uniform`` queues everything at t=0, so identical
        shards stay in lockstep and every choice is a tie the guess
        must break as the policies do (lowest shard index)."""
        pool = pools[pool_name]
        arrivals = [
            request.arrival for request in make_requests(
                kind, 4000, qps=3 * pool.simulated_images_per_second(),
                seed=3,
            )
        ]
        scan = dispatch(pool, mode, arrivals, 2, 0.0)
        assert scan.speculated >= 0.9 * len(scan.shard)


class TestCumsumFold:
    """Speculation is exact only because ``np.cumsum`` (``add.
    accumulate``) is the sequential left fold ``total += x``: the scan
    folds 1-D usage terms, horizons along axis 0 and projected
    instants along axis 1.  A numpy change to that order must fail
    here, not drift reports by an ulp.  (The builtin ``sum`` is no
    reference: Python 3.12 compensates it.)"""

    @staticmethod
    def fold(values):
        folded, total = [], None
        for value in values.tolist():
            total = value if total is None else total + value
            folded.append(total.hex())
        return folded

    @staticmethod
    def hexes(values):
        return [value.hex() for value in values.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=3000),
        cols=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spread=st.integers(min_value=0, max_value=30),
    )
    def test_cumsum_is_the_left_fold(self, rows, cols, seed, spread):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -spread, spread + 1, size=(rows, cols)
        )
        flat = data.ravel()
        assert self.hexes(np.cumsum(flat)) == self.fold(flat)
        down = np.cumsum(data, axis=0)
        across = np.cumsum(np.ascontiguousarray(data.T), axis=1)
        for j in range(cols):
            assert self.hexes(down[:, j]) == self.fold(data[:, j])
            assert self.hexes(across[j]) == self.fold(data[:, j])


def plain(traffic, **fields):
    """A plain open-loop workload unless ``fields`` add more."""
    return WorkloadSpec(
        traffic=traffic, batcher=BatcherOptions(max_batch=2), **fields
    )


class TestEligibility:
    def plain_server(self, session):
        return ShardServer(ShardPool.replicate(session, 2))

    def test_auto_selects_fastforward_on_plain_open_loop(self, session):
        server = self.plain_server(session)
        server.run(plain(make_requests("poisson", 8, qps=500.0)))
        assert server.last_engine == "fastforward"

    def test_explicit_kernel_forces_kernel(self, session):
        server = self.plain_server(session)
        server.run(plain(make_requests("poisson", 8, qps=500.0),
                         engine="kernel"))
        assert server.last_engine == "kernel"

    def test_closed_loop_selects_kernel(self, session):
        server = self.plain_server(session)
        server.run(plain(ClosedLoopClientPool(
            clients=2, requests=6, think_time_s=0.0
        )))
        assert server.last_engine == "kernel"

    def test_chaos_scenario_selects_kernel(self, session):
        server = self.plain_server(session)
        scenario = parse_scenario("kill:shard0@0.001,restore@0.002")
        server.run(plain(
            make_requests("poisson", 8, qps=500.0), scenario=scenario
        ))
        assert server.last_engine == "kernel"

    def test_slo_controller_selects_kernel(self, session):
        server = self.plain_server(session)
        server.run(plain(make_requests("poisson", 8, qps=500.0),
                         slo=SloOptions(p99_target_s=0.5)))
        assert server.last_engine == "kernel"

    def test_autoscaler_selects_kernel(self, session):
        server = self.plain_server(session)
        server.run(plain(
            make_requests("poisson", 8, qps=500.0),
            autoscale=AutoscalerOptions(
                min_shards=1, max_shards=2, target_utilisation=0.5,
            ),
        ))
        assert server.last_engine == "kernel"

    def test_forced_fastforward_on_ineligible_run_raises(self, session):
        server = self.plain_server(session)
        scenario = parse_scenario("kill:shard0@0.001,restore@0.002")
        with pytest.raises(ServingError, match="plain open-loop"):
            server.run(plain(
                make_requests("poisson", 8, qps=500.0),
                scenario=scenario,
                engine="fastforward",
            ))

    def test_unknown_engine_rejected(self, session):
        with pytest.raises(ServingError, match="unknown serve engine"):
            plain(make_requests("poisson", 4, qps=500.0), engine="warp")
        assert ENGINES == ("auto", "kernel", "fastforward")

    def test_ineligible_reason_spells_out_each_gate(self, session):
        server = self.plain_server(session)
        from repro.serving.traffic import OpenLoopSource

        open_loop = OpenLoopSource([Request(0, 0.0)])
        assert ineligible_reason(server, open_loop, None) is None
        assert "scenario" in ineligible_reason(
            server, open_loop, parse_scenario("kill:shard0@0.001")
        )
        closed = ClosedLoopClientPool(
            clients=1, requests=2, think_time_s=0.0
        )
        assert "open-loop" in ineligible_reason(server, closed, None)


class TestPercentileSelection:
    """The numpy.partition rewrite must reproduce the sorted-list
    nearest-rank values exactly."""

    @staticmethod
    def legacy(values, q):
        rank = max(1, math.ceil(q / 100 * len(values)))
        return sorted(values)[min(rank, len(values)) - 1]

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_sorted_nearest_rank(self, values, q):
        assert percentile(values, q) == self.legacy(values, q)

    def test_tied_samples(self):
        values = [3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0, 3.0]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(values, q) == self.legacy(values, q)

    def test_empty_sample_raises(self):
        with pytest.raises(ServingError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ServingError):
            percentile([1.0], 101)

    def test_nan_sample_keeps_legacy_sorted_semantics(self):
        values = [2.0, float("nan"), 1.0]
        for q in (0, 50, 100):
            result = percentile(values, q)
            expected = self.legacy(values, q)
            assert result == expected or (
                math.isnan(result) and math.isnan(expected)
            )


class TestServeCli:
    def test_profile_writes_top_cumulative_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "profile.json"
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "8",
            "--qps", "500", "--profile", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"profile written to {out}" in printed
        assert "engine: fastforward" in printed
        rows = json.loads(out.read_text())
        assert 0 < len(rows) <= 25
        assert set(rows[0]) == {
            "function", "file", "line", "ncalls",
            "primitive_calls", "tottime", "cumtime",
        }
        # Rows come ordered by descending cumulative time.
        cumtimes = [row["cumtime"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_engine_flag_forces_kernel(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "8",
            "--qps", "500", "--engine", "kernel",
        ])
        assert rc == 0
        assert "engine: kernel" in capsys.readouterr().out


class TestSingleTenantSummary:
    def test_export_selects_the_latency_column_once(
        self, session, monkeypatch
    ):
        """One served tenant holds the whole latency column, so its
        breakdown reuses the global summary: ``to_dict()`` runs one
        percentile selection on either engine, and the tenant's mean,
        p50 and p99 are the global ones bit for bit."""
        from repro.serving import metrics

        server = ShardServer(ShardPool.replicate(session, 2))
        spec = plain(make_requests("poisson", 400, qps=5000.0, seed=11))
        for report in serve_both(server, spec):
            calls = []
            selection = metrics.percentiles

            def counted(values, qs):
                calls.append(tuple(qs))
                return selection(values, qs)

            with monkeypatch.context() as patch:
                patch.setattr(metrics, "percentiles", counted)
                payload = report.to_dict()
            assert calls == [(50, 90, 99)]
            (tenant,) = payload["tenants"].values()
            assert tenant["count"] == payload["count"] == 400
            for stat in ("mean", "p50", "p99"):
                key = f"{stat}_latency_s"
                assert tenant[key].hex() == payload[key].hex()
