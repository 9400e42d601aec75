"""Tests for kill/restore chaos runs + slo — failures and SLO control."""

import pytest

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    ClosedLoopClientPool,
    Kill,
    ShardPool,
    ShardServer,
    SloOptions,
    WorkloadSpec,
    make_requests,
    parse_scenario,
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


def workload(traffic, policy="round-robin", max_batch=None, **fields):
    """A :class:`WorkloadSpec` for ``traffic`` under ``policy``."""
    batcher = BatcherOptions(max_batch=max_batch) if max_batch else None
    return WorkloadSpec(
        traffic=traffic, policy=policy, batcher=batcher, **fields
    )


def kill(shard, at, restore_at=None):
    """Kill ``shard`` at ``at``, restoring it at ``restore_at``."""
    return ChaosScenario([Kill(shard, at, until=restore_at)])


# -- scenario validation at serve time --------------------------------------


class TestScenarioParse:
    def test_unknown_shard_rejected_at_serve(self):
        pool = ShardPool.replicate(make_session(), 2)
        server = ShardServer(pool)
        with pytest.raises(ServingError):
            server.run(workload(
                make_requests("uniform", 4), scenario=kill("shard9", 0.0)
            ))


# -- shard availability ----------------------------------------------------


class TestShardAvailability:
    def test_fail_and_restore(self):
        shard = ShardPool.replicate(make_session(), 1).shards[0]
        shard.busy_until = 1.0
        shard.fail()
        assert shard.up is False
        assert shard.busy_until == 0.0  # timeline wiped
        shard.restore()
        assert shard.up is True
        shard.fail()
        shard.reset()  # reset also brings the shard back
        assert shard.up is True


# -- failure injection -----------------------------------------------------


class TestFailureInjection:
    def test_kill_at_zero_routes_everything_to_survivor(self):
        pool = ShardPool.replicate(make_session(), 2)
        server = ShardServer(pool)
        requests = make_requests("uniform", 12)
        baseline = server.run(workload(requests, "least-loaded", 2))
        dead = server.run(workload(
            requests, "least-loaded", 2, scenario=kill("shard0", 0.0)
        ))
        assert dead.count == 12
        assert dead.per_shard()["shard0"].requests == 0
        assert dead.per_shard()["shard1"].requests == 12
        # Half the pool -> double the makespan on uniform traffic.
        assert dead.makespan_seconds == pytest.approx(
            2 * baseline.makespan_seconds
        )

    def test_mid_stream_kill_requeues_in_flight_work(self):
        pool = ShardPool.replicate(make_session(), 2)
        per_image = pool.shards[0].probe_seconds()
        requests = make_requests("uniform", 10)
        # 5 per shard, back to back; kill shard0 at 2.5 per-image
        # times: 2 of its singles completed, 3 are lost and re-served.
        scenario = kill("shard0", 2.5 * per_image)
        report = ShardServer(pool).run(
            workload(requests, max_batch=1, scenario=scenario)
        )
        assert report.count == 10
        usage = report.per_shard()
        assert usage["shard0"].requests == 2
        assert usage["shard1"].requests == 8
        # Re-served requests keep their original arrival: their
        # latency includes the lost work.
        assert report.makespan_seconds == pytest.approx(8 * per_image)
        for record in report.records:
            assert record.completed > record.arrival

    def test_restore_rebalances_under_least_loaded(self):
        pool = ShardPool.replicate(make_session(), 2)
        per_image = pool.shards[0].probe_seconds()
        # A long spaced stream; shard0 is down for an early window.
        requests = make_requests("fixed-qps", 20, qps=2.0 / per_image)
        scenario = kill("shard0", 2.5 * per_image, 5.5 * per_image)
        report = ShardServer(pool).run(workload(
            requests, "least-loaded", 1, scenario=scenario
        ))
        assert report.count == 20
        shares = report.per_shard()
        # The survivor hoards the downtime backlog; after the restore
        # least-loaded floods the fresh shard with the remaining
        # arrivals, so both end up with a nontrivial share.
        assert shares["shard0"].requests >= 6
        assert shares["shard1"].requests >= 6
        by_shard_post = [
            r.shard for r in report.records
            if r.dispatched >= 5.5 * per_image
        ]
        assert "shard0" in by_shard_post

    def test_whole_pool_down_parks_batches_until_restore(self):
        pool = ShardPool.replicate(make_session(), 1)
        per_image = pool.shards[0].probe_seconds()
        down_for = 10 * per_image
        scenario = kill("shard0", 0.0, down_for)
        report = ShardServer(pool).run(workload(
            make_requests("uniform", 4), max_batch=4, scenario=scenario
        ))
        # Batches parked during the outage dispatch at the restore
        # instant; latency accounts the downtime.
        assert report.count == 4
        record = report.records[0]
        assert record.started == pytest.approx(down_for)
        assert record.latency >= down_for

    def test_never_restored_pool_strands_requests_accountably(self):
        pool = ShardPool.replicate(make_session(), 1)
        report = ShardServer(pool).run(workload(
            make_requests("uniform", 4), scenario=kill("shard0", 0.0)
        ))
        # Nothing completes, but nothing vanishes either: the parked
        # requests are reported as unserved.
        assert report.count == 0
        assert report.unserved == 4
        assert report.makespan_seconds == 0.0
        assert "nothing completed" in report.describe()
        assert "4 stranded" in report.describe()

    def test_failure_run_is_deterministic(self):
        pool = ShardPool.replicate(make_session(), 3)
        per_image = pool.shards[0].probe_seconds()
        server = ShardServer(pool)
        requests = make_requests("poisson", 30, qps=2.0 / per_image,
                                 seed=13)
        scenario = parse_scenario(
            f"kill:shard1@{3 * per_image},restore@{9 * per_image}"
        )
        spec = workload(requests, "least-loaded", 2, scenario=scenario)
        first = server.run(spec)
        second = server.run(spec)
        assert first.records == second.records
        assert first.shards == second.shards

    def test_usage_counts_only_completed_work(self):
        pool = ShardPool.replicate(make_session(), 2)
        per_image = pool.shards[0].probe_seconds()
        scenario = kill("shard0", 1.5 * per_image)
        report = ShardServer(pool).run(workload(
            make_requests("uniform", 8), max_batch=1, scenario=scenario
        ))
        usage = report.per_shard()
        # Busy time never exceeds the completed work's span.
        assert usage["shard0"].busy_seconds == pytest.approx(per_image)
        assert (
            usage["shard0"].requests + usage["shard1"].requests == 8
        )


# -- SLO control -----------------------------------------------------------


class TestSloOptions:
    def test_validation(self):
        with pytest.raises(ServingError):
            SloOptions(p99_target_s=0.0)
        with pytest.raises(ServingError):
            SloOptions(p99_target_s=0.1, action="panic")
        with pytest.raises(ServingError):
            SloOptions(p99_target_s=0.1, window=2, min_samples=4)
        with pytest.raises(ServingError):
            SloOptions(p99_target_s=0.1, min_samples=0)
        with pytest.raises(ServingError):
            SloOptions(p99_target_s=0.1, tick_s=0.0)
        assert SloOptions(p99_target_s=0.1).effective_tick_s == 0.05
        assert SloOptions(p99_target_s=0.1, tick_s=0.02
                          ).effective_tick_s == 0.02


class TestSloControl:
    def test_shed_under_overload(self):
        pool = ShardPool.replicate(make_session(), 2)
        per_image = pool.shards[0].probe_seconds()
        slo = SloOptions(p99_target_s=3 * per_image, window=8,
                         min_samples=2)
        server = ShardServer(pool)
        requests = make_requests("fixed-qps", 80, qps=6.0 / per_image)
        report = server.run(workload(requests, "least-loaded", 1, slo=slo))
        assert report.shed > 0
        assert report.count + report.shed == 80
        assert report.rerouted == 0
        assert "shed" in report.describe()
        controller = server.last_slo_controller
        assert controller is not None
        assert controller.breach_ticks > 0
        assert "p99 target" in controller.describe()
        # Shedding keeps the *served* tail near the target while an
        # uncontrolled run blows far past it.
        uncontrolled = ShardServer(pool).run(
            workload(requests, "least-loaded", 1)
        )
        assert (
            report.latency_percentile(99)
            < uncontrolled.latency_percentile(99)
        )

    def test_reroute_overrides_blind_policy_on_slow_shard(self):
        fast = make_session(frequency=100.0)
        slow = make_session(frequency=25.0)
        pool = ShardPool.of(fast, slow, names=("fast", "slow"))
        per_image = pool.shards[0].probe_seconds()
        slo = SloOptions(p99_target_s=4 * per_image, action="reroute",
                         window=8, min_samples=2)
        requests = make_requests("fixed-qps", 60, qps=3.0 / per_image)
        report = ShardServer(pool).run(
            workload(requests, max_batch=1, slo=slo)
        )
        blind = ShardServer(pool).run(workload(requests, max_batch=1))
        assert report.rerouted > 0
        assert report.shed == 0
        assert report.count == 60
        # Rerouting shifts load from the slow shard to the fast one.
        assert (
            report.per_shard()["fast"].requests
            > blind.per_shard()["fast"].requests
        )

    def test_shed_does_not_stall_closed_loop_clients(self):
        pool = ShardPool.replicate(make_session(), 1)
        per_image = pool.shards[0].probe_seconds()
        slo = SloOptions(p99_target_s=2 * per_image, window=4,
                         min_samples=1, tick_s=0.5 * per_image)
        source = ClosedLoopClientPool(clients=6, requests=30,
                                      think_time_s=0.0, seed=2)
        # Terminates: sheds unblock clients.
        report = ShardServer(pool).run(
            workload(source, max_batch=1, slo=slo)
        )
        assert report.count + report.shed == 30

    def test_slo_run_is_deterministic(self):
        pool = ShardPool.replicate(make_session(), 2)
        per_image = pool.shards[0].probe_seconds()
        slo = SloOptions(p99_target_s=3 * per_image, window=8,
                         min_samples=2)
        server = ShardServer(pool)
        requests = make_requests("poisson", 50, qps=5.0 / per_image,
                                 seed=21)
        spec = workload(requests, "least-loaded", 2, slo=slo)
        first = server.run(spec)
        second = server.run(spec)
        assert first.records == second.records
        assert first.shed == second.shed

    def test_quiet_system_never_breaches(self):
        pool = ShardPool.replicate(make_session(instances=2), 2)
        per_image = pool.shards[0].probe_seconds()
        slo = SloOptions(p99_target_s=100 * per_image)
        server = ShardServer(pool)
        report = server.run(workload(
            make_requests("fixed-qps", 20, qps=0.5 / per_image),
            "least-loaded", 2, slo=slo,
        ))
        assert report.shed == 0
        assert report.rerouted == 0
        assert report.count == 20
        assert server.last_slo_controller.breach_ticks == 0
