"""Tests for repro.serving.events — the kernel, sources, closed loops."""

import random

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
    Arrival,
    BatchDone,
    BatcherOptions,
    ClosedLoopClientPool,
    DynamicBatcher,
    EventKernel,
    Flush,
    OpenLoopSource,
    PolicyTick,
    Request,
    ServingReport,
    ShardDown,
    ShardPool,
    ShardServer,
    ShardUp,
    WorkloadSpec,
    make_requests,
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


# -- kernel ----------------------------------------------------------------


class TestEventKernel:
    def test_orders_by_time_then_priority_then_sequence(self):
        kernel = EventKernel()
        seen = []
        for kind in (Arrival, Flush, PolicyTick, ShardDown):
            kernel.subscribe(
                kind, lambda _k, e: seen.append(type(e).__name__)
            )
        # Same instant: ShardDown(0) < PolicyTick(3) < Arrival(4) <
        # Flush(5); later instants strictly after.
        kernel.push(Flush(time=1.0))
        kernel.push(Arrival(time=1.0, request=Request(0, 1.0)))
        kernel.push(PolicyTick(time=1.0))
        kernel.push(ShardDown(time=1.0, shard="s"))
        kernel.push(Arrival(time=0.5, request=Request(1, 0.5)))
        assert kernel.run() == 5
        assert seen == [
            "Arrival", "ShardDown", "PolicyTick", "Arrival", "Flush",
        ]
        assert kernel.now == 1.0

    def test_same_type_same_time_pops_in_push_order(self):
        kernel = EventKernel()
        seen = []
        kernel.subscribe(
            Arrival, lambda _k, e: seen.append(e.request.index)
        )
        for index in (3, 1, 2):
            kernel.push(Arrival(time=0.0, request=Request(index, 0.0)))
        kernel.run()
        assert seen == [3, 1, 2]

    def test_push_into_the_past_rejected(self):
        kernel = EventKernel()
        kernel.push(Arrival(time=1.0, request=Request(0, 1.0)))
        kernel.run()
        with pytest.raises(ServingError):
            kernel.push(Arrival(time=0.5, request=Request(1, 0.5)))

    def test_cancel_skips_and_updates_pending(self):
        kernel = EventKernel()
        seen = []
        kernel.subscribe(Flush, lambda _k, e: seen.append(e.token))
        keep = kernel.push(Flush(time=0.0, token=1))
        drop = kernel.push(Flush(time=0.0, token=2))
        assert kernel.pending(Flush) == 2
        kernel.cancel(drop)
        kernel.cancel(drop)  # idempotent
        assert kernel.pending(Flush) == 1
        assert kernel.pending() == 1
        assert kernel.run() == 1
        assert seen == [1]
        assert keep.cancelled is False

    def test_handlers_can_push_followup_events(self):
        kernel = EventKernel()
        seen = []

        def chain(k, event):
            seen.append(event.time)
            if event.time < 3.0:
                k.push(PolicyTick(time=event.time + 1.0))

        kernel.subscribe(PolicyTick, chain)
        kernel.push(PolicyTick(time=0.0))
        kernel.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_event_budget_guards_runaway_loops(self):
        kernel = EventKernel()
        kernel.subscribe(
            PolicyTick, lambda k, e: k.push(PolicyTick(time=e.time))
        )
        kernel.push(PolicyTick(time=0.0))
        with pytest.raises(ServingError):
            kernel.run(max_events=100)


#: Every event kind, with its class priority — the ordering axis the
#: fast-path properties pin down.
EVENT_KINDS = (ShardDown, ShardUp, BatchDone, PolicyTick, Arrival, Flush)


def _make_event(kind, time):
    if kind is Arrival:
        return Arrival(time=time, request=Request(0, time))
    if kind in (ShardDown, ShardUp):
        return kind(time=time, shard="s")
    return kind(time=time)


class TestKernelOrderingProperties:
    """The same-instant batch pop / tuple-heap rewrite must be
    observationally identical to the one-pop-at-a-time kernel: events
    pop in (time, priority, push-sequence) order, always."""

    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]),
                st.integers(0, len(EVENT_KINDS) - 1),
            ),
            min_size=1,
            max_size=40,
        ),
        cancel_seed=st.integers(0, 2**16),
    )
    def test_pops_follow_time_priority_sequence(self, stream, cancel_seed):
        """Random pushes (heavy same-instant collisions) with a random
        cancellation subset pop exactly in the stable (time, priority)
        sort of the survivors."""
        kernel = EventKernel()
        seen = []
        order_of = {}
        for kind in EVENT_KINDS:
            kernel.subscribe(
                kind, lambda _k, e: seen.append(order_of[id(e)])
            )
        entries = []
        events = []
        for seq, (time, kind_index) in enumerate(stream):
            event = _make_event(EVENT_KINDS[kind_index], time)
            order_of[id(event)] = seq
            events.append(event)
            entries.append(kernel.push(event))
        rng = random.Random(cancel_seed)
        cancelled = {
            seq for seq in range(len(entries)) if rng.random() < 0.25
        }
        for seq in cancelled:
            kernel.cancel(entries[seq])
        survivors = [
            seq for seq in range(len(events)) if seq not in cancelled
        ]
        assert kernel.pending() == len(survivors)
        processed = kernel.run()
        assert processed == len(survivors)
        # Stable sort by (time, priority) == (time, priority, seq)
        # order, because sorted() preserves push order on ties.
        expected = sorted(
            survivors,
            key=lambda seq: (
                events[seq].time, type(events[seq]).priority
            ),
        )
        assert seen == expected
        assert kernel.pending() == 0
        assert kernel.events_processed == processed

    def test_same_instant_handler_push_interleaves_by_priority(self):
        """An event pushed by a handler at the *current* instant must
        still dispatch in priority order relative to events already
        popped into the same-instant batch."""
        kernel = EventKernel()
        seen = []

        def on_tick(k, event):
            seen.append("tick")
            k.push(Arrival(time=event.time, request=Request(9, event.time)))

        kernel.subscribe(PolicyTick, on_tick)
        kernel.subscribe(Arrival, lambda _k, e: seen.append("arrival"))
        kernel.subscribe(Flush, lambda _k, e: seen.append("flush"))
        kernel.push(Flush(time=1.0))
        kernel.push(PolicyTick(time=1.0))
        assert kernel.run() == 3
        # PolicyTick(3) first; its same-instant Arrival(4) beats the
        # pre-batched Flush(5).
        assert seen == ["tick", "arrival", "flush"]

    def test_same_instant_same_priority_followup_pops_last(self):
        """A handler-pushed event with the same time and priority gets
        a later sequence number, so it pops after the batched ones."""
        kernel = EventKernel()
        seen = []

        def on_flush(k, event):
            seen.append(event.token)
            if event.token == 1:
                k.push(Flush(time=event.time, token=3))

        kernel.subscribe(Flush, on_flush)
        kernel.push(Flush(time=1.0, token=1))
        kernel.push(Flush(time=1.0, token=2))
        kernel.run()
        assert seen == [1, 2, 3]

    def test_handler_can_cancel_batched_same_instant_event(self):
        """Cancellation must be honoured even for events already popped
        into the same-instant batch (the shard-failure path cancels
        in-flight completions exactly like this)."""
        kernel = EventKernel()
        seen = []
        handles = {}

        def on_down(k, _event):
            seen.append("down")
            k.cancel(handles["flush"])

        kernel.subscribe(ShardDown, on_down)
        kernel.subscribe(Flush, lambda _k, e: seen.append("flush"))
        handles["flush"] = kernel.push(Flush(time=1.0))
        kernel.push(ShardDown(time=1.0, shard="s"))
        assert kernel.run() == 1
        assert seen == ["down"]
        assert kernel.pending() == 0

    def test_report_carries_kernel_throughput(self):
        pool = ShardPool.replicate(make_session(), 1)
        report = ShardServer(pool).run(
            WorkloadSpec(traffic=make_requests("uniform", 8))
        )
        assert report.events_processed > 0
        assert report.wall_seconds > 0.0
        assert report.events_per_second > 0.0
        payload = report.to_dict()
        assert payload["events_processed"] == report.events_processed
        assert payload["events_per_second"] == pytest.approx(
            report.events_per_second
        )
        assert "events/s" in report.describe()

    def test_kernel_counters_excluded_from_report_equality(self):
        """Two runs of the same scenario compare equal even though the
        host wall clock differs."""
        fast = ServingReport(records=[], shards=[], total_ops=0,
                             events_processed=10, wall_seconds=0.5)
        slow = ServingReport(records=[], shards=[], total_ops=0,
                             events_processed=99, wall_seconds=9.0)
        assert fast == slow
        assert fast.events_per_second == pytest.approx(20.0)
        # Unmeasured reports stay NaN, like the other undefined rates.
        unmeasured = ServingReport(records=[], shards=[], total_ops=0)
        assert unmeasured.events_per_second != unmeasured.events_per_second


# -- batcher on the kernel -------------------------------------------------


def reference_batches(requests, max_batch, max_wait):
    """The pre-kernel batcher algorithm, kept as the oracle."""
    from collections import deque

    queue = deque()
    out = []

    def drain(at):
        batch = []
        while queue and len(batch) < max_batch and queue[0].arrival <= at:
            batch.append(queue.popleft())
        return batch

    for request in sorted(requests, key=lambda r: (r.arrival, r.index)):
        while queue and queue[0].arrival + max_wait < request.arrival:
            deadline = queue[0].arrival + max_wait
            out.append((deadline, drain(deadline)))
        queue.append(request)
        if len(queue) >= max_batch:
            out.append((request.arrival, drain(request.arrival)))
    while queue:
        deadline = queue[0].arrival + max_wait
        out.append((deadline, drain(deadline)))
    return out


class TestBatcherOnKernel:
    @pytest.mark.parametrize("max_batch,max_wait", [
        (1, 0.0), (3, 0.0), (3, 0.01), (8, 0.002), (64, 0.05),
    ])
    @pytest.mark.parametrize("model,kwargs", [
        ("uniform", {}),
        ("poisson", {"qps": 400.0, "seed": 5}),
        ("burst", {"qps": 300.0, "burst": 5}),
    ])
    def test_matches_pre_kernel_batcher(self, max_batch, max_wait,
                                        model, kwargs):
        """The kernel-driven batcher reproduces the inline algorithm
        flush for flush on every traffic shape."""
        requests = make_requests(model, 40, **kwargs)
        batcher = DynamicBatcher(
            BatcherOptions(max_batch=max_batch, max_wait_s=max_wait)
        )
        got = list(batcher.batches(requests))
        assert got == reference_batches(requests, max_batch, max_wait)

    def test_empty_stream_yields_nothing(self):
        assert list(DynamicBatcher().batches([])) == []


# -- sources ---------------------------------------------------------------


class TestOpenLoopSource:
    def test_rejects_empty(self):
        with pytest.raises(ServingError):
            OpenLoopSource([])

    def test_primes_sorted_arrivals(self):
        kernel = EventKernel()
        seen = []
        kernel.subscribe(
            Arrival, lambda _k, e: seen.append(e.request.index)
        )
        OpenLoopSource([
            Request(0, 2.0), Request(1, 1.0), Request(2, 1.0),
        ]).prime(kernel)
        kernel.run()
        assert seen == [1, 2, 0]


class TestClosedLoopClientPool:
    def test_validation(self):
        with pytest.raises(ServingError):
            ClosedLoopClientPool(clients=0, requests=4)
        with pytest.raises(ServingError):
            ClosedLoopClientPool(clients=1, requests=-1)
        with pytest.raises(ServingError):
            ClosedLoopClientPool(clients=1, requests=4, think_time_s=-1.0)
        with pytest.raises(ServingError):
            ClosedLoopClientPool(clients=1, requests=4,
                                 distribution="uniform")

    def test_serves_exactly_the_request_budget(self):
        pool = ShardPool.replicate(make_session(instances=2), 2)
        source = ClosedLoopClientPool(clients=3, requests=17,
                                      think_time_s=0.0, seed=4)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=source, policy="least-loaded",
            batcher=BatcherOptions(max_batch=2),
        ))
        assert report.count == 17
        assert [r.index for r in report.records] == list(range(17))

    def test_one_outstanding_request_per_client(self):
        pool = ShardPool.replicate(make_session(), 1)
        per_image = pool.shards[0].probe_seconds()
        think = 0.5 * per_image
        source = ClosedLoopClientPool(clients=2, requests=10,
                                      think_time_s=think, seed=4)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=source, batcher=BatcherOptions(max_batch=1)
        ))
        assert report.count == 10
        # At most 2 requests are ever in flight, and a client's next
        # arrival is exactly one think time after a completion.
        events = sorted(
            [(r.arrival, 1) for r in report.records]
            + [(r.completed, -1) for r in report.records]
        )
        outstanding = high_water = 0
        for _, delta in events:
            outstanding += delta
            high_water = max(high_water, outstanding)
        assert high_water <= 2
        completions = {r.completed for r in report.records}
        for record in report.records[2:]:
            assert any(
                record.arrival == pytest.approx(done + think)
                for done in completions
            )

    def test_closed_loop_run_is_deterministic(self):
        pool = ShardPool.replicate(make_session(instances=2), 2)
        server = ShardServer(pool)
        spec = WorkloadSpec(
            policy="least-loaded", batcher=BatcherOptions(max_batch=2)
        )
        source = ClosedLoopClientPool(
            clients=4, requests=20, think_time_s=1e-5,
            distribution="exponential", seed=9,
        )
        first = server.run(spec.with_traffic(source))
        # prime() resets per-run state.
        second = server.run(spec.with_traffic(source))
        assert first.records == second.records
        other = server.run(spec.with_traffic(ClosedLoopClientPool(
            clients=4, requests=20, think_time_s=1e-5,
            distribution="exponential", seed=10,
        )))
        assert other.records != first.records

    def test_zero_requests_gives_empty_report(self):
        pool = ShardPool.replicate(make_session(), 1)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=ClosedLoopClientPool(clients=2, requests=0)
        ))
        assert report.count == 0
        assert report.makespan_seconds == 0.0


# -- empty-report guards ---------------------------------------------------


class TestEmptyReport:
    def test_empty_report_is_well_formed(self):
        report = ServingReport(records=[], shards=[], total_ops=0,
                               shed=5)
        assert report.count == 0
        assert report.makespan_seconds == 0.0
        # Undefined rates are consistently NaN, defined counts are 0.
        assert report.images_per_second != report.images_per_second
        assert report.throughput_gops != report.throughput_gops  # NaN
        assert report.mean_latency != report.mean_latency
        assert report.mean_queue_seconds != report.mean_queue_seconds
        assert report.latency_percentile(99) != report.latency_percentile(99)
        text = report.describe()
        assert "0 requests" in text
        assert "5 shed" in text

    def test_mixed_traffic_types_rejected(self):
        with pytest.raises(ServingError):
            WorkloadSpec(
                traffic=[Request(0, 0.0), OpenLoopSource([Request(1, 0.0)])]
            )

    def test_multiple_sources_rejected(self):
        # Independent sources would mint colliding request indices and
        # cross-advance each other's clients — one source per run.
        with pytest.raises(ServingError):
            WorkloadSpec(traffic=[
                ClosedLoopClientPool(clients=1, requests=2, seed=1),
                ClosedLoopClientPool(clients=1, requests=2, seed=2),
            ])
