"""Tests for open-loop traffic as columns: the request stream, the
kernel's arrival cursor and ``BatchDone`` completions.

The former list constructions are kept here as oracles: the eager
prime (one ``kernel.push(Arrival(...))`` per request), the
``sorted(key=(arrival, tenant, index))`` merge and the per-request
traffic models.  The stream and the cursor must reproduce them exactly.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ServingError
from repro.serving import (
    Arrival,
    BatchDone,
    ClosedLoopClientPool,
    EventKernel,
    Flush,
    OpenLoopSource,
    PolicyTick,
    Request,
    RequestStream,
    ShardDown,
    ShardUp,
    TraceSource,
    make_requests,
    merge_streams,
    shaped_trace,
)
from repro.serving.tenancy import DEFAULT_TENANT
from repro.serving.traffic import FlashCrowd


def hexes(values):
    return [float(value).hex() for value in values]


def triples(requests):
    """``(index, arrival as float.hex, tenant)`` per request."""
    return [
        (request.index, request.arrival.hex(), request.tenant)
        for request in requests
    ]


# -- oracles: the former list constructions ---------------------------------


def eager_prime(kernel, requests):
    """The former ``OpenLoopSource.prime``: every arrival pushed up
    front, sorted by ``(arrival, index)``."""
    for request in sorted(requests, key=lambda r: (r.arrival, r.index)):
        kernel.push(Arrival(time=request.arrival, request=request))


def list_merge(*streams):
    """The former ``merge_streams``."""
    merged = sorted(
        (request for stream in streams for request in stream),
        key=lambda r: (r.arrival, r.tenant, r.index),
    )
    if not merged:
        raise ServingError("nothing to merge: every stream is empty")
    return [
        Request(index=index, arrival=request.arrival, tenant=request.tenant)
        for index, request in enumerate(merged)
    ]


def list_requests(model, count, qps=None, seed=2020, burst=8,
                  tenant=DEFAULT_TENANT):
    """The former ``make_requests``: one ``Request`` per arrival."""
    if model == "uniform":
        arrivals = [0.0] * count
    elif model == "fixed-qps":
        arrivals = [index / qps for index in range(count)]
    elif model == "poisson":
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(scale=1.0 / qps, size=count)
        arrivals = list(np.cumsum(gaps))
    else:
        arrivals = [(index // burst) * burst / qps for index in range(count)]
    return [
        Request(index=index, arrival=float(arrival), tenant=tenant)
        for index, arrival in enumerate(arrivals)
    ]


# -- the cursor against the eager prime -------------------------------------

#: Colliding instants: many ties, both signed zeros.
INSTANTS = [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0]

PRE_PRIMED = {
    "down": lambda t: ShardDown(time=t, shard="s0"),
    "up": lambda t: ShardUp(time=t, shard="s0"),
    "tick": lambda t: PolicyTick(time=t, owner="slo"),
    "done": lambda t: BatchDone(time=t, shard="s1", batch_size=1),
    "flush": lambda t: Flush(time=t, token=7),
}


def _payload(event):
    if isinstance(event, Arrival):
        request = event.request
        return (request.index, request.arrival.hex(), request.tenant)
    if isinstance(event, Flush):
        return event.token
    if isinstance(event, PolicyTick):
        return event.owner
    return getattr(event, "shard", None)


def _trace_run(prime, pre_primed, actions):
    """Run one kernel; returns everything observable about the run."""
    kernel = EventKernel()
    trace = []
    handles = []

    def record(k, event):
        trace.append((
            k.now.hex(), type(event).__name__, _payload(event),
            k.pending(), k.pending(Arrival),
        ))
        if isinstance(event, Arrival):
            index = event.request.index
            action = actions[index % len(actions)]
            if action == "requeue" and index < 1000:
                # A re-delivery at ``now`` under a fresh index.
                again = Request(index + 1000, event.request.arrival,
                                event.request.tenant)
                handles.append(k.push(Arrival(time=k.now, request=again)))
            elif action == "flush":
                handles.append(k.push(Flush(time=k.now, token=index)))
            elif action == "done":
                handles.append(k.push(BatchDone(
                    time=k.now, shard="s2", requests=(event.request,),
                    batch_size=1,
                )))
            elif action == "cancel" and handles:
                k.cancel(handles.pop(0))

    for kind in (Arrival, ShardDown, ShardUp, PolicyTick, BatchDone, Flush):
        kernel.subscribe(kind, record)
    for name, at in pre_primed:
        handles.append(kernel.push(PRE_PRIMED[name](at)))
    prime(kernel)
    processed = kernel.run()
    return trace, processed, kernel.events_processed, kernel.now.hex()


@settings(max_examples=150, deadline=None)
@given(
    arrivals=st.lists(st.sampled_from(INSTANTS), min_size=1, max_size=40),
    tenants=st.lists(st.sampled_from(["a", "b", DEFAULT_TENANT]),
                     min_size=1, max_size=3),
    pre_primed=st.lists(
        st.tuples(st.sampled_from(sorted(PRE_PRIMED)),
                  st.sampled_from(INSTANTS)),
        max_size=8,
    ),
    actions=st.lists(
        st.sampled_from(["none", "requeue", "flush", "done", "cancel"]),
        min_size=1, max_size=6,
    ),
    shuffle=st.randoms(use_true_random=False),
)
def test_cursor_dispatches_like_the_eager_prime(
    arrivals, tenants, pre_primed, actions, shuffle
):
    requests = [
        Request(index, arrival, tenants[index % len(tenants)])
        for index, arrival in enumerate(arrivals)
    ]
    shuffle.shuffle(requests)  # the source sorts by (arrival, index)
    source = OpenLoopSource(requests)
    cursor = _trace_run(source.prime, pre_primed, actions)
    eager = _trace_run(
        lambda kernel: eager_prime(kernel, requests), pre_primed, actions
    )
    assert cursor == eager


@settings(max_examples=40, deadline=None)
@given(
    arrivals=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                      min_size=1, max_size=20),
    loop=st.integers(min_value=1, max_value=3),
    tagged=st.booleans(),
)
def test_trace_prime_dispatches_like_the_eager_prime(arrivals, loop, tagged):
    tenants = [
        ("a", "b", DEFAULT_TENANT)[i % 3] for i in range(len(arrivals))
    ] if tagged else None
    source = TraceSource(arrivals, time_scale=0.5, loop=loop,
                         tenants=tenants)

    def former_prime(kernel):
        for request in source.requests():
            kernel.push(Arrival(time=request.arrival, request=request))

    assert _trace_run(source.prime, [], ["none"]) == _trace_run(
        former_prime, [], ["none"]
    )


class TestCursor:
    def test_counts_items_as_live_before_they_are_built(self):
        kernel = EventKernel()
        built = []

        def make(position, time):
            built.append(position)
            return Arrival(time, Request(position, time))

        kernel.push(PolicyTick(time=0.5))
        kernel.push_sorted([0.0, 0.0, 1.0], Arrival, make)
        assert kernel.pending() == 4
        assert kernel.pending(Arrival) == 3
        assert built == []  # nothing is built before its instant
        seen = []
        kernel.subscribe(Arrival, lambda k, e: seen.append(
            (e.time, k.pending(Arrival), list(built))
        ))
        assert kernel.run() == 4
        assert seen == [
            (0.0, 2, [0, 1]), (0.0, 1, [0, 1]), (1.0, 0, [0, 1, 2]),
        ]

    def test_reserves_the_eager_sequence_numbers(self):
        """An event pushed after the prime sorts after every cursor
        item of the same instant and priority, as it would have."""
        kernel = EventKernel()
        seen = []
        kernel.subscribe(Arrival, lambda _k, e: seen.append(e.request.index))
        kernel.push_sorted(
            [1.0, 1.0], Arrival, lambda i, t: Arrival(t, Request(i, t))
        )
        kernel.push(Arrival(time=1.0, request=Request(9, 1.0)))
        kernel.run()
        assert seen == [0, 1, 9]

    def test_rejects_unsorted_past_and_nan_times(self):
        def make(i, t):
            return Arrival(t, Request(i, t))

        with pytest.raises(ServingError, match="non-decreasing"):
            EventKernel().push_sorted([1.0, 0.5], Arrival, make)
        with pytest.raises(ServingError, match="non-decreasing"):
            EventKernel().push_sorted([0.0, math.nan], Arrival, make)
        kernel = EventKernel()
        kernel.push(Flush(time=2.0))
        kernel.run()
        with pytest.raises(ServingError, match="in the past"):
            kernel.push_sorted([1.0], Arrival, make)

    def test_one_cursor_at_a_time(self):
        kernel = EventKernel()
        kernel.push_sorted([0.0], Arrival, lambda i, t: None)
        with pytest.raises(ServingError, match="in use"):
            kernel.push_sorted([1.0], Arrival, lambda i, t: None)

    def test_push_rejects_a_nan_time(self):
        with pytest.raises(ServingError, match="in the past"):
            EventKernel().push(Flush(time=math.nan))


# -- the merge against the sorted-list merge --------------------------------

#: String order (Z < a < b < default < m) differs from first-seen order.
NAMES = ["m", "b", DEFAULT_TENANT, "Z", "a"]


@st.composite
def request_lists(draw):
    """One tenant's stream, or (``mixed``) a stream of several."""
    tenant = draw(st.sampled_from(NAMES))
    mixed = draw(st.booleans())
    items = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.sampled_from(INSTANTS) | st.floats(0.0, 3.0),
            st.sampled_from(NAMES),
        ),
        max_size=12,
    ))
    return [
        Request(index, arrival, name if mixed else tenant)
        for index, arrival, name in items
    ]


@settings(max_examples=100, deadline=None)
@given(streams=st.lists(request_lists(), min_size=1, max_size=4),
       as_streams=st.booleans())
def test_merge_equals_the_sorted_list_merge(streams, as_streams):
    if not any(streams):
        with pytest.raises(ServingError, match="every stream is empty"):
            merge_streams(*streams)
        return
    inputs = [
        RequestStream.of(stream) if as_streams else stream
        for stream in streams
    ]
    merged = merge_streams(*inputs)
    assert triples(merged) == triples(list_merge(*streams))


# -- each traffic model against the list construction -----------------------


@settings(max_examples=120, deadline=None)
@given(
    model=st.sampled_from(["uniform", "fixed-qps", "poisson", "burst"]),
    count=st.integers(min_value=1, max_value=400),
    qps=st.floats(min_value=1e-3, max_value=1e7)
    | st.integers(min_value=1, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    burst=st.integers(min_value=1, max_value=12),
    tenant=st.sampled_from([DEFAULT_TENANT, "bulk"]),
)
def test_models_equal_the_list_construction(
    model, count, qps, seed, burst, tenant
):
    stream = make_requests(model, count, qps=qps, seed=seed, burst=burst,
                           tenant=tenant)
    former = list_requests(model, count, qps=qps, seed=seed, burst=burst,
                           tenant=tenant)
    assert isinstance(stream, RequestStream)
    assert stream.indices.tolist() == [r.index for r in former]
    assert hexes(stream.arrivals.tolist()) == hexes(
        r.arrival for r in former
    )
    assert stream.tags.tolist() == [r.tenant for r in former]
    assert stream == former
    assert stream.tags.tenanted is (tenant != DEFAULT_TENANT)


# -- the stream itself -------------------------------------------------------


class TestRequestStream:
    def test_sequence_protocol(self):
        stream = merge_streams(
            make_requests("fixed-qps", 3, qps=10.0, tenant="a"),
            make_requests("fixed-qps", 2, qps=4.0, tenant="b"),
        )
        assert len(stream) == 5
        assert stream[0] == Request(0, 0.0, "a")
        assert stream[-1] == Request(4, 0.25, "b")
        assert stream[1:3] == [Request(1, 0.0, "b"), Request(2, 0.1, "a")]
        assert isinstance(stream[1:3], RequestStream)
        assert stream.tags.in_use == {"a", "b"}
        assert stream.tags.tenanted is True
        assert stream != make_requests("fixed-qps", 5, qps=10.0)
        with pytest.raises(IndexError):
            stream[5]

    def test_columns_are_read_only_even_after_pickling(self):
        stream = make_requests("poisson", 6, qps=100.0, tenant="x")
        copy = pickle.loads(pickle.dumps(stream))
        assert copy == stream
        for column in (stream.indices, stream.arrivals, copy.arrivals,
                       copy.indices):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_of_converts_lists_once(self):
        requests = [Request(1, 0.5, "a"), Request(0, 0.5)]
        stream = RequestStream.of(requests)
        assert stream == requests
        assert RequestStream.of(stream) is stream
        assert RequestStream.of([]) == []
        with pytest.raises(ServingError, match="Request list"):
            RequestStream.of([Request(0, 0.0), 3.0])

    def test_sorted_by_arrival_skips_a_sorted_stream(self):
        stream = make_requests("burst", 8, qps=100.0, burst=4)
        assert stream.sorted_by_arrival() is stream
        shuffled = RequestStream([2, 0, 1], [0.5, 0.5, 0.1])
        assert [r.index for r in shuffled.sorted_by_arrival()] == [1, 0, 2]


# -- non-finite inputs fail early -------------------------------------------


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_request_arrival(self, value):
        with pytest.raises(ServingError, match=f"got {value}"):
            Request(0, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_stream_columns(self, value):
        with pytest.raises(ServingError, match=f"request 7: .* got {value}"):
            RequestStream([3, 7], [0.0, value])

    @pytest.mark.parametrize("model", ["fixed-qps", "poisson", "burst"])
    @pytest.mark.parametrize("qps", [math.nan, math.inf, 0.0])
    def test_qps(self, model, qps):
        with pytest.raises(ServingError, match=f"got {qps}"):
            make_requests(model, 8, qps=qps)

    @pytest.mark.parametrize("think", [math.nan, math.inf])
    def test_think_time(self, think):
        with pytest.raises(ServingError, match=f"got {think}"):
            ClosedLoopClientPool(clients=2, requests=4, think_time_s=think)

    def test_serve_with_a_nan_qps_exits_nonzero(self, capsys):
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--traffic", "poisson", "--requests", "8", "--qps", "nan",
        ])
        assert rc != 0
        assert "qps must be positive and finite, got nan" in (
            capsys.readouterr().err
        )


# -- trace tags as codes -----------------------------------------------------


class TestTraceTags:
    def test_untagged_trace_keeps_no_per_arrival_tags(self):
        source = TraceSource([0.0, 1.0, 2.0], loop=4)
        assert source.tags.codes is None
        assert source.tags == [DEFAULT_TENANT] * 12
        assert source.tenanted is False

    def test_requests_share_the_arrival_column(self):
        source = TraceSource([0.0, 1.0, 2.0], loop=2,
                             tenants=["a", "b", "a"])
        stream = source.requests()
        assert np.shares_memory(stream.arrivals, source.arrivals)
        assert stream.tags is source.tags
        assert stream == [
            Request(i, a, t) for i, (a, t) in enumerate(
                zip(source.arrivals.tolist(), source.tags)
            )
        ]

    @pytest.mark.parametrize("tagged", [False, True])
    def test_shaped_trace_passes_the_codes_through(self, tagged):
        tenants = ["a", "b", "a", "c"] if tagged else None
        source = TraceSource([0.0, 0.004, 0.001, 0.01], loop=3,
                             tenants=tenants)
        shaped = shaped_trace(
            source, [FlashCrowd(amplitude=3.0, at=0.01, width_s=0.005)]
        )
        assert shaped.tags.codes is source.tags.codes
        assert shaped.tags.names == source.tags.names
        assert shaped.tags == source.tags
        assert shaped.tenanted is tagged
