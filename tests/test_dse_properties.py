"""Hypothesis properties of the DSE: the search must stay inside the
Table-2 constraint set, behave monotonically in its options, and —
since it always prunes — select what the brute force selects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import explore_hardware, run_dse
from repro.dse.space import DseOptions
from repro.errors import DseError
from repro.fpga import get_device
from repro.ir import NetworkBuilder, zoo
from repro.pipeline import EvaluationCache
from test_dse_oracle import outcome, scalar_run_dse


@settings(max_examples=10, deadline=None)
@given(
    device_name=st.sampled_from(["vu9p", "zcu102", "pynq-z1", "ku115"]),
    max_instances=st.one_of(st.none(), st.integers(1, 4)),
)
def test_candidates_respect_constraints(device_name, max_instances):
    device = get_device(device_name)
    candidates = explore_hardware(
        device, DseOptions(max_instances=max_instances)
    )
    assert candidates
    for cand in candidates:
        cfg = cand.cfg
        # Table 2's constraint set.
        assert cfg.pi >= cfg.po >= 1
        assert cfg.pt in (4, 6)
        assert cand.total.fits_in(device.resources)
        if max_instances is not None:
            assert cfg.instances <= max_instances
        # Consistency of the reported budgets.
        assert cand.total.dsps == cand.per_instance.dsps * cfg.instances


@settings(max_examples=6, deadline=None)
@given(cap=st.integers(1, 3))
def test_capping_instances_never_helps_throughput(cap):
    device = get_device("vu9p")
    net = zoo.tiny_cnn(input_size=32)
    capped = run_dse(device, net, DseOptions(max_instances=cap))
    free = run_dse(device, net, DseOptions())
    assert free.throughput_gops >= capped.throughput_gops - 1e-9


def test_bigger_buffers_never_hurt_latency():
    """Under the latency objective, larger on-chip buffers can only
    reduce group counts / widen the feasible mapping set.  (Under the
    throughput objective the comparison is not monotone: more BRAM per
    instance competes with instance count.)"""
    device = get_device("zcu102")
    net = zoo.vgg16(input_size=64, include_fc=False)
    small = run_dse(
        device, net,
        DseOptions(buffer_presets=(8192, 4096, 4096),
                   objective="latency"),
    )
    big = run_dse(
        device, net,
        DseOptions(buffer_presets=(32768, 16384, 16384),
                   objective="latency"),
    )
    assert big.estimate.latency <= small.estimate.latency * 1.0001


def test_dse_deterministic():
    device = get_device("pynq-z1")
    net = zoo.tiny_cnn(input_size=32)
    a = run_dse(device, net)
    b = run_dse(device, net)
    assert a.cfg == b.cfg
    assert [(m.layer_name, m.mode, m.dataflow) for m in a.mapping] == [
        (m.layer_name, m.mode, m.dataflow) for m in b.mapping
    ]
    assert a.estimate.latency == pytest.approx(b.estimate.latency)


@st.composite
def conv_stacks(draw):
    """Random 1-3 layer conv stacks: kernel 1/3/5 ("same" padding),
    stride 1/2, an optional max-pool and an optional dense tail."""
    size = draw(st.integers(4, 32))
    builder = NetworkBuilder(
        "random", input_shape=(draw(st.integers(1, 64)), size, size)
    )
    for _ in range(draw(st.integers(1, 3))):
        kernel = draw(st.sampled_from([1, 3, 5]))
        stride = draw(st.sampled_from([1, 2]))
        builder.conv2d(draw(st.integers(1, 128)), kernel_size=kernel,
                       stride=stride, padding=kernel // 2, relu=True)
        size = (size - 1) // stride + 1
    if size >= 2 and draw(st.booleans()):
        builder.maxpool2d(2)
    if draw(st.booleans()):
        builder.flatten().dense(draw(st.integers(1, 64)))
    return builder.build()


#: ``device -> max_instances``: pynq-z1's 18 candidates and VU9P's 26
#: single-instance ones.
MAX_INSTANCES = {"pynq-z1": None, "vu9p": 1}


@settings(max_examples=100, deadline=None)
@given(
    network=conv_stacks(),
    device_name=st.sampled_from(sorted(MAX_INSTANCES)),
    objective=st.sampled_from(["throughput", "latency"]),
    top_k=st.integers(1, 6),
)
def test_pruned_search_matches_brute_force(
    network, device_name, objective, top_k
):
    """Pruning cannot be switched off, so an inadmissible bound would
    change selections silently: on random networks the one search must
    rank like the brute force and count like the serial best-first
    branch-and-bound."""
    device = get_device(device_name)
    options = DseOptions(objective=objective, top_k=top_k,
                         max_instances=MAX_INSTANCES[device_name])
    cache = EvaluationCache()
    try:
        brute = scalar_run_dse(device, network, options, cache=cache,
                               prune=False)
    except DseError:
        with pytest.raises(DseError):
            run_dse(device, network, options)
        return
    best_first = scalar_run_dse(device, network, options, cache=cache,
                                best_first=True)
    result = run_dse(device, network, options)
    assert outcome(result, counts=False) == outcome(brute, counts=False)
    assert outcome(result) == outcome(best_first)
