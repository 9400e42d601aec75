"""Timing-only compiles (``pack_data=False``) read parameter shapes only.

A compile from a deferred ParameterSet must equal one from an eager
dict of the same values, simulate to the same cycles, and leave the set
undrawn.  Bad parameters still fail with CompileError.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.compiler.codegen import AccelStep
from repro.errors import CompileError
from repro.experiments.common import paper_session
from repro.ir import NetworkBuilder, zoo
from repro.mapping import NetworkMapping
from repro.runtime import HostRuntime, generate_parameters

TIMING_ONLY = CompilerOptions(quantize=True, pack_data=False)


def mixed_net():
    return (
        NetworkBuilder("mix", (3, 8, 8))
        .conv2d(8, padding=1, relu=True, name="c1")
        .maxpool2d(3, stride=2, name="p1")
        .flatten(name="fl")
        .dense(10, name="fc")
        .build()
    )


def eager(params):
    return {
        name: {key: value.copy() for key, value in params[name].items()}
        for name in params
    }


def simulate(compiled, device):
    runtime = HostRuntime(compiled, device, functional=False)
    shape = (
        compiled.input_spec.channels,
        compiled.input_spec.height,
        compiled.input_spec.width,
    )
    return runtime.infer(np.zeros(shape)).sim


def assert_same_compile(a, b) -> None:
    assert [type(s) for s in a.steps] == [type(s) for s in b.steps]
    for x, y in zip(a.steps, b.steps):
        if isinstance(x, AccelStep):
            assert x.program.to_bytes() == y.program.to_bytes()
            assert x.program.markers == y.program.markers
        else:
            assert x == y
    assert a.partitions == b.partitions
    assert a.fmaps == b.fmaps
    assert list(a.weights) == list(b.weights)
    for name, packed in a.weights.items():
        other = b.weights[name]
        assert packed.slots == other.slots
        assert packed.elems == other.elems
        assert packed.image.size == other.image.size == 0
    assert list(a.biases) == list(b.biases)
    for name, bias in a.biases.items():
        assert np.array_equal(bias, b.biases[name])
        assert not bias.any()  # timing-only bias images are zeros


@pytest.mark.parametrize(
    "net_factory, mode",
    [
        (zoo.tiny_cnn, "wino"),
        (zoo.tiny_cnn, "spat"),
        (zoo.tiny_mlp, "spat"),
        (mixed_net, "spat"),
    ],
    ids=["tiny_cnn-wino", "tiny_cnn-spat", "tiny_mlp", "conv-dense"],
)
def test_parameter_set_compiles_like_eager_dict(
    net_factory, mode, cfg_pt4, pynq
):
    net = net_factory()
    mapping = NetworkMapping.uniform(net, mode, "ws")
    deferred = generate_parameters(net, seed=5)
    plain = eager(generate_parameters(net, seed=5))
    a = compile_network(net, cfg_pt4, mapping, plain, TIMING_ONLY)
    b = compile_network(net, cfg_pt4, mapping, deferred, TIMING_ONLY)
    assert_same_compile(a, b)

    sim_a, sim_b = simulate(a, pynq), simulate(b, pynq)
    assert sim_a.cycles == sim_b.cycles
    assert sim_a.instructions == sim_b.instructions
    assert [(t.layer_name, t.cycles) for t in sim_a.layers] == [
        (t.layer_name, t.cycles) for t in sim_b.layers
    ]
    assert not deferred.drawn


def test_timing_only_matches_packed_timing(cfg_pt4, pynq):
    net = zoo.tiny_cnn()
    mapping = NetworkMapping.uniform(net, "wino", "ws")
    params = generate_parameters(net, seed=5)
    packed = compile_network(net, cfg_pt4, mapping, params)
    timing = compile_network(net, cfg_pt4, mapping, params, TIMING_ONLY)
    assert [s.program.to_bytes() for s in packed.steps] == [
        s.program.to_bytes() for s in timing.steps
    ]
    assert simulate(packed, pynq).cycles == simulate(timing, pynq).cycles


def test_session_simulate_never_draws_vgg16():
    session = paper_session("pynq-z1", zoo.vgg16())
    session.compiled()
    sim = session.simulate()
    assert sim.cycles > 0
    assert not session.parameters().drawn
    assert session.clone().parameters() is session.parameters()


class TestTimingOnlyErrors:
    @pytest.fixture
    def setup(self, cfg_pt4):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        return net, mapping, eager(generate_parameters(net))

    def compile(self, cfg, setup, params):
        net, mapping, _ = setup
        return compile_network(net, cfg, mapping, params, TIMING_ONLY)

    def test_missing_layer(self, cfg_pt4, setup):
        params = dict(setup[2])
        del params["conv2"]
        with pytest.raises(CompileError, match="missing weights.*conv2"):
            self.compile(cfg_pt4, setup, params)

    def test_wrong_kernel_shape(self, cfg_pt4, setup):
        params = setup[2]
        params["conv2"]["weights"] = np.zeros((16, 4, 3, 3))
        with pytest.raises(CompileError, match="conv2: kernels"):
            self.compile(cfg_pt4, setup, params)

    def test_wrong_kernel_rank(self, cfg_pt4, setup):
        params = setup[2]
        params["conv1"]["weights"] = np.zeros((8, 27))
        with pytest.raises(CompileError, match="not \\(K, C, R, S\\)"):
            self.compile(cfg_pt4, setup, params)

    def test_wrong_bias_length(self, cfg_pt4, setup):
        params = setup[2]
        params["conv3"]["bias"] = np.zeros(7)
        with pytest.raises(CompileError, match="bias has 7 entries"):
            self.compile(cfg_pt4, setup, params)

    def test_wrong_dense_size(self, cfg_pt4):
        net = zoo.tiny_mlp()
        params = eager(generate_parameters(net))
        params["fc2"]["weights"] = np.zeros((10, 31))
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        for options in (TIMING_ONLY, CompilerOptions()):
            with pytest.raises(CompileError, match="fc2: weights"):
                compile_network(net, cfg_pt4, mapping, params, options)
