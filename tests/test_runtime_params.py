"""Tests for repro.runtime.params — the deferred ParameterSet.

The eager generator below is the pre-deferral implementation, kept
verbatim as the oracle: a ParameterSet must draw bit-identical values.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import zoo
from repro.ir.graph import Network
from repro.ir.layers import Conv2D, Dense
from repro.runtime import ParameterSet, generate_parameters
from repro.runtime.params import parameter_shapes


def eager_parameters(network: Network, seed: int = 2020,
                     scale: float = 1.0) -> Dict[str, dict]:
    rng = np.random.default_rng(seed)
    params: Dict[str, dict] = {}
    for info in network.compute_layers():
        layer = info.layer
        if isinstance(layer, Conv2D):
            r, s = layer.kernel_size
            fan_in = info.input_shape.channels * r * s
            shape = (layer.out_channels, info.input_shape.channels, r, s)
        elif isinstance(layer, Dense):
            fan_in = info.input_shape.size
            shape = (layer.out_features, fan_in)
        else:
            continue
        std = scale * np.sqrt(2.0 / fan_in)
        params[layer.name] = {
            "weights": rng.normal(0.0, std, size=shape),
            "bias": rng.normal(0.0, 0.05, size=shape[0]),
        }
    return params


def assert_same_values(params, oracle) -> None:
    assert list(params) == list(oracle)
    for name, entry in oracle.items():
        for key in ("weights", "bias"):
            got, want = params[name][key], entry[key]
            assert got.dtype == want.dtype, (name, key)
            assert np.array_equal(got, want), (name, key)


class TestOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        model=st.sampled_from(["tiny_cnn", "tiny_mlp"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 4.0),
    )
    def test_small_models_match_eager(self, model, seed, scale):
        net = zoo.get_model(model)
        assert_same_values(
            generate_parameters(net, seed=seed, scale=scale),
            eager_parameters(net, seed=seed, scale=scale),
        )

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 4.0))
    def test_alexnet_matches_eager(self, seed, scale):
        # A 67x67 input keeps AlexNet's layer kinds (11x11/5x5/3x3
        # convs, three Dense layers) at ~25M instead of ~61M values.
        net = zoo.alexnet(input_size=67)
        assert_same_values(
            generate_parameters(net, seed=seed, scale=scale),
            eager_parameters(net, seed=seed, scale=scale),
        )

    def test_read_order_does_not_matter(self):
        net = zoo.tiny_cnn()
        params = generate_parameters(net, seed=3)
        last = list(params)[-1]
        assert np.array_equal(
            params[last]["bias"], eager_parameters(net, seed=3)[last]["bias"]
        )


class TestDeferral:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
    def test_shapes_match_eager(self, model):
        net = zoo.get_model(model)
        params = generate_parameters(net)
        assert {name: params.shapes(name) for name in params} == {
            name: (entry["weights"].shape, entry["bias"].shape)
            for name, entry in eager_parameters(net).items()
        }
        assert not params.drawn

    def test_vgg16_shapes_without_drawing(self):
        params = generate_parameters(zoo.vgg16())
        assert params.shapes("conv1_1") == ((64, 3, 3, 3), (64,))
        assert params.shapes("fc6") == ((4096, 25088), (4096,))
        assert not params.drawn

    def test_membership_len_iteration_do_not_draw(self):
        params = generate_parameters(zoo.tiny_cnn())
        assert "conv1" in params and "pool1" not in params
        assert len(params) == 3
        assert list(params) == ["conv1", "conv2", "conv3"]
        assert list(params.keys()) == ["conv1", "conv2", "conv3"]
        assert not params.drawn

    def test_first_read_draws_exactly_once(self, monkeypatch):
        made = []
        real = np.random.default_rng

        def spy(seed):
            made.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        params = generate_parameters(zoo.tiny_cnn(), seed=9)
        assert made == []
        first = params["conv2"]["weights"]
        assert made == [9] and params.drawn
        assert params["conv2"]["weights"] is first
        assert params.get("conv1") is params["conv1"]
        assert len(dict(params.items())) == 3
        assert made == [9]

    def test_unknown_layer_is_key_error(self):
        params = generate_parameters(zoo.tiny_cnn())
        with pytest.raises(KeyError, match="nope"):
            params["nope"]
        with pytest.raises(KeyError):
            params.shapes("nope")
        assert params.get("nope") is None
        assert not params.drawn

    def test_read_only(self):
        params = generate_parameters(zoo.tiny_cnn())
        with pytest.raises(TypeError):
            params["conv1"] = {}
        assert isinstance(params, ParameterSet)


class TestParameterShapes:
    def test_parameter_set_reads_no_values(self):
        params = generate_parameters(zoo.tiny_mlp())
        assert parameter_shapes(params, "fc1") == ((32, 64), (32,))
        assert parameter_shapes(params, "missing") == (None, None)
        assert not params.drawn

    def test_plain_dict(self):
        params = {
            "a": {"weights": np.zeros((4, 3, 3, 3)), "bias": np.zeros(4)},
            "b": {"weights": np.zeros((2, 8))},
        }
        assert parameter_shapes(params, "a") == ((4, 3, 3, 3), (4,))
        assert parameter_shapes(params, "b") == ((2, 8), None)
        assert parameter_shapes(params, "c") == (None, None)
