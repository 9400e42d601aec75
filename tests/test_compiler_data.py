"""Tests for repro.compiler.data — weight packing and the offline
Winograd transform."""

import numpy as np
import pytest

from repro.arch.params import AcceleratorConfig
from repro.errors import CompileError
from repro.compiler.data import pack_bias, pack_weights
from repro.ir import zoo
from repro.ir.tensor import DataType
from repro.mapping.partition import partition_layer
from repro.winograd.matrices import get_algorithm
from repro.winograd.transforms import transform_weight


@pytest.fixture
def cfg():
    return AcceleratorConfig(
        pi=4, po=4, pt=6, input_buffer_vecs=8192,
        weight_buffer_vecs=4096, output_buffer_vecs=4096,
    )


def layer_setup(cfg, c=8, k=12, h=14, kernel=3, mode="wino"):
    net = zoo.single_conv(c, k, h, kernel, padding=kernel // 2)
    info = net.compute_layers()[0]
    part = partition_layer(cfg, info, mode)
    rng = np.random.default_rng(0)
    kernels = rng.normal(size=(k, c, kernel, kernel))
    return part, kernels


class TestPackWeights:
    def test_winograd_transform_applied(self, cfg):
        part, kernels = layer_setup(cfg)
        packed = pack_weights(cfg, part, kernels, weight_type=None)
        slot = packed.slots[0]
        stored = packed.image[slot.offset : slot.offset + slot.elems]
        stored = stored.reshape(slot.shape)
        alg = get_algorithm(cfg.m, 3)
        expected = transform_weight(
            alg, kernels[: slot.k_count, : slot.c_count]
        )
        np.testing.assert_allclose(stored[0], expected, atol=1e-12)

    def test_spatial_packs_raw(self, cfg):
        part, kernels = layer_setup(cfg, mode="spat")
        packed = pack_weights(cfg, part, kernels, weight_type=None)
        slot = packed.slots[0]
        stored = packed.image[slot.offset : slot.offset + slot.elems]
        np.testing.assert_array_equal(
            stored.reshape(slot.shape)[0],
            kernels[: slot.k_count, : slot.c_count],
        )

    def test_quantisation_applied(self, cfg):
        part, kernels = layer_setup(cfg, mode="spat")
        wt = DataType(8, frac=6)
        packed = pack_weights(cfg, part, kernels, weight_type=wt)
        assert np.array_equal(packed.image, wt.quantize(packed.image))

    def test_slots_tile_image(self, cfg):
        part, kernels = layer_setup(cfg, c=32, k=64)
        packed = pack_weights(cfg, part, kernels, weight_type=None)
        total = sum(slot.elems for slot in packed.slots)
        assert total == packed.image.size == packed.elems
        offsets = [slot.offset for slot in packed.slots]
        assert offsets == sorted(offsets)

    def test_decomposed_kernel_blocks(self, cfg):
        part, kernels = layer_setup(cfg, kernel=5)
        packed = pack_weights(cfg, part, kernels, weight_type=None)
        assert packed.slots[0].shape[0] == 4  # ceil(5/3)^2 blocks

    def test_slot_lookup(self, cfg):
        part, kernels = layer_setup(cfg, c=32, k=64)
        packed = pack_weights(cfg, part, kernels, weight_type=None)
        slot = packed.slot(packed.slots[-1].k0, packed.slots[-1].c0)
        assert slot is packed.slots[-1]
        with pytest.raises(CompileError):
            packed.slot(99999, 0)

    def test_slot_index_covers_every_group(self, cfg):
        """Every (k0, c0) group origin finds its own slot; an offset
        inside a group is not an origin and fails with CompileError."""
        part, _ = layer_setup(cfg, c=512, k=512, kernel=3, mode="spat")
        packed = pack_weights(cfg, part, (512, 512, 3, 3), None, data=False)
        origins = {(s.k0, s.c0) for s in packed.slots}
        assert len(origins) == len(packed.slots) > 1
        assert len({k0 for k0, _ in origins}) > 1
        assert len({c0 for _, c0 in origins}) > 1
        for slot in packed.slots:
            assert packed.slot(slot.k0, slot.c0) is slot
        inner = packed.slots[-1]
        with pytest.raises(CompileError, match=r"no weight slot at k0=\d+ c0="):
            packed.slot(inner.k0, inner.c0 + 1)

    def test_directory_only_mode(self, cfg):
        part, kernels = layer_setup(cfg, c=32, k=64)
        full = pack_weights(cfg, part, kernels, None, data=True)
        light = pack_weights(cfg, part, kernels, None, data=False)
        assert light.image.size == 0
        assert light.elems == full.elems
        assert light.slots == full.slots

    def test_shape_mismatch_rejected(self, cfg):
        part, kernels = layer_setup(cfg)
        with pytest.raises(CompileError):
            pack_weights(cfg, part, kernels[:, :4], weight_type=None)


class TestPackBias:
    def test_none_gives_zeros(self, cfg):
        part, _ = layer_setup(cfg, k=12)
        bias = pack_bias(part, None)
        assert bias.shape == (12,)
        assert bias.sum() == 0

    def test_values_preserved(self, cfg):
        part, _ = layer_setup(cfg, k=12)
        values = np.arange(12.0)
        np.testing.assert_array_equal(pack_bias(part, values), values)

    def test_wrong_size_rejected(self, cfg):
        part, _ = layer_setup(cfg, k=12)
        with pytest.raises(CompileError):
            pack_bias(part, np.zeros(5))
