"""Tests for repro.mapping.partition — the Section-4.2.4 partitioning."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import AcceleratorConfig, ConfigColumns
from repro.dse import explore_hardware
from repro.dse.space import DseOptions
from repro.errors import (
    DseError,
    ReproError,
    ResourceError,
    UnsupportedLayerError,
)
from repro.fpga import get_device
from repro.ir import NetworkBuilder, zoo
from repro.mapping.partition import (
    GROUP_COUNTS,
    LayerColumns,
    c_groups,
    fused_pool_for,
    k_groups,
    layer_shape,
    partition_layer,
    row_geometry,
    row_groups,
)


def single_conv_info(c, k, h, kernel, stride=1, padding=0):
    net = zoo.single_conv(c, k, h, kernel, stride=stride, padding=padding)
    return net.compute_layers()[0]


@pytest.fixture
def cfg():
    return AcceleratorConfig(
        pi=4, po=4, pt=6, instances=1,
        input_buffer_vecs=8192, weight_buffer_vecs=4096,
        output_buffer_vecs=4096,
    )


class TestRowGroups:
    def test_spatial_one_row_per_group(self, cfg):
        info = single_conv_info(16, 16, 28, 3, padding=1)
        part = partition_layer(cfg, info, "spat")
        # Section 4.2.4: H groups in Spatial mode.
        assert part.rows_per_group == 1
        assert part.n_row_groups == 28
        assert part.strip_rows == 3

    def test_winograd_m_rows_per_group(self, cfg):
        info = single_conv_info(16, 16, 28, 3, padding=1)
        part = partition_layer(cfg, info, "wino")
        # Section 4.2.4: H/m groups in Winograd mode.
        assert part.rows_per_group == cfg.m
        assert part.n_row_groups == 7
        assert part.strip_rows == cfg.pt

    def test_partial_last_group(self, cfg):
        info = single_conv_info(8, 8, 14, 3, padding=1)
        part = partition_layer(cfg, info, "wino")
        groups = row_groups(part)
        assert sum(rows for _, rows in groups) == 14
        assert groups[-1][1] == 2  # 14 = 3*4 + 2

    def test_decomposed_kernel_extends_strip(self, cfg):
        info = single_conv_info(8, 8, 20, 5, padding=2)
        part = partition_layer(cfg, info, "wino")
        assert len(part.blocks) == 4
        assert part.strip_rows == cfg.pt + 3  # max block row offset

    def test_strided_spatial_strip(self, cfg):
        info = single_conv_info(8, 8, 23, 3, stride=2)
        part = partition_layer(cfg, info, "spat")
        assert part.strip_rows == 3
        assert part.out_h == 11

    def test_wino_stride_rejected(self, cfg):
        info = single_conv_info(8, 8, 23, 3, stride=2)
        with pytest.raises(UnsupportedLayerError):
            partition_layer(cfg, info, "wino")


class TestWeightGroups:
    def test_gk_grows_with_channels(self, cfg):
        small = partition_layer(cfg, single_conv_info(64, 64, 14, 3), "wino")
        big = partition_layer(cfg, single_conv_info(512, 512, 14, 3), "wino")
        assert big.n_k_groups > small.n_k_groups

    def test_k_groups_cover_exactly(self, cfg):
        info = single_conv_info(64, 100, 14, 3, padding=1)
        part = partition_layer(cfg, info, "wino")
        groups = k_groups(part)
        assert sum(count for _, count in groups) == 100
        assert groups[0][0] == 0

    def test_weight_elems_reflect_winograd_expansion(self, cfg):
        # K = 48 is a multiple of both modes' output-channel granules
        # (PO*PT = 24 and PO = 4), so no padding skews the ratio.
        info = single_conv_info(32, 48, 14, 3, padding=1)
        spat = partition_layer(cfg, info, "spat")
        wino = partition_layer(cfg, info, "wino")
        # Eq. 9: Winograd loads PT^2 coefficients per 3x3 kernel.
        assert wino.weight_elems_total == pytest.approx(
            spat.weight_elems_total * cfg.pt**2 / 9
        )

    def test_fc_layer_channel_split(self, cfg):
        net = zoo.tiny_mlp(in_features=40000, hidden=8)
        info = net.compute_layers()[0]
        part = partition_layer(cfg, info, "spat")
        assert part.n_c_groups > 1
        assert sum(c for _, c in c_groups(part)) == 40000

    def test_total_groups(self, cfg):
        info = single_conv_info(64, 64, 14, 3, padding=1)
        part = partition_layer(cfg, info, "wino")
        assert part.total_groups == (
            part.n_row_groups * part.n_k_groups * part.n_c_groups
        )


class TestBufferConstraints:
    def test_strip_channel_chunking(self):
        tiny = AcceleratorConfig(
            pi=4, po=4, pt=4, input_buffer_vecs=512,
            weight_buffer_vecs=2048, output_buffer_vecs=2048,
        )
        info = single_conv_info(64, 16, 28, 3, padding=1)
        part = partition_layer(tiny, info, "wino")
        assert part.n_c_groups > 1
        # Each chunk's strip fits the half.
        assert part.strip_elems <= tiny.input_buffer_vecs * tiny.pi

    def test_impossible_width_raises(self):
        tiny = AcceleratorConfig(
            pi=4, po=4, pt=4, input_buffer_vecs=16,
            weight_buffer_vecs=2048, output_buffer_vecs=2048,
        )
        info = single_conv_info(8, 8, 64, 3, padding=1)
        with pytest.raises(ResourceError):
            partition_layer(tiny, info, "wino")

    def test_output_buffer_limits_k_group(self):
        tiny = AcceleratorConfig(
            pi=4, po=4, pt=4, input_buffer_vecs=8192,
            weight_buffer_vecs=8192, output_buffer_vecs=64,
        )
        info = single_conv_info(16, 64, 16, 3, padding=1)
        part = partition_layer(tiny, info, "wino")
        assert part.out_group_elems <= 64 * tiny.po

    def test_pool_fusion_rows(self, cfg):
        net = zoo.vgg16()
        # conv1_2 is followed by pool1 (2x2, stride 2).
        info = net.find("conv1_2")
        assert fused_pool_for(net, info.index) == 2
        part = partition_layer(cfg, info, "wino", fused_pool=2)
        assert part.rows_per_group % 2 == 0

    def test_pool_fusion_spatial_widens_group(self, cfg):
        net = zoo.vgg16()
        info = net.find("conv1_2")
        part = partition_layer(cfg, info, "spat", fused_pool=2)
        assert part.rows_per_group == 2
        assert part.strip_rows == 4  # (2-1)*1 + 3

    def test_overlapping_pool_not_fused(self):
        net = zoo.alexnet()
        conv1 = net.find("conv1")
        # pool1 is 3x3 stride 2 (overlapping) -> host op, no fusion.
        assert fused_pool_for(net, conv1.index) == 1


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(1, 96),
    k=st.integers(1, 96),
    h=st.integers(6, 40),
    kernel=st.sampled_from([1, 3, 5]),
    mode=st.sampled_from(["spat", "wino"]),
    pt=st.sampled_from([4, 6]),
)
def test_partition_invariants_property(c, k, h, kernel, mode, pt):
    """Invariants: groups tile the layer exactly and fit the buffers."""
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=pt, input_buffer_vecs=8192,
        weight_buffer_vecs=4096, output_buffer_vecs=4096,
    )
    info = single_conv_info(c, k, h, kernel, padding=kernel // 2)
    part = partition_layer(cfg, info, mode)
    assert sum(r for _, r in row_groups(part)) == part.out_h
    assert sum(n for _, n in k_groups(part)) == k
    assert sum(n for _, n in c_groups(part)) == c
    assert part.strip_elems <= cfg.input_buffer_vecs * cfg.pi
    assert part.weight_elems_group <= cfg.weight_buffer_vecs * cfg.pi * cfg.po
    assert part.out_group_elems <= cfg.output_buffer_vecs * cfg.po
    if mode == "wino":
        assert part.rows_per_group == cfg.m
    else:
        assert part.rows_per_group == 1


# -- the column form: group counts for every (layer, design) ---------------

PAPER_DEVICES = ("vu9p", "pynq-z1")
#: Presets small enough that some (layer, design, mode) cells fit no
#: partition, besides each device's default.
SMALL_PRESETS = ((512, 256, 256), (64, 32, 32))

FULL_ORACLE = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="full catalog matrix: set REPRO_FULL_ORACLE=1",
    ),
]


def scalar_counts(cfg, info, mode, pool):
    """partition_layer's :data:`GROUP_COUNTS`, or None where it raises."""
    try:
        part = partition_layer(cfg, info, mode, pool)
    except ReproError:
        return None
    return (1, part.n_k_groups * part.n_c_groups, part.n_row_groups,
            part.n_c_groups, part.total_groups)


def assert_counts_match(network, cfgs):
    """Every (layer, config, mode): the column counts are
    partition_layer's, and feasible exactly where it returns.  Returns
    the feasible and infeasible cell counts."""
    infos = network.compute_layers()
    pools = [fused_pool_for(network, info.index) for info in infos]
    columns = LayerColumns([layer_shape(info) for info in infos], pools)
    bases = ConfigColumns.of(cfgs)
    cells = [0, 0]
    for mode in ("spat", "wino"):
        table = columns.group_counts(mode, bases)
        assert table.dtype == np.int64
        assert table.shape == (len(GROUP_COUNTS), len(infos), len(cfgs))
        for li, (info, pool) in enumerate(zip(infos, pools)):
            for u, cfg in enumerate(cfgs):
                expected = scalar_counts(cfg, info, mode, pool)
                got = table[:, li, u].tolist()
                if expected is None:
                    assert got[0] == 0, (info.layer.name, cfg, mode)
                    cells[1] += 1
                else:
                    assert tuple(got) == expected, (info.layer.name, cfg,
                                                    mode)
                    cells[0] += 1
    return cells


def _space_configs(device_name, presets):
    space = explore_hardware(
        get_device(device_name), DseOptions(buffer_presets=presets)
    )
    return [space.config(base) for base in range(len(space.bases.pi))]


def _count_cases():
    cases = [(device, presets) for device in PAPER_DEVICES
             for presets in (None,) + SMALL_PRESETS]
    for device, presets in cases:
        yield pytest.param(device, presets, id=f"{device}-{presets}")
    for device in ("zcu102", "ku115"):
        for presets in (None,) + SMALL_PRESETS:
            yield pytest.param(device, presets, id=f"{device}-{presets}",
                               marks=FULL_ORACLE)
    for device in PAPER_DEVICES:
        presets = (65536, 32768, 32768)
        yield pytest.param(device, presets, id=f"{device}-{presets}",
                           marks=FULL_ORACLE)


@pytest.mark.parametrize("device_name, presets", list(_count_cases()))
def test_group_counts_match_partition_layer_on_zoo(device_name, presets):
    """Every zoo model over a device's whole Step-1 space, both modes."""
    cfgs = _space_configs(device_name, presets)
    cells = [0, 0]
    for model in sorted(zoo.MODELS):
        feasible, infeasible = assert_counts_match(
            zoo.get_model(model), cfgs
        )
        cells[0] += feasible
        cells[1] += infeasible
    assert cells[0] > 0
    if presets in SMALL_PRESETS:
        assert cells[1] > 0  # the presets do reach infeasible cells


def test_row_geometry_is_shared():
    """Both forms read the same (mode, PT, pool) row geometry: a pool no
    group of <= 16 rows aligns with is infeasible in both, and a
    Winograd layer with stride > 1 is infeasible in the columns."""
    assert row_geometry("wino", 4, (3, 3), 1, 3) is None
    assert row_geometry("spat", 4, (3, 3), 2, 17) is None
    assert row_geometry("wino", 6, (5, 5), 1, 2) == (
        4, 9, ((0, 0), (0, 3), (3, 0), (3, 3))
    )
    network = (
        NetworkBuilder("strided", input_shape=(8, 24, 24))
        .conv2d(8, kernel_size=3, stride=2, padding=1)
        .conv2d(8, kernel_size=3, padding=1)
        .maxpool2d(3, stride=3)
        .build()
    )
    cfg = AcceleratorConfig(pi=4, po=4, pt=4)
    feasible, infeasible = assert_counts_match(network, [cfg])
    assert infeasible == 2  # strided wino and pool-3 wino


def test_group_counts_refuse_wrapping_capacities():
    """A buffer so large its element capacity could wrap int64 is
    refused rather than miscounted."""
    network = zoo.tiny_cnn()
    infos = network.compute_layers()
    columns = LayerColumns(
        [layer_shape(info) for info in infos],
        [fused_pool_for(network, info.index) for info in infos],
    )
    cfg = AcceleratorConfig(pi=32, po=32, pt=4, weight_buffer_vecs=2**53)
    with pytest.raises(DseError, match="2\\*\\*62"):
        columns.group_counts("spat", ConfigColumns.of([cfg]))


_PRESET_SIZES = st.sampled_from([16, 64, 256, 1024, 4096])


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 64),
    k=st.integers(1, 64),
    h=st.integers(11, 40),
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    pad=st.integers(0, 5),
    pool=st.sampled_from([1, 2, 3, 4]),
    dense=st.one_of(st.none(), st.integers(1, 128)),
    presets=st.tuples(_PRESET_SIZES, _PRESET_SIZES, _PRESET_SIZES),
    factors=st.sampled_from([(1, 1), (2, 1), (4, 2), (4, 4), (8, 2),
                             (16, 8)]),
)
def test_group_counts_property(c, k, h, kernel, stride, pad, pool, dense,
                               presets, factors):
    """Random conv(+pool)(+dense) networks on small buffers: the column
    counts equal partition_layer's, feasibility included."""
    builder = NetworkBuilder("random", input_shape=(c, h, h)).conv2d(
        k, kernel_size=kernel, stride=stride, padding=min(pad, kernel - 1)
    )
    out = (h + 2 * min(pad, kernel - 1) - kernel) // stride + 1
    if pool > 1 and out >= pool:
        builder = builder.maxpool2d(pool, stride=pool)
    if dense is not None:
        builder = builder.flatten().dense(dense)
    network = builder.build()
    pi, po = factors
    cfgs = [
        AcceleratorConfig(pi=pi, po=po, pt=pt, input_buffer_vecs=presets[0],
                          weight_buffer_vecs=presets[1],
                          output_buffer_vecs=presets[2])
        for pt in (4, 6)
    ]
    assert_counts_match(network, cfgs)
