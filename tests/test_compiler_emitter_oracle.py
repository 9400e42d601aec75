"""The column emitter against the per-instruction emitter it replaced.

:class:`_Emitter` and :func:`_emit_layer` below are the compiler's
former emitter, kept verbatim as the oracle: one helper call per
instruction, each appending a row tuple and recording a descriptor
dict.  :func:`oracle_compile` runs ``compile_network`` with them in
place of the column emitter.  Every program must agree with the
oracle's on every opcode, DEPT_FLAG, field, descriptor and layer
marker, for the zoo, the Figure 6 layers, packed compiles and random
single layers.

The zoo on the other catalog devices and both full Figure 6 sweeps are
marked ``slow``; run them with
``REPRO_FULL_ORACLE=1 pytest -m slow tests/test_compiler_emitter_oracle.py``.
"""

import os
from typing import Dict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.compiler
from repro.arch import layouts
from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions, codegen
from repro.compiler.codegen import AccelStep, FeatureMapSpec
from repro.compiler.data import PackedWeights
from repro.dse.space import DseOptions
from repro.errors import CompileError, ReproError
from repro.experiments.figure6 import run_figure6
from repro.ir import NetworkBuilder, zoo
from repro.isa.instructions import DeptFlag, Opcode
from repro.isa.program import LayerMarker
from repro.mapping import LayerMapping, NetworkMapping
from repro.mapping.partition import (
    LayerPartition,
    c_groups,
    fused_pool_for,
    k_groups,
    partition_layer,
    row_groups,
)
from repro.pipeline import PipelineSession
from repro.runtime import generate_parameters

MODELS = sorted(zoo.MODELS)
PAPER_DEVICES = ("vu9p", "pynq-z1")
OTHER_DEVICES = ("zcu102", "ku115")
TIMING_ONLY = CompilerOptions(quantize=True, pack_data=False)


class Program:
    """The list-backed stream the oracle appends to: the former
    ``Program``'s ``opcodes`` / ``depts`` / ``rows`` lists."""

    def __init__(self):
        self.opcodes = []
        self.depts = []
        self.rows = []
        self.markers = []
        self.metadata = {}

    def __len__(self) -> int:
        return len(self.opcodes)

    def mark_layer(self, layer_name, start, mode, dataflow) -> None:
        self.markers.append(
            LayerMarker(layer_name, start, len(self), mode, dataflow)
        )


# -- the oracle: the per-instruction emitter, verbatim ------------------------


# Plain-int opcodes and DEPT_FLAG bits for the emitter's hot path.
_LOAD_INP = int(Opcode.LOAD_INP)
_LOAD_WGT = int(Opcode.LOAD_WGT)
_LOAD_BIAS = int(Opcode.LOAD_BIAS)
_COMP = int(Opcode.COMP)
_SAVE = int(Opcode.SAVE)
_WAIT_INP = int(DeptFlag.WAIT_INP)
_WAIT_WGT = int(DeptFlag.WAIT_WGT)
_EMIT = int(DeptFlag.EMIT)
_WAIT_FREE = int(DeptFlag.WAIT_FREE)
_FREE_INP = int(DeptFlag.FREE_INP)
_FREE_WGT = int(DeptFlag.FREE_WGT)


class _Emitter:
    """Per-segment emission state (FIFO half counters, descriptors).

    Instructions go straight into the program's columns: each helper
    appends its opcode, DEPT_FLAG bits and a row tuple in the layout's
    field order (:data:`repro.isa.encoding.ROW_FIELDS`).
    """

    def __init__(self, cfg: AcceleratorConfig):
        self.cfg = cfg
        self.program = Program()
        self.descriptors: Dict[int, dict] = {}
        self.inp_half = 0
        self.wgt_half = 0
        self.out_half = 0

    def _push(self, opcode: int, dept: int, row: tuple, desc: dict) -> int:
        program = self.program
        index = len(program.opcodes)
        program.opcodes.append(opcode)
        program.depts.append(dept)
        program.rows.append(row)
        self.descriptors[index] = desc
        return index

    def finish(self) -> Program:
        self.program.metadata["descriptors"] = self.descriptors
        return self.program

    # -- per-instruction helpers ---------------------------------------

    def load_inp(self, *, src: FeatureMapSpec, y_start: int, rows: int,
                 c0: int, c_count: int, pad_left: int, pad_right: int,
                 partition: LayerPartition) -> int:
        """Emit LOAD_INP for an input strip (rows may hang over the
        feature's edge; the load manager zero-fills)."""
        half = self.inp_half
        self.inp_half ^= 1
        pad_top = max(0, -y_start)
        pad_bottom = max(0, y_start + rows - src.height)
        rows_read = max(rows - pad_top - pad_bottom, 0)
        c_vecs = -(-c_count // self.cfg.pi)
        # buff_id, buff_base, dram_base, size_chan, size_rows, size_cols,
        # pads_top, pads_bottom, pads_left, pads_right, wino_flag,
        # wino_offset
        row = (
            half, 0, 0, c_vecs, rows_read, src.width,
            pad_top, pad_bottom, pad_left, pad_right,
            1 if src.layout == layouts.WINO else 0, 0,
        )
        desc = {
            "kind": "load_inp",
            "region": src.region,
            "layout": src.layout,
            "channels": src.channels,
            "height": src.height,
            "width": src.width,
            "y_start": y_start,
            "rows": rows,
            "c0": c0,
            "c_count": c_count,
            "pad_left": pad_left,
            "pad_right": pad_right,
            "elems": rows_read * src.width * c_vecs * self.cfg.pi,
            "half": half,
        }
        return self._push(_LOAD_INP, _WAIT_FREE | _EMIT, row, desc)

    def load_wgt(self, *, layer_name: str, slot, partition: LayerPartition,
                 mode: str) -> int:
        half = self.wgt_half
        self.wgt_half ^= 1
        k_vecs = -(-slot.k_count // self.cfg.po)
        c_vecs = -(-slot.c_count // self.cfg.pi)
        coeff_rows, coeff_cols = (
            (self.cfg.pt, self.cfg.pt) if mode == "wino" else partition.kernel
        )
        row = (
            half, 0, 0, k_vecs * c_vecs, coeff_rows, coeff_cols,
            0, 0, 0, 0, 1 if mode == "wino" else 0, 0,
        )
        desc = {
            "kind": "load_wgt",
            "region": f"wgt:{layer_name}",
            "offset": slot.offset,
            "shape": slot.shape,
            "elems": slot.elems,
            "half": half,
        }
        return self._push(_LOAD_WGT, _WAIT_FREE | _EMIT, row, desc)

    def load_bias(self, *, layer_name: str, count: int) -> int:
        row = (0, 0, 0, -(-count // self.cfg.po), 1, 1, 0, 0, 0, 0, 0, 0)
        desc = {
            "kind": "load_bias",
            "region": f"bias:{layer_name}",
            "count": count,
            "elems": count,
        }
        return self._push(_LOAD_BIAS, 0, row, desc)

    def comp(self, *, partition: LayerPartition, k0: int, k_count: int,
             c0: int, c_count: int, out_w: int, rows_out: int,
             wait_inp: bool, free_inp: bool, wait_wgt: bool, free_wgt: bool,
             clear: bool, flush: bool, relu: bool, quan_param: int,
             inp_half: int, wgt_half: int, wgt_scales=None) -> int:
        dept = (
            (_WAIT_INP if wait_inp else 0)
            | (_FREE_INP if free_inp else 0)
            | (_WAIT_WGT if wait_wgt else 0)
            | (_FREE_WGT if free_wgt else 0)
        )
        out_half = self.out_half
        if flush:
            dept |= _EMIT | _WAIT_FREE
            self.out_half ^= 1
        wino = partition.mode == "wino"
        # buff_id, inp/out/wgt_buff_base, iw_number, ic_number,
        # oc_number, stride_size, relu_flag, quan_param, wino_flag,
        # wino_offset, accum_clear, accum_flush, inp/wgt/out_buff_id
        row = (
            0, 0, 0, 0, out_w, -(-c_count // self.cfg.pi),
            -(-k_count // self.cfg.po), partition.stride,
            1 if (relu and flush) else 0, quan_param, 1 if wino else 0, 0,
            1 if clear else 0, 1 if flush else 0,
            inp_half, wgt_half, out_half,
        )
        desc = {
            "kind": "comp",
            "mode": partition.mode,
            "stride": partition.stride,
            "blocks": partition.blocks,
            "kernel": partition.kernel,
            "k0": k0,
            "k_count": k_count,
            "c0": c0,
            "c_count": c_count,
            "out_w": out_w,
            "rows_out": rows_out,
            "relu": relu and flush,
            "clear": clear,
            "flush": flush,
            "inp_half": inp_half,
            "wgt_half": wgt_half,
            "out_half": out_half,
            "wgt_scales": wgt_scales,
        }
        return self._push(_COMP, dept, row, desc)

    def save(self, *, dst: FeatureMapSpec, partition: LayerPartition,
             y0_out: int, rows_valid: int, k0: int, k_count: int,
             pool: int, out_half: int) -> int:
        rows_dst = rows_valid // pool if pool > 1 else rows_valid
        k_vecs = -(-k_count // self.cfg.po)
        # buff_id, buff_base, dram_base, size_chan, size_rows, size_cols,
        # wino_flag, dst_wino_flag, pool_size, iw/oc/ow_blk_number
        row = (
            out_half, 0, 0, k_vecs,
            max(rows_dst, 1) if pool > 1 else rows_valid, dst.width,
            1 if partition.mode == "wino" else 0,
            1 if dst.layout == layouts.WINO else 0,
            pool, 1, k_vecs, max(1, dst.width // 255 + 1),
        )
        desc = {
            "kind": "save",
            "region": dst.region,
            "dst_layout": dst.layout,
            "dst_channels": dst.channels,
            "dst_height": dst.height,
            "dst_width": dst.width,
            "y0_out": y0_out,
            "rows_valid": rows_valid,
            "k0": k0,
            "k_count": k_count,
            "pool": pool,
            "elems": max(k_vecs * self.cfg.po * rows_dst * dst.width, 0),
            "half": out_half,
        }
        return self._push(_SAVE, _WAIT_INP | _FREE_INP, row, desc)


def _emit_layer(
    em: _Emitter,
    cfg: AcceleratorConfig,
    partition: LayerPartition,
    dataflow: str,
    src: FeatureMapSpec,
    dst: FeatureMapSpec,
    packed: PackedWeights,
    relu: bool,
    pool: int,
    quan_param: int,
) -> None:
    """Emit one layer's instruction stream (IS or WS loop order)."""
    rgroups = row_groups(partition)
    kgroups = k_groups(partition)
    cgroups = c_groups(partition)
    gc = len(cgroups)
    if dataflow == "is" and gc > 1:
        raise CompileError(
            f"{partition.layer_name}: IS dataflow requires the whole "
            f"strip depth on chip (GC={gc}); use WS"
        )

    start = len(em.program)
    em.load_bias(layer_name=partition.layer_name, count=partition.out_channels)

    def in_row_start(y0_out: int) -> int:
        return y0_out * partition.stride - partition.padding

    if dataflow == "is":
        (c0, cc), = cgroups
        for (y0, rows) in rgroups:
            li = em.load_inp(
                src=src,
                y_start=in_row_start(y0),
                rows=partition.strip_rows,
                c0=c0,
                c_count=cc,
                pad_left=partition.padding,
                pad_right=partition.padding,
                partition=partition,
            )
            inp_half = em.descriptors[li]["half"]
            for kg_idx, (k0, kc) in enumerate(kgroups):
                slot = packed.slot(k0, c0)
                lw = em.load_wgt(
                    layer_name=partition.layer_name,
                    slot=slot,
                    partition=partition,
                    mode=partition.mode,
                )
                wgt_half = em.descriptors[lw]["half"]
                em.comp(
                    partition=partition,
                    k0=k0,
                    k_count=kc,
                    c0=c0,
                    c_count=cc,
                    out_w=partition.out_w,
                    rows_out=partition.rows_per_group,
                    wait_inp=(kg_idx == 0),
                    free_inp=(kg_idx == len(kgroups) - 1),
                    wait_wgt=True,
                    free_wgt=True,
                    clear=True,
                    flush=True,
                    relu=relu,
                    quan_param=quan_param,
                    inp_half=inp_half,
                    wgt_half=wgt_half,
                    wgt_scales=packed.scales,
                )
                out_half = em.descriptors[len(em.program) - 1]["out_half"]
                em.save(
                    dst=dst,
                    partition=partition,
                    y0_out=y0,
                    rows_valid=rows,
                    k0=k0,
                    k_count=kc,
                    pool=pool,
                    out_half=out_half,
                )
    else:  # ws
        for (k0, kc) in kgroups:
            if gc == 1:
                (c0, cc), = cgroups
                lw = em.load_wgt(
                    layer_name=partition.layer_name,
                    slot=packed.slot(k0, c0),
                    partition=partition,
                    mode=partition.mode,
                )
                kg_wgt_half = em.descriptors[lw]["half"]
            for ry_idx, (y0, rows) in enumerate(rgroups):
                for cg_idx, (c0, cc) in enumerate(cgroups):
                    if gc > 1:
                        lw = em.load_wgt(
                            layer_name=partition.layer_name,
                            slot=packed.slot(k0, c0),
                            partition=partition,
                            mode=partition.mode,
                        )
                        wgt_half = em.descriptors[lw]["half"]
                        wait_wgt = True
                        free_wgt = True
                    else:
                        wgt_half = kg_wgt_half
                        wait_wgt = ry_idx == 0
                        free_wgt = ry_idx == len(rgroups) - 1
                    li = em.load_inp(
                        src=src,
                        y_start=in_row_start(y0),
                        rows=partition.strip_rows,
                        c0=c0,
                        c_count=cc,
                        pad_left=partition.padding,
                        pad_right=partition.padding,
                        partition=partition,
                    )
                    inp_half = em.descriptors[li]["half"]
                    em.comp(
                        partition=partition,
                        k0=k0,
                        k_count=kc,
                        c0=c0,
                        c_count=cc,
                        out_w=partition.out_w,
                        rows_out=partition.rows_per_group,
                        wait_inp=True,
                        free_inp=True,
                        wait_wgt=wait_wgt and cg_idx == 0 if gc == 1 else True,
                        free_wgt=free_wgt and cg_idx == gc - 1 if gc == 1 else True,
                        clear=(cg_idx == 0),
                        flush=(cg_idx == gc - 1),
                        relu=relu,
                        quan_param=quan_param,
                        inp_half=inp_half,
                        wgt_half=wgt_half,
                        wgt_scales=packed.scales,
                    )
                out_half = em.descriptors[len(em.program) - 1]["out_half"]
                em.save(
                    dst=dst,
                    partition=partition,
                    y0_out=y0,
                    rows_valid=rows,
                    k0=k0,
                    k_count=kc,
                    pool=pool,
                    out_half=out_half,
                )
    em.program.mark_layer(
        partition.layer_name, start, partition.mode, dataflow
    )


class _OracleSegment(_Emitter):
    """The oracle emitter behind the column emitter's segment protocol:
    each layer is emitted as soon as it is added."""

    def __len__(self) -> int:
        return len(self.program)

    def add_layer(self, *args) -> None:
        _emit_layer(self, self.cfg, *args)


def oracle_compile(*args, **kwargs):
    """``compile_network`` emitting through the oracle."""
    with mock.patch.object(codegen, "_Segment", _OracleSegment):
        return codegen.compile_network(*args, **kwargs)


# -- harness -----------------------------------------------------------------


def assert_same_descriptor(got: dict, want: dict) -> None:
    """Equal key for key, in the same order and with the same types."""
    assert list(got) == list(want)
    for key, value in want.items():
        if key == "wgt_scales" and value is not None:
            assert np.array_equal(got[key], value)
        else:
            assert got[key] == value, key
            assert type(got[key]) is type(value), key


def assert_same_stream(got, want) -> None:
    """A column program equals the oracle's stream."""
    assert got.opcodes.tolist() == want.opcodes
    assert got.depts.tolist() == want.depts
    widths = [len(row) for row in want.rows]
    rows = got.rows.tolist()
    assert [tuple(row[:width]) for row, width in zip(rows, widths)] == want.rows
    assert not any(any(row[width:]) for row, width in zip(rows, widths))
    assert got.markers == want.markers
    table = got.metadata["descriptors"]
    descriptors = want.metadata["descriptors"]
    assert len(table) == len(descriptors) == len(got)
    for index in range(len(got)):
        assert_same_descriptor(table[index], descriptors[index])


def assert_same_model(got, want) -> None:
    """Equal compiled models: streams, host steps, maps, partitions."""
    assert [type(step) for step in got.steps] == [
        type(step) for step in want.steps
    ]
    for mine, theirs in zip(got.steps, want.steps):
        if isinstance(mine, AccelStep):
            assert_same_stream(mine.program, theirs.program)
        else:
            assert mine == theirs
    assert got.fmaps == want.fmaps
    assert got.partitions == want.partitions


def compile_both(*args):
    """Compile with both emitters, compare, and return the column
    compile."""
    got = codegen.compile_network(*args)
    assert_same_model(got, oracle_compile(*args))
    return got


def check_every_compile(monkeypatch) -> list:
    """Make every ``compile_network`` a pipeline session runs also run
    the oracle and compare; returns the checked instruction counts."""
    checked = []

    def both(*args):
        got = compile_both(*args)
        checked.append(got.total_instructions)
        return got

    monkeypatch.setattr(repro.compiler, "compile_network", both)
    return checked


#: The rest of the catalog and the full Figure 6 sweeps; CI's benchmark
#: job runs them with ``REPRO_FULL_ORACLE=1 pytest -m slow``.
FULL_MATRIX = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="full emitter oracle matrix: set REPRO_FULL_ORACLE=1",
    ),
]


def _zoo_cases():
    for device in PAPER_DEVICES + OTHER_DEVICES:
        for model in MODELS:
            yield pytest.param(
                model, device, id=f"{model}-{device}",
                marks=FULL_MATRIX if device in OTHER_DEVICES else [],
            )


# -- the tests ---------------------------------------------------------------


@pytest.mark.parametrize("model,device", _zoo_cases())
def test_zoo_streams_match_oracle(model, device):
    """The DSE-selected design of every zoo model, timing-only: IS, WS
    with GC = 1 and WS with GC > 1 all occur (VGG16's fc6 on both
    paper devices)."""
    session = PipelineSession(
        model, device, DseOptions(), compiler_options=TIMING_ONLY
    )
    compiled = compile_both(
        session.network, session.cfg, session.mapping(),
        session.parameters(), TIMING_ONLY,
    )
    assert compiled.total_instructions > 0


def test_vgg16_compiles_to_columns():
    """The case study on PYNQ-Z1 exercises all three nests, and its
    timing-only compile stores columns only: no per-instruction tuple
    or dict, and no weight-slot objects."""
    session = PipelineSession(
        "vgg16", "pynq-z1", DseOptions(), compiler_options=TIMING_ONLY
    )
    compiled = session.compiled()
    nests = {
        (marker.dataflow, compiled.partitions[marker.layer_name].n_c_groups > 1)
        for program in compiled.programs()
        for marker in program.markers
    }
    assert nests == {("is", False), ("ws", False), ("ws", True)}
    for program in compiled.programs():
        table = program.metadata["descriptors"]
        assert set(program.metadata) == {"descriptors"}
        for column in (program.opcodes, program.depts, program.rows,
                       table.kinds, table.layer, table.values):
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.int64
        assert len(table.layers) == len(program.markers)
    assert not any("slots" in vars(packed)
                   for packed in compiled.weights.values())


@pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
@pytest.mark.parametrize("mode,dataflow", [
    ("wino", "ws"), ("wino", "is"), ("spat", "ws"), ("spat", "is"),
])
@pytest.mark.parametrize("pt", [4, 6])
def test_packed_streams_match_oracle(cfg_pt4, cfg_pt6, model, mode,
                                     dataflow, pt):
    """Packed, quantised compiles: the descriptors carry the Winograd
    weight scales."""
    net = zoo.get_model(model)
    compile_both(
        net, cfg_pt4 if pt == 4 else cfg_pt6,
        NetworkMapping.uniform(net, mode, dataflow),
        generate_parameters(net, seed=3), CompilerOptions(quantize=True),
    )


def test_segments_carry_the_halves(cfg_pt4):
    """Host steps split the stream into segments; each one's ping-pong
    halves restart, and within one they run on across layers."""
    net = (
        NetworkBuilder("halves", (3, 12, 12))
        .conv2d(8, padding=1, relu=True, name="c1")
        .conv2d(8, padding=1, name="c2")
        .maxpool2d(3, stride=2, name="p1")
        .conv2d(8, padding=1, name="c3")
        .flatten(name="fl")
        .dense(10, name="fc")
        .build()
    )
    compiled = compile_both(
        net, cfg_pt4, NetworkMapping.uniform(net, "spat", "ws"),
        generate_parameters(net, seed=1), TIMING_ONLY,
    )
    assert len(compiled.programs()) == 3


def test_figure6_layers_match_oracle(monkeypatch):
    """A few Figure 6 layers per device, Winograd and Spatial."""
    checked = check_every_compile(monkeypatch)
    run_figure6("vu9p", series=((56, 128), (14, 512)), kernels=(1, 3, 7))
    run_figure6("pynq-z1", series=((28, 128), (7, 256)), kernels=(3, 5))
    assert len(checked) == 2 * 2 * (3 + 2)


@pytest.mark.parametrize(
    "device", [pytest.param(d, marks=FULL_MATRIX) for d in PAPER_DEVICES]
)
def test_figure6_sweep_matches_oracle(monkeypatch, device):
    checked = check_every_compile(monkeypatch)
    points = run_figure6(device)
    assert len(checked) == 2 * len(points)


@st.composite
def single_layers(draw):
    """A one-layer network: conv (kernel 1/3/5/7, stride 1/2, padding,
    optional fused pool) or dense, with or without a fused ReLU."""
    channels = draw(st.integers(1, 600))
    out_channels = draw(st.integers(1, 600))
    relu = draw(st.sampled_from(("none", "flag", "layer")))
    if draw(st.booleans()):
        builder = NetworkBuilder("dense", (channels, 1, 1)).dense(
            out_channels, relu=relu == "flag", name="layer"
        )
    else:
        kernel = draw(st.sampled_from((1, 3, 5, 7)))
        stride = draw(st.sampled_from((1, 2)))
        padding = draw(st.integers(0, kernel // 2))
        size = draw(st.integers(max(1, kernel - 2 * padding), 64))
        builder = NetworkBuilder("conv", (channels, size, size)).conv2d(
            out_channels, kernel_size=kernel, stride=stride,
            padding=padding, relu=relu == "flag", name="layer",
        )
        out = (size + 2 * padding - kernel) // stride + 1
        if relu == "layer":
            builder = builder.relu(name="relu")
        if out >= 2 and draw(st.booleans()):
            return builder.maxpool2d(2, name="pool").build()
        return builder.build()
    if relu == "layer":
        builder = builder.relu(name="relu")
    return builder.build()


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    network=single_layers(),
    pt=st.sampled_from((4, 6)),
    parallel=st.sampled_from(((4, 4), (8, 4), (8, 8), (4, 2), (2, 1))),
    buffers=st.tuples(*[st.sampled_from((128, 1024, 8192))] * 3),
    mode=st.sampled_from(("spat", "wino")),
    dataflow=st.sampled_from(("is", "ws")),
)
def test_random_layers_match_oracle(network, pt, parallel, buffers, mode,
                                    dataflow):
    """Random single layers on random small configurations: equal
    streams, or the same error; IS with GC > 1 is a CompileError."""
    cfg = AcceleratorConfig(
        pi=parallel[0], po=parallel[1], pt=pt,
        input_buffer_vecs=buffers[0], weight_buffer_vecs=buffers[1],
        output_buffer_vecs=buffers[2],
    )
    info = network.compute_layers()[0]
    pool = fused_pool_for(network, info.index)
    try:
        partition = partition_layer(cfg, info, mode, fused_pool=pool)
    except ReproError:
        partition = None
    assume(partition is None or codegen._stream_length(
        dataflow, partition.n_k_groups, partition.n_row_groups,
        partition.n_c_groups,
    ) <= 6000)
    args = (
        network, cfg,
        NetworkMapping(network.name, [LayerMapping("layer", mode, dataflow)]),
        generate_parameters(network, seed=0), TIMING_ONLY,
    )
    try:
        want = oracle_compile(*args)
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            codegen.compile_network(*args)
        assert str(raised.value) == str(error)
        if partition is not None and dataflow == "is":
            assert partition.n_c_groups > 1
            assert type(error) is CompileError
        return
    assert not (dataflow == "is" and partition.n_c_groups > 1)
    assert_same_model(codegen.compile_network(*args), want)
