"""Layer-to-instruction code generation.

For every compute layer the compiler walks the group partitioning of
Section 4.2.4 in the order dictated by the layer's dataflow:

* **IS** (Eq. 12/14): outer loop over row groups; the strip is loaded
  once and all ``GK`` weight groups stream past it (weights are
  re-loaded every row group — the ``H x T_LDW`` term).  IS requires the
  whole channel depth of a strip to be resident (``GC == 1``).
* **WS** (Eq. 13/15): outer loop over weight groups; each weight group
  is loaded once and all row groups stream past it (the
  ``GK x T_LDI`` term).

Handshake-FIFO flags are attached exactly as Section 4.1 describes:
consumers wait for data tokens, producers wait for free tokens, and the
last consumer of a ping-pong half releases it.

Each layer's stream comes out of one pass of numpy index arithmetic over
its row, k and c group tables (:func:`_emit_layer`); no Python object is
made per instruction.  A segment's :class:`~repro.isa.program.Program`
holds the instructions as columns, and the host-side descriptors the
simulator reads as a :class:`~repro.isa.program.DescriptorTable`.

Non-accelerator operations (flatten, overlapping pooling, stand-alone
ReLU) become host steps between accelerator program segments — the
heterogeneous task-partitioning story of the paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import CompileError
from repro.arch import layouts
from repro.arch.params import AcceleratorConfig
from repro.ir.graph import Network
from repro.ir.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
)
from repro.isa.encoding import ROW_FIELDS
from repro.isa.instructions import DeptFlag, Opcode
from repro.isa.program import (
    COLUMNS,
    ROW_WIDTH,
    DescriptorTable,
    LayerConstants,
    LayerMarker,
    Program,
)
from repro.mapping.partition import (
    LayerPartition,
    fused_pool_for,
    partition_layer,
    row_groups,
)
from repro.mapping.strategy import NetworkMapping
from repro.compiler.data import PackedWeights, pack_bias, pack_weights


@dataclass(frozen=True)
class FeatureMapSpec:
    """One feature map living in external memory."""

    region: str
    channels: int
    height: int
    width: int
    layout: int  # layouts.SPAT | layouts.WINO

    def words(self, lanes: int) -> int:
        return layouts.feature_words(
            self.channels, self.height, self.width, lanes
        )


@dataclass
class AccelStep:
    """One contiguous accelerator program segment."""

    program: Program


@dataclass
class HostStep:
    """An operation executed by the host runtime between segments."""

    op: str  # "flatten" | "maxpool" | "avgpool" | "relu"
    layer_name: str
    src: FeatureMapSpec
    dst: FeatureMapSpec
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CompilerOptions:
    """Code-generation switches.

    ``quantize=False`` keeps all data in exact float64 — used by the
    functional-equivalence tests so the accelerator output can be
    compared bit-for-bit against the float reference.

    ``pack_data=False`` compiles timing-only: it reads only the
    parameters' shapes (a deferred
    :class:`~repro.runtime.params.ParameterSet` is never drawn), leaves
    weight images empty (group directories are still computed) and
    makes bias images zeros of the right length.  Cycles and
    instructions are identical to a packed compile.
    """

    quantize: bool = True
    pack_data: bool = True


@dataclass
class CompiledModel:
    """Everything the runtime needs to execute a network."""

    network_name: str
    cfg: AcceleratorConfig
    mapping: NetworkMapping
    options: CompilerOptions
    steps: List[Union[AccelStep, HostStep]]
    input_spec: FeatureMapSpec
    output_spec: FeatureMapSpec
    fmaps: Dict[str, FeatureMapSpec]
    weights: Dict[str, PackedWeights]
    biases: Dict[str, np.ndarray]
    partitions: Dict[str, LayerPartition]

    @property
    def total_instructions(self) -> int:
        return sum(
            len(step.program)
            for step in self.steps
            if isinstance(step, AccelStep)
        )

    def programs(self) -> List[Program]:
        return [s.program for s in self.steps if isinstance(s, AccelStep)]


def _consumer_layout(network: Network, index: int,
                     mapping: NetworkMapping) -> int:
    """Layout the feature produced after layer ``index`` must use: the
    mode of the next compute layer consuming it (Figure 5's SAVE-side
    reordering), SPAT when the network ends or a host op intervenes."""
    for info in list(network)[index + 1 :]:
        layer = info.layer
        if layer.is_compute:
            mode = mapping.for_layer(layer.name).mode
            return layouts.WINO if mode == "wino" else layouts.SPAT
        if isinstance(layer, (ReLU, MaxPool2D, AvgPool2D)):
            continue  # fused or host op; host ops re-pack anyway
        if isinstance(layer, Flatten):
            return layouts.SPAT
    return layouts.SPAT


# Plain-int opcodes and DEPT_FLAG bits for the emitter's column math.
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

# A segment is emitted into one int64 array of "cells", one column per
# instruction: its opcode, its DEPT_FLAG bits, its fields (ROW_WIDTH
# rows, in ROW_FIELDS order) and its descriptor values (COLUMNS order).
_OP = 0
_DEPT = 1
_ROW = 2
_VAL = _ROW + ROW_WIDTH
_LOAD = {name: _ROW + i for i, name in enumerate(ROW_FIELDS[Opcode.LOAD_INP])}
_CMP = {name: _ROW + i for i, name in enumerate(ROW_FIELDS[Opcode.COMP])}
_SAV = {name: _ROW + i for i, name in enumerate(ROW_FIELDS[Opcode.SAVE])}
_DESC = {name: _VAL + i for i, name in enumerate(COLUMNS)}


class _Segment:
    """One accelerator program segment under construction.

    Layers are queued as the compiler reaches them (:meth:`add_layer`)
    and emitted together by :meth:`finish`, straight into the segment's
    cell array, which is allocated once at its final size.  The
    ping-pong halves alternate across the layers of a segment, so
    emission carries the three running counts they are parities of:
    LOAD_INPs, LOAD_WGTs and flushing COMPs emitted so far.
    """

    def __init__(self, cfg: AcceleratorConfig):
        self.cfg = cfg
        self.queued: List[tuple] = []
        self.size = 0
        self.emitted = 0
        self.inp_loads = self.wgt_loads = self.flushes = 0
        self.constants: List[LayerConstants] = []
        self.markers: List[LayerMarker] = []

    def __len__(self) -> int:
        return self.size

    def add_layer(self, partition: LayerPartition, dataflow: str,
                  *args) -> None:
        """Queue one layer: its :func:`_emit_layer` arguments after
        ``cfg``."""
        gr = -(-partition.out_h // partition.rows_per_group)
        gk = -(-partition.out_channels // partition.k_per_group)
        gc = -(-partition.channels // partition.c_per_group)
        if dataflow == "is" and gc > 1:
            raise CompileError(
                f"{partition.layer_name}: IS dataflow requires the whole "
                f"strip depth on chip (GC={gc}); use WS"
            )
        self.size += _stream_length(dataflow, gk, gr, gc)
        self.queued.append((partition, dataflow) + args)

    def finish(self) -> Program:
        self.cells = np.zeros((_VAL + len(COLUMNS), self.size), np.int64)
        self.layer = np.empty(self.size, dtype=np.int64)
        for args in self.queued:
            _emit_layer(self, self.cfg, *args)
        opcodes = self.cells[_OP]
        table = DescriptorTable(
            opcodes.copy(), self.layer, self.cells[_VAL:], self.constants
        )
        return Program.from_columns(
            opcodes, self.cells[_DEPT], self.cells[_ROW:_VAL].T,
            markers=self.markers, metadata={"descriptors": table},
        )


def _stream_length(dataflow: str, gk: int, gr: int, gc: int) -> int:
    """Instructions of one layer's stream, its LOAD_BIAS included."""
    if dataflow == "is":
        return 1 + gr * (1 + 3 * gk)
    if gc == 1:
        return 1 + gk * (1 + 3 * gr)
    return 1 + gk * gr * (3 * gc + 1)


def _loop_nest(cells: np.ndarray, dataflow: str, gk: int, gr: int, gc: int):
    """Views of one layer's LOAD_INP, LOAD_WGT, COMP and SAVE cells.

    ``cells`` holds the layer's instructions in stream order, LOAD_BIAS
    first.  Each view has shape ``(len(cells), GK or 1, GR or 1, GC or
    1)``: the instructions of one opcode laid out on the (k group, row
    group, c group) grid.  Each nest repeats one body per outer
    iteration:

    * IS, per row group: LOAD_INP, then per k group LOAD_WGT, COMP,
      SAVE;
    * WS with GC = 1, per k group: LOAD_WGT, then per row group
      LOAD_INP, COMP, SAVE;
    * WS with GC > 1, per (k group, row group): per c group LOAD_WGT,
      LOAD_INP, COMP; then SAVE.
    """
    x = len(cells)
    if dataflow == "is":
        body = cells[:, 1:].reshape(x, gr, 1 + 3 * gk)
        wgt, comp, save = (
            body[:, :, 1:].reshape(x, gr, gk, 3).transpose(3, 0, 2, 1)[..., None]
        )
        return body[:, None, :, :1], wgt, comp, save
    if gc == 1:
        body = cells[:, 1:].reshape(x, gk, 1 + 3 * gr)
        inp, comp, save = (
            body[:, :, 1:].reshape(x, gk, gr, 3).transpose(3, 0, 1, 2)[..., None]
        )
        return inp, body[:, :, None, :1], comp, save
    body = cells[:, 1:].reshape(x, gk, gr, 3 * gc + 1)
    wgt, inp, comp = (
        body[..., :-1].reshape(x, gk, gr, gc, 3).transpose(4, 0, 1, 2, 3)
    )
    return inp, wgt, comp, body[..., -1:]


def _emit_layer(
    segment: _Segment,
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
    """Emit one layer's instruction stream (IS or WS loop order) into
    the segment's cells.

    No Python object is made per instruction.  :func:`_loop_nest` views
    each opcode's instructions as a (k, row, c) group grid, so every
    field and descriptor value is one assignment of the group tables
    broadcast over that grid.  A buffer half is the parity of its
    running load (or flush) count, carried across the segment's layers;
    a COMP waits for a shared buffer on the first COMP of its group and
    frees it on the last; LOAD_WGT offsets and sizes are the packed
    weights' (k-group, c-group) directory, broadcast over the row groups.
    """
    rgroups = np.array(row_groups(partition), dtype=np.int64).reshape(-1, 2)
    gr, gk, gc = len(rgroups), len(packed.k_groups), len(packed.c_groups)
    start = segment.emitted
    end = start + _stream_length(dataflow, gk, gr, gc)
    cells = segment.cells[:, start:end]
    inp, wgt, comp, save = _loop_nest(cells, dataflow, gk, gr, gc)
    segment.layer[start:end] = len(segment.constants)

    # The group tables and indices, broadcast over the (k, row, c) grid.
    k0, k_count = packed.k_groups.T[:, :, None, None]
    y0, rows_valid = rgroups.T[:, None, :, None]
    c0, c_count = packed.c_groups.T[:, None, None, :]
    k = np.arange(gk)[:, None, None]
    r = np.arange(gr)[None, :, None]
    c = np.arange(gc)[None, None, :]
    k_vecs = -(-k_count // cfg.po)
    c_vecs = -(-c_count // cfg.pi)
    wino = 1 if partition.mode == "wino" else 0
    clear = c == 0
    flush = c == gc - 1

    # Ping-pong halves: parities of running counts, carried over from
    # the segment's earlier layers.  Within the layer, an instruction's
    # count is its rank in loop order.  A LOAD writes the half of its
    # own count; a COMP reads the halves of the latest loads and fills
    # the output half its group's flush leaves, which its SAVE drains.
    if dataflow == "is":
        inp_count = r
        wgt_count = flush_count = r * gk + k
    else:
        flush_count = k * gr + r
        inp_count = flush_count * gc + c
        wgt_count = k if gc == 1 else inp_count
    inp_half = (segment.inp_loads + inp_count) & 1
    wgt_half = (segment.wgt_loads + wgt_count) & 1
    out_half = (segment.flushes + flush_count) & 1
    segment.inp_loads += inp[_OP].size
    segment.wgt_loads += wgt[_OP].size
    segment.flushes += save[_OP].size

    # LOAD_BIAS
    bias = cells[:, 0]
    bias[_OP] = _LOAD_BIAS
    bias[_LOAD["size_chan"]] = -(-partition.out_channels // cfg.po)
    bias[_LOAD["size_rows"]] = bias[_LOAD["size_cols"]] = 1
    bias[_DESC["count"]] = bias[_DESC["elems"]] = partition.out_channels

    # LOAD_INP: a strip whose rows may hang over the feature's edge (the
    # load manager zero-fills).
    y_start = y0 * partition.stride - partition.padding
    strip = partition.strip_rows
    pad_top = np.maximum(0, -y_start)
    pad_bottom = np.maximum(0, y_start + strip - src.height)
    rows_read = np.maximum(strip - pad_top - pad_bottom, 0)
    inp[_OP] = _LOAD_INP
    inp[_DEPT] = _WAIT_FREE | _EMIT
    inp[_LOAD["buff_id"]] = inp_half
    inp[_LOAD["size_chan"]] = c_vecs
    inp[_LOAD["size_rows"]] = rows_read
    inp[_LOAD["size_cols"]] = src.width
    inp[_LOAD["pads_top"]] = pad_top
    inp[_LOAD["pads_bottom"]] = pad_bottom
    inp[_LOAD["pads_left"]] = inp[_LOAD["pads_right"]] = partition.padding
    inp[_LOAD["wino_flag"]] = 1 if src.layout == layouts.WINO else 0
    inp[_DESC["y_start"]] = y_start
    inp[_DESC["rows"]] = strip
    inp[_DESC["c0"]] = c0
    inp[_DESC["c_count"]] = c_count
    inp[_DESC["elems"]] = rows_read * src.width * c_vecs * cfg.pi
    inp[_DESC["half"]] = inp_half

    # LOAD_WGT: its block of the packed (k-group, c-group) directory.
    coeff_rows, coeff_cols = packed.block_shape[1:]
    wgt[_OP] = _LOAD_WGT
    wgt[_DEPT] = _WAIT_FREE | _EMIT
    wgt[_LOAD["buff_id"]] = wgt_half
    wgt[_LOAD["size_chan"]] = k_vecs * c_vecs
    wgt[_LOAD["size_rows"]] = coeff_rows
    wgt[_LOAD["size_cols"]] = coeff_cols
    wgt[_LOAD["wino_flag"]] = wino
    wgt[_DESC["offset"]] = packed.slot_offsets[:, None, :]
    wgt[_DESC["elems"]] = packed.slot_elems[:, None, :]
    wgt[_DESC["k_count"]] = k_count
    wgt[_DESC["c_count"]] = c_count
    wgt[_DESC["half"]] = wgt_half

    # COMP: IS shares one input strip across the k groups and WS with
    # GC = 1 one weight group across the row groups; the first COMP of
    # such a group waits for the buffer and the last frees it.  Partial
    # sums accumulate over the c groups and flush on the last.
    shares_inp = dataflow == "is"
    shares_wgt = dataflow == "ws" and gc == 1
    relu_flag = flush & relu
    comp[_OP] = _COMP
    comp[_DEPT] = (
        _WAIT_INP * ((k == 0) if shares_inp else 1)
        | _FREE_INP * ((k == gk - 1) if shares_inp else 1)
        | _WAIT_WGT * ((r == 0) if shares_wgt else 1)
        | _FREE_WGT * ((r == gr - 1) if shares_wgt else 1)
        | (_EMIT | _WAIT_FREE) * flush
    )
    comp[_CMP["iw_number"]] = comp[_DESC["out_w"]] = partition.out_w
    comp[_CMP["ic_number"]] = c_vecs
    comp[_CMP["oc_number"]] = k_vecs
    comp[_CMP["stride_size"]] = partition.stride
    comp[_CMP["relu_flag"]] = comp[_DESC["relu"]] = relu_flag
    comp[_CMP["quan_param"]] = quan_param
    comp[_CMP["wino_flag"]] = wino
    comp[_CMP["accum_clear"]] = comp[_DESC["clear"]] = clear
    comp[_CMP["accum_flush"]] = comp[_DESC["flush"]] = flush
    comp[_CMP["inp_buff_id"]] = comp[_DESC["inp_half"]] = inp_half
    comp[_CMP["wgt_buff_id"]] = comp[_DESC["wgt_half"]] = wgt_half
    comp[_CMP["out_buff_id"]] = comp[_DESC["out_half"]] = out_half
    comp[_DESC["k0"]] = k0
    comp[_DESC["k_count"]] = k_count
    comp[_DESC["c0"]] = c0
    comp[_DESC["c_count"]] = c_count
    comp[_DESC["rows_out"]] = partition.rows_per_group

    # SAVE: the output half of its group's flushing COMP.
    rows_dst = rows_valid // pool if pool > 1 else rows_valid
    save[_OP] = _SAVE
    save[_DEPT] = _WAIT_INP | _FREE_INP
    save[_SAV["buff_id"]] = save[_DESC["half"]] = out_half
    save[_SAV["size_chan"]] = save[_SAV["oc_blk_number"]] = k_vecs
    save[_SAV["size_rows"]] = (
        np.maximum(rows_dst, 1) if pool > 1 else rows_valid
    )
    save[_SAV["size_cols"]] = dst.width
    save[_SAV["wino_flag"]] = wino
    save[_SAV["dst_wino_flag"]] = 1 if dst.layout == layouts.WINO else 0
    save[_SAV["pool_size"]] = save[_DESC["pool"]] = pool
    save[_SAV["iw_blk_number"]] = 1
    save[_SAV["ow_blk_number"]] = max(1, dst.width // 255 + 1)
    save[_DESC["y0_out"]] = y0
    save[_DESC["rows_valid"]] = rows_valid
    save[_DESC["k0"]] = k0
    save[_DESC["k_count"]] = k_count
    save[_DESC["elems"]] = np.maximum(k_vecs * cfg.po * rows_dst * dst.width, 0)

    segment.constants.append(LayerConstants(
        mode=partition.mode,
        stride=partition.stride,
        kernel=partition.kernel,
        blocks=partition.blocks,
        padding=partition.padding,
        coeff_shape=(coeff_rows, coeff_cols),
        src_region=src.region,
        src_layout=src.layout,
        src_channels=src.channels,
        src_height=src.height,
        src_width=src.width,
        dst_region=dst.region,
        dst_layout=dst.layout,
        dst_channels=dst.channels,
        dst_height=dst.height,
        dst_width=dst.width,
        wgt_region=f"wgt:{partition.layer_name}",
        bias_region=f"bias:{partition.layer_name}",
        wgt_scales=packed.scales,
    ))
    segment.markers.append(LayerMarker(
        partition.layer_name, start, end, partition.mode, dataflow
    ))
    segment.emitted = end


def _kernel_shape(layer, info, weight_shape: Tuple[int, ...]):
    """The ``(K, C, R, S)`` kernel shape a layer's weights pack as.

    Dense ``(M, N)`` matrices pack as ``(M, N, 1, 1)``.
    """
    if isinstance(layer, Dense):
        kernel_shape = (layer.out_features, info.input_shape.size, 1, 1)
        if int(np.prod(weight_shape)) != int(np.prod(kernel_shape)):
            raise CompileError(
                f"{layer.name}: weights {tuple(weight_shape)} do not fit "
                f"{layer.out_features}x{info.input_shape.size}"
            )
        return kernel_shape
    if len(weight_shape) != 4:
        raise CompileError(
            f"{layer.name}: weights {tuple(weight_shape)} are not (K, C, R, S)"
        )
    return tuple(weight_shape)


def compile_network(
    network: Network,
    cfg: AcceleratorConfig,
    mapping: NetworkMapping,
    params: Mapping[str, Mapping[str, np.ndarray]],
    options: Optional[CompilerOptions] = None,
) -> CompiledModel:
    """Compile ``network`` for one accelerator instance.

    ``params`` maps layer name -> ``{"weights": (K,C,R,S) or (M,N),
    "bias": (K,)}`` arrays: a plain dict or a deferred
    :class:`~repro.runtime.params.ParameterSet`.  Under
    ``options.pack_data=False`` only their shapes are read, so a
    ParameterSet is never drawn.
    """
    # Imported here: the repro.runtime package imports this module.
    from repro.runtime.params import parameter_shapes

    options = options or CompilerOptions()
    mapping.validate_against(network)
    weight_type = cfg.weight_type if options.quantize else None

    steps: List[Union[AccelStep, HostStep]] = []
    fmaps: Dict[str, FeatureMapSpec] = {}
    weights: Dict[str, PackedWeights] = {}
    biases: Dict[str, np.ndarray] = {}
    partitions: Dict[str, LayerPartition] = {}

    first_compute = next(
        (i for i in network.compute_layers()), None
    )
    if first_compute is None:
        raise CompileError("network has no compute layers")
    in_mode = mapping.for_layer(first_compute.layer.name).mode
    current = FeatureMapSpec(
        region="fmap:in",
        channels=network.input_shape.channels,
        height=network.input_shape.height,
        width=network.input_shape.width,
        layout=layouts.WINO if in_mode == "wino" else layouts.SPAT,
    )
    input_spec = current
    fmaps["in"] = current

    segment: Optional[_Segment] = None

    def open_segment() -> _Segment:
        nonlocal segment
        if segment is None:
            segment = _Segment(cfg)
        return segment

    def close_segment() -> None:
        nonlocal segment
        if segment is not None and len(segment):
            steps.append(AccelStep(program=segment.finish()))
        segment = None

    infos = list(network)
    skip = set()
    for info in infos:
        index = info.index
        layer = info.layer
        if index in skip:
            continue
        if isinstance(layer, (Conv2D, Dense)):
            m = mapping.for_layer(layer.name)
            pool = fused_pool_for(network, index)
            relu = bool(getattr(layer, "relu", False))
            out_shape = info.output_shape
            if not relu and network.fused_relu_after(index):
                relu = True
                skip.add(index + 1)
            if pool > 1:
                pool_info = infos[index + (2 if (index + 1) in skip else 1)]
                skip.add(pool_info.index)
                out_shape = pool_info.output_shape
            partition = partition_layer(
                cfg, info, m.mode, fused_pool=pool
            )
            partitions[layer.name] = partition

            weight_shape, bias_shape = parameter_shapes(params, layer.name)
            if weight_shape is None:
                raise CompileError(f"missing weights for {layer.name!r}")
            kernel_shape = _kernel_shape(layer, info, weight_shape)
            if options.pack_data:
                layer_params = params[layer.name]
                kernels = np.asarray(
                    layer_params["weights"], dtype=np.float64
                ).reshape(kernel_shape)
                bias = layer_params.get("bias")
            else:
                # Timing-only: read shapes, never values.
                kernels = kernel_shape
                bias = None if bias_shape is None else np.zeros(bias_shape)
            packed = pack_weights(
                cfg, partition, kernels, weight_type,
                data=options.pack_data,
            )
            weights[layer.name] = packed
            biases[layer.name] = pack_bias(partition, bias)

            dst_layout = _consumer_layout(
                network, pool_info.index if pool > 1 else index, mapping
            )
            dst = FeatureMapSpec(
                region=f"fmap:{layer.name}",
                channels=out_shape.channels,
                height=out_shape.height,
                width=out_shape.width,
                layout=dst_layout,
            )
            fmaps[layer.name] = dst
            open_segment().add_layer(
                partition,
                m.dataflow,
                current,
                dst,
                packed,
                relu,
                pool,
                cfg.feature_type.frac if options.quantize else 0,
            )
            current = dst
        elif isinstance(layer, ReLU):
            # Unfused stand-alone ReLU -> host step.
            close_segment()
            dst = FeatureMapSpec(
                region=f"fmap:{layer.name}",
                channels=current.channels,
                height=current.height,
                width=current.width,
                layout=_consumer_layout(network, index, mapping),
            )
            fmaps[layer.name] = dst
            steps.append(HostStep("relu", layer.name, current, dst))
            current = dst
        elif isinstance(layer, (MaxPool2D, AvgPool2D)):
            # Reaching here means the pool was not fusable.
            close_segment()
            out_shape = info.output_shape
            dst = FeatureMapSpec(
                region=f"fmap:{layer.name}",
                channels=out_shape.channels,
                height=out_shape.height,
                width=out_shape.width,
                layout=_consumer_layout(network, index, mapping),
            )
            fmaps[layer.name] = dst
            op = "maxpool" if isinstance(layer, MaxPool2D) else "avgpool"
            steps.append(
                HostStep(
                    op,
                    layer.name,
                    current,
                    dst,
                    params={"pool": layer.pool_size, "stride": layer.stride},
                )
            )
            current = dst
        elif isinstance(layer, Flatten):
            close_segment()
            out_shape = info.output_shape
            dst = FeatureMapSpec(
                region=f"fmap:{layer.name}",
                channels=out_shape.channels,
                height=1,
                width=1,
                layout=_consumer_layout(network, index, mapping),
            )
            fmaps[layer.name] = dst
            steps.append(HostStep("flatten", layer.name, current, dst))
            current = dst
        else:
            raise CompileError(
                f"cannot compile layer type {type(layer).__name__}"
            )
    close_segment()

    return CompiledModel(
        network_name=network.name,
        cfg=cfg,
        mapping=mapping,
        options=options,
        steps=steps,
        input_spec=input_spec,
        output_spec=current,
        fmaps=fmaps,
        weights=weights,
        biases=biases,
        partitions=partitions,
    )
