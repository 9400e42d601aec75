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
from repro.isa.instructions import DeptFlag, Opcode
from repro.isa.program import Program
from repro.mapping.partition import (
    LayerPartition,
    c_groups,
    fused_pool_for,
    k_groups,
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

    em: Optional[_Emitter] = None

    def ensure_emitter() -> _Emitter:
        nonlocal em
        if em is None:
            em = _Emitter(cfg)
        return em

    def close_segment() -> None:
        nonlocal em
        if em is not None and len(em.program):
            steps.append(AccelStep(program=em.finish()))
        em = None

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
            emitter = ensure_emitter()
            _emit_layer(
                emitter,
                cfg,
                partition,
                m.dataflow,
                current,
                dst,
                packed,
                relu,
                pool,
                quan_param=cfg.feature_type.frac if options.quantize else 0,
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
