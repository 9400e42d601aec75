"""Latency models (Eq. 6-15).

Per-layer timing of the four functional modules, the four
(mode x dataflow) combinations, and the ``T_penalty`` term for memory
latency that cannot be hidden.

Notation, matching the paper: a layer has ``C`` input channels of
``H x W`` input, ``K`` output channels of ``H_out x W_out`` output, an
``R x S`` kernel, and runs on a PE with parallel factors ``PI, PO, PT``
at ``FREQ``.  ``GK`` weight groups follow from the weight-buffer sizing
(Section 4.2.4, computed in :mod:`repro.mapping.partition`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from repro.arch.params import AcceleratorConfig
from repro.arch.pe import PIPELINE_DEPTH
from repro.errors import UnsupportedLayerError
from repro.fpga.device import FpgaDevice
from repro.ir.graph import LayerInfo, Network
from repro.mapping.partition import fused_pool_for, partition_layer
from repro.mapping.strategy import NetworkMapping
from repro.numeric import left_sum

#: Per-instruction overhead folded into T_penalty: DDR setup plus COMP
#: pipeline fill (see repro.arch.dram / repro.arch.pe).
GROUP_OVERHEAD_CYCLES = 64 + PIPELINE_DEPTH


@dataclass(frozen=True)
class LayerEstimate:
    """Analytical latency breakdown of one layer (seconds)."""

    layer_name: str
    mode: str
    dataflow: str
    t_comp: float
    t_ldi: float
    t_ldw: float
    t_sv: float
    t_penalty: float
    latency: float
    bound: str  # "compute" | "input" | "weight" | "save"
    ops: int

    @property
    def gops(self) -> float:
        """Effective single-instance throughput while running this layer."""
        return self.ops / self.latency / 1e9 if self.latency > 0 else 0.0


@dataclass(frozen=True)
class NetworkEstimate:
    """Whole-network analytical estimate.

    ``latency`` and ``ops`` are O(layers) sums that sit inside DSE sort
    keys and objectives, so they are computed once per instance
    (``cached_property`` writes straight into ``__dict__``, which the
    frozen dataclass permits).
    """

    network_name: str
    layers: List[LayerEstimate]
    instances: int

    @cached_property
    def latency(self) -> float:
        """End-to-end latency of one image (seconds, Table-2 objective)."""
        return left_sum([layer.latency for layer in self.layers])

    @cached_property
    def ops(self) -> int:
        return sum(layer.ops for layer in self.layers)

    @property
    def gops_per_instance(self) -> float:
        return aggregate_gops(self.ops, self.latency, 1)

    @property
    def gops(self) -> float:
        """Aggregate throughput: instances run batch-parallel images."""
        return aggregate_gops(self.ops, self.latency, self.instances)

    def bound_histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for layer in self.layers:
            counts[layer.bound] = counts.get(layer.bound, 0) + 1
        return counts


def aggregate_gops(ops: int, latency: float, instances: int) -> float:
    """GOPS of ``instances`` batch-parallel copies of a network with
    this per-image ``latency`` — :attr:`NetworkEstimate.gops`, and the
    DSE's throughput objective without building the estimate."""
    per_instance = ops / latency / 1e9 if latency else 0.0
    return per_instance * instances


def _module_times(cfg, device, info, mode):
    """T_CP, T_LDI, T_LDW, T_SV of Eq. 6-11 (whole layer, seconds)."""
    from repro.ir.layers import Dense

    layer = info.layer
    if isinstance(layer, Dense):
        c, h, w = info.input_shape.size, 1, 1
        r = s = 1
        k = layer.out_features
    else:
        c = info.input_shape.channels
        h, w = info.input_shape.height, info.input_shape.width
        r, s = layer.kernel_size
        k = layer.out_channels
    out_h, out_w = info.output_shape.height, info.output_shape.width

    freq = cfg.frequency_hz
    bw_f = device.bandwidth_elems(cfg.data_width, cfg.instances)
    bw_w = device.bandwidth_elems(cfg.weight_width, cfg.instances)
    pi, po, pt, m = cfg.pi, cfg.po, cfg.pt, cfg.m

    if mode == "wino":
        blocks = (-(-r // 3)) * (-(-s // 3))
        t_comp = (k * c * blocks * pt * pt * out_h * out_w) / (
            freq * pi * po * pt * pt * m * m
        )  # Eq. 7
        wgt_elems = k * c * blocks * pt * pt
    else:
        t_comp = (k * c * r * s * out_h * out_w) / (
            freq * pi * po * pt * pt
        )  # Eq. 6
        wgt_elems = k * c * r * s
    t_ldw = wgt_elems / min(bw_w, freq * pi * po * pt)  # Eq. 8 / 9
    t_ldi = (c * h * w) / min(bw_f, freq * pi * pt)  # Eq. 10
    t_sv = (k * out_h * out_w) / min(bw_f, freq * po * pt)  # Eq. 11
    return t_comp, t_ldi, t_ldw, t_sv


def estimate_layer(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    info: LayerInfo,
    mode: str,
    dataflow: str,
    fused_pool: int = 1,
    partition=None,
) -> LayerEstimate:
    """Eq. 12-15: one layer's latency under (mode, dataflow).

    ``T_penalty`` models the un-hidable prologue (first strip + first
    weight group loads), epilogue (last save) and per-group DDR/pipeline
    overheads — the effects the max() of Eq. 12-15 abstracts away.  The
    latency equations are calibration-free: calibration feeds the
    resource model (Eq. 3-5) only.

    ``partition`` may carry a precomputed
    :class:`~repro.mapping.partition.LayerPartition` for this
    (layer, cfg, mode, fused_pool) — the group geometry is independent of
    the dataflow, data widths, clock and instance count, so the
    evaluation cache shares it across those dimensions.
    """
    if partition is None:
        partition = partition_layer(cfg, info, mode, fused_pool)
    if dataflow == "is" and partition.n_c_groups > 1:
        # IS keeps a whole strip resident across all weight groups, which
        # is impossible once the channel depth is chunked (GC > 1); the
        # compiler enforces the same rule.
        raise UnsupportedLayerError(
            f"{info.layer.name}: IS dataflow requires GC == 1 "
            f"(got {partition.n_c_groups})"
        )
    t_comp, t_ldi, t_ldw, t_sv = _module_times(cfg, device, info, mode)
    gk = partition.n_k_groups * partition.n_c_groups
    n_rows = partition.n_row_groups

    if dataflow == "is":
        # Eq. 12 / 14: weights stream once per row group.
        body = max(t_ldi, n_rows * t_ldw, t_comp, t_sv)
    elif dataflow == "ws":
        # Eq. 13 / 15: inputs stream once per weight group.
        body = max(gk * t_ldi, t_ldw, t_comp, t_sv)
    else:
        raise UnsupportedLayerError(f"unknown dataflow {dataflow!r}")

    groups = partition.total_groups
    t_penalty = (
        t_ldi / max(n_rows, 1)
        + t_ldw / max(gk, 1)
        + t_sv / max(n_rows, 1)
        + groups * GROUP_OVERHEAD_CYCLES / cfg.frequency_hz
    )
    terms = {
        "input": t_ldi if dataflow == "is" else gk * t_ldi,
        "weight": n_rows * t_ldw if dataflow == "is" else t_ldw,
        "compute": t_comp,
        "save": t_sv,
    }
    bound = max(terms, key=terms.get)
    return LayerEstimate(
        layer_name=info.layer.name,
        mode=mode,
        dataflow=dataflow,
        t_comp=t_comp,
        t_ldi=t_ldi,
        t_ldw=t_ldw,
        t_sv=t_sv,
        t_penalty=t_penalty,
        latency=body + t_penalty,
        bound=bound,
        ops=info.ops,
    )


def estimate_network(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    network: Network,
    mapping: NetworkMapping,
    cache=None,
) -> NetworkEstimate:
    """Sum of per-layer estimates — the Table-2 objective.

    ``cache`` is an optional :class:`repro.pipeline.cache.EvaluationCache`
    (accepted duck-typed to keep the estimator import-free of the
    pipeline layer); ``map_network`` threads one through so
    re-estimating the selected mapping costs dictionary lookups, not
    model evaluations.
    """
    estimate_fn = cache.estimate if cache is not None else estimate_layer
    mapping.validate_against(network)
    layers = []
    for info in network.compute_layers():
        m = mapping.for_layer(info.layer.name)
        pool = fused_pool_for(network, info.index)
        layers.append(
            estimate_fn(cfg, device, info, m.mode, m.dataflow, pool)
        )
    return NetworkEstimate(
        network_name=network.name, layers=layers, instances=cfg.instances
    )
