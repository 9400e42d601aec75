"""CONV operation partitioning (Section 4.2.4).

Feature maps are partitioned into row groups along the height: one
output row per group in Spatial mode, ``m`` rows (one tile row) in
Winograd mode.  Weights are partitioned along the output-channel
dimension into ``GK`` groups sized to the weight buffer.  When even one
output-channel granule does not fit (large FC layers), the input-channel
dimension is additionally split into ``GC`` chunks and the accumulating
buffer carries partial sums across COMP instructions.

The same :class:`LayerPartition` drives the analytical latency model,
the compiler's instruction emission and the simulator's buffer checks,
so there is a single source of truth for group geometry.  The DSE asks
a narrower question of many designs at once: only the group *counts*,
for every (layer, design) of a batch.  :class:`LayerColumns` answers it
with int64 arrays, sharing :func:`layer_shape` and
:func:`row_geometry` with :func:`partition_layer`; its buffer
arithmetic is the scalar one written over columns, and
``tests/test_mapping_partition.py`` holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DseError, ResourceError, UnsupportedLayerError
from repro.arch.params import SUPPORTED_PT, AcceleratorConfig, output_tile
from repro.ir.graph import LayerInfo
from repro.ir.layers import Conv2D, Dense
from repro.winograd.decompose import decomposition_blocks

#: Most output rows one group may hold while growing to whole pool
#: windows.
MAX_GROUP_ROWS = 16


@dataclass(frozen=True)
class LayerPartition:
    """Group geometry of one compute layer under one mode.

    All element counts are *padded* to whole channel vectors where the
    hardware requires it; ``weight_elems_group`` is the DRAM traffic of
    one LOAD_WGT (already reflecting the Winograd expansion to ``PT^2``
    coefficients per decomposition block, Eq. 9).
    """

    layer_name: str
    mode: str
    # convolution geometry
    channels: int
    out_channels: int
    kernel: Tuple[int, int]
    stride: int
    padding: int
    in_h: int
    in_w: int
    out_h: int
    out_w: int
    fused_pool: int
    relu: bool
    # row groups
    rows_per_group: int  # output rows produced per group
    n_row_groups: int
    strip_rows: int  # input rows loaded per group
    # weight groups
    k_per_group: int
    n_k_groups: int  # the paper's GK
    c_per_group: int
    n_c_groups: int  # GC (input-channel split; 1 for most layers)
    # decomposition
    blocks: Tuple[Tuple[int, int], ...]
    # buffer occupancies (in elements)
    strip_elems: int
    weight_elems_group: int
    out_group_elems: int

    @property
    def total_groups(self) -> int:
        """Row x weight x channel group count — COMP instruction count."""
        return self.n_row_groups * self.n_k_groups * self.n_c_groups

    @property
    def weight_elems_total(self) -> int:
        """DRAM size of this layer's packed weights (one copy)."""
        return self.weight_elems_group * self.n_k_groups * self.n_c_groups


def layer_shape(info: LayerInfo) -> Tuple[int, ...]:
    """``(C, K, R, S, stride, padding, H, W, out_H, out_W)`` of a CONV
    layer, or of the 1x1 convolution a Dense layer executes as."""
    layer = info.layer
    out = info.output_shape
    if isinstance(layer, Dense):
        return (info.input_shape.size, layer.out_features, 1, 1, 1, 0,
                1, 1, out.height, out.width)
    if not isinstance(layer, Conv2D):
        raise UnsupportedLayerError(
            f"{layer.name}: only CONV/FC layers map onto the PE"
        )
    shape = info.input_shape
    r, s = layer.kernel_size
    return (shape.channels, layer.out_channels, r, s, layer.stride,
            layer.padding, shape.height, shape.width, out.height, out.width)


def row_geometry(
    mode: str, pt: int, kernel: Tuple[int, int], stride: int,
    fused_pool: int,
) -> Optional[Tuple[int, int, Tuple[Tuple[int, int], ...]]]:
    """``(rows per group, strip rows, decomposition blocks)`` of one
    (mode, PT, kernel, stride, pool), or ``None`` when no group of at
    most :data:`MAX_GROUP_ROWS` rows holds whole pool windows.

    The strip rows are those one group loads before clipping to the
    padded input height.
    """
    r, s = kernel
    if mode == "wino":
        rows_per_group = output_tile(pt)
        blocks = tuple(decomposition_blocks(r, s, 3))
        strip_rows = pt + max(dr for dr, _ in blocks)
    else:
        rows_per_group = 1
        blocks = ((0, 0),)
        strip_rows = r
    if fused_pool > 1:
        # Fused pooling needs whole pool windows inside one SAVE group.
        while rows_per_group % fused_pool:
            rows_per_group += 1 if mode == "spat" else rows_per_group
            if rows_per_group > MAX_GROUP_ROWS:
                return None
        if mode == "spat":
            strip_rows = (rows_per_group - 1) * stride + r
    return rows_per_group, strip_rows, blocks


def partition_layer(
    cfg: AcceleratorConfig,
    info: LayerInfo,
    mode: str,
    fused_pool: int = 1,
) -> LayerPartition:
    """Compute the group partitioning of ``info`` under ``mode``.

    Raises :class:`ResourceError` when a single group cannot fit the
    configured on-chip buffers and
    :class:`UnsupportedLayerError` for Winograd with stride > 1.
    """
    name = info.layer.name
    c, k, r, s, stride, padding, in_h, in_w, out_h, out_w = layer_shape(info)

    if mode == "wino" and stride != 1:
        raise UnsupportedLayerError(
            f"{name}: Winograd requires stride 1, got {stride}"
        )
    if mode not in ("spat", "wino"):
        raise UnsupportedLayerError(f"unknown mode {mode!r}")

    # -- row groups -----------------------------------------------------
    rows = row_geometry(mode, cfg.pt, (r, s), stride, fused_pool)
    if rows is None:
        raise UnsupportedLayerError(
            f"{name}: cannot align pool {fused_pool} with mode {mode}"
        )
    rows_per_group, strip_rows, blocks = rows

    # A strip never needs more rows than the padded input provides
    # (1x1 features executed as FC, small inputs).
    strip_rows = min(strip_rows, in_h + 2 * padding)

    n_row_groups = -(-out_h // rows_per_group)

    # -- buffer capacities (elements) --------------------------------------
    input_capacity = cfg.input_buffer_vecs * cfg.pi
    weight_capacity = cfg.weight_buffer_vecs * cfg.pi * cfg.po
    output_capacity = cfg.output_buffer_vecs * cfg.po

    granule = cfg.po * cfg.pt if mode == "spat" else cfg.po
    per_c_elems = len(blocks) * cfg.pt * cfg.pt if mode == "wino" else r * s
    k_padded = -(-k // granule) * granule
    padded_w = in_w + 2 * padding

    def _floor_multiple(value: int, step: int) -> int:
        return (value // step) * step

    # -- input-channel chunking (the adaptive partition of Sec. 4.2.4) ----
    # A chunk of channels must fit both the input-strip buffer and, with
    # at least one output-channel granule, the weight buffer.
    strip_footprint = strip_rows * padded_w  # elements per channel
    c_strip_max = input_capacity // strip_footprint
    if c_strip_max >= c:
        c_strip_allowed = c
    else:
        c_strip_allowed = _floor_multiple(c_strip_max, cfg.pi)
        if c_strip_allowed < cfg.pi:
            raise ResourceError(
                f"{name}: even {cfg.pi} channels of one input strip "
                f"({cfg.pi * strip_footprint} elements) exceed the input "
                f"buffer half ({input_capacity})"
            )
    c_wgt_max = weight_capacity // (granule * per_c_elems)
    if c_wgt_max >= c:
        c_wgt_allowed = c
    else:
        c_wgt_allowed = _floor_multiple(c_wgt_max, cfg.pi)
        if c_wgt_allowed < cfg.pi:
            raise ResourceError(
                f"{name}: one weight granule with {cfg.pi} channels "
                f"({granule * per_c_elems * cfg.pi} elements) exceeds the "
                f"weight buffer half ({weight_capacity})"
            )
    c_per_group = min(c, c_strip_allowed, c_wgt_allowed)
    n_c_groups = -(-c // c_per_group)

    c_vecs = -(-c_per_group // cfg.pi)
    strip_elems = c_vecs * cfg.pi * strip_footprint

    # -- output-channel groups --------------------------------------------
    k_wgt_max = weight_capacity // (per_c_elems * c_per_group)
    k_out_max = output_capacity // (rows_per_group * out_w)
    k_per_group = _floor_multiple(min(k_wgt_max, k_out_max), granule)
    if k_per_group < granule:
        if k_out_max < granule:
            raise ResourceError(
                f"{name}: one output group of {granule} channels "
                f"({granule * rows_per_group * out_w} elements) exceeds "
                f"the output buffer half ({output_capacity})"
            )
        raise ResourceError(
            f"{name}: one weight granule does not fit the weight "
            f"buffer half ({weight_capacity})"
        )
    k_per_group = min(k_per_group, k_padded)
    n_k_groups = -(-k_padded // k_per_group)

    weight_elems_group = k_per_group * c_per_group * per_c_elems
    out_group_elems = k_per_group * rows_per_group * out_w

    relu = bool(getattr(info.layer, "relu", False))
    return LayerPartition(
        layer_name=name,
        mode=mode,
        channels=c,
        out_channels=k,
        kernel=(r, s),
        stride=stride,
        padding=padding,
        in_h=in_h,
        in_w=in_w,
        out_h=out_h,
        out_w=out_w,
        fused_pool=fused_pool,
        relu=relu,
        rows_per_group=rows_per_group,
        n_row_groups=n_row_groups,
        strip_rows=strip_rows,
        k_per_group=k_per_group,
        n_k_groups=n_k_groups,
        c_per_group=c_per_group,
        n_c_groups=n_c_groups,
        blocks=blocks,
        strip_elems=strip_elems,
        weight_elems_group=weight_elems_group,
        out_group_elems=out_group_elems,
    )


#: Rows of :meth:`LayerColumns.group_counts`: feasibility, then the
#: :class:`LayerPartition` counts ``n_k_groups * n_c_groups`` (GK·GC),
#: ``n_row_groups``, ``n_c_groups`` (GC) and ``total_groups``.
GROUP_COUNTS = ("feasible", "gk_gc", "row_groups", "gc", "groups")

#: Buffer capacities (elements) at or above this could wrap the int64
#: group arithmetic.
_CAPACITY_LIMIT = 2**62


class LayerColumns:
    """The layer side of the Sec. 4.2.4 group counts, for a batch.

    Each compute layer's :func:`layer_shape` and fused pool become
    ``(L, 1)`` int64 columns; :meth:`group_counts` takes the designs as
    ``(U,)`` columns (:class:`~repro.arch.params.ConfigColumns`) and
    returns :func:`partition_layer`'s counts for every (layer, design)
    at once.  Row geometry depends only on (mode, PT, kernel, stride,
    pool), so each call runs :func:`row_geometry` once per distinct
    combination, not once per layer.
    """

    def __init__(self, shapes: Sequence[Tuple[int, ...]],
                 pools: Sequence[int]):
        table = np.array(shapes, dtype=np.int64).reshape(-1, 10).T[:, :, None]
        c, k, r, s, _, padding, in_h, in_w, out_h, out_w = table
        self.c, self.k, self.out_h, self.out_w = c, k, out_h, out_w
        self.rs = r * s
        self.padded_h = in_h + 2 * padding
        self.padded_w = in_w + 2 * padding
        keys: dict = {}
        self._key_ids = np.array(
            [keys.setdefault((shape[2], shape[3], shape[4], pool), len(keys))
             for shape, pool in zip(shapes, pools)],
            dtype=np.intp,
        )
        self._keys = tuple(keys)

    def _row_columns(self, mode: str) -> np.ndarray:
        """``(P, 4, L)`` int64, per entry of ``SUPPORTED_PT``: feasible,
        rows per group, strip rows and decomposition blocks of every
        layer under ``mode``; an infeasible layer reads ``(0, 1, 1, 1)``."""
        per_key = []
        for pt in SUPPORTED_PT:
            for r, s, stride, pool in self._keys:
                rows = (
                    None if mode == "wino" and stride != 1
                    else row_geometry(mode, pt, (r, s), stride, pool)
                )
                per_key.append(
                    (0, 1, 1, 1) if rows is None
                    else (1, rows[0], rows[1], len(rows[2]))
                )
        table = np.array(per_key, dtype=np.int64).reshape(
            len(SUPPORTED_PT), -1, 4
        )
        return table[:, self._key_ids].transpose(0, 2, 1)

    def group_counts(self, mode: str, bases) -> np.ndarray:
        """``(5, L, U)`` int64, the :data:`GROUP_COUNTS` of every layer
        under ``mode`` on every design of ``bases``.

        Feasibility is 1 exactly where :func:`partition_layer` returns
        a partition, and the counts are its counts there; elsewhere they
        are placeholders.  The arithmetic is the scalar function's, in
        integers; an infeasible cell's divisors are clamped to 1 so that
        nothing divides by zero.
        """
        pi, po, pt = bases.pi, bases.po, bases.pt
        ok, rows, strip, blocks = self._row_columns(mode)[
            np.searchsorted(SUPPORTED_PT, pt)
        ].transpose(1, 2, 0)
        strip = np.minimum(strip, self.padded_h)
        n_rows = -(-self.out_h // rows)

        input_capacity = _capacity(bases.input_buffer_vecs, pi)
        weight_capacity = _capacity(bases.weight_buffer_vecs, pi, po)
        output_capacity = _capacity(bases.output_buffer_vecs, po)
        if mode == "wino":
            granule = po
            per_c_elems = blocks * pt * pt
        else:
            granule = po * pt
            per_c_elems = self.rs
        k_padded = -(-self.k // granule) * granule

        c = self.c
        c_strip_max = input_capacity // (strip * self.padded_w)
        c_wgt_max = weight_capacity // (granule * per_c_elems)
        ok = (
            (ok > 0)
            & ((c_strip_max >= c) | (c_strip_max >= pi))
            & ((c_wgt_max >= c) | (c_wgt_max >= pi))
        )
        c_per_group = np.maximum(np.minimum(
            c,
            np.minimum(_allowed(c_strip_max, c, pi),
                       _allowed(c_wgt_max, c, pi)),
        ), 1)
        n_c_groups = -(-c // c_per_group)

        k_wgt_max = weight_capacity // (per_c_elems * c_per_group)
        k_out_max = output_capacity // (rows * self.out_w)
        k_per_group = np.minimum(k_wgt_max, k_out_max) // granule * granule
        ok &= k_per_group >= granule
        # partition_layer's clamp of k_per_group to k_padded changes no
        # count: a group holding every padded channel is one group.
        n_k_groups = -(-k_padded // np.maximum(k_per_group, 1))
        return np.stack([
            ok, n_k_groups * n_c_groups, n_rows, n_c_groups,
            n_rows * n_k_groups * n_c_groups,
        ])


def _allowed(most: np.ndarray, c: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Channels one chunk may take when at most ``most`` fit: all
    ``c``, or else a whole multiple of ``PI``."""
    return np.where(most >= c, c, most // pi * pi)


def _capacity(vecs: np.ndarray, *widths: np.ndarray) -> np.ndarray:
    """A buffer half in elements, ``vecs`` times the vector widths, as
    int64; :class:`DseError` where the product could wrap."""
    largest = int(vecs.max())
    for width in widths:
        largest *= int(width.max())
    if largest >= _CAPACITY_LIMIT:
        raise DseError(
            f"buffer capacity {largest} is too large for exact int64 "
            f"group counts (>= 2**62)"
        )
    capacity = vecs
    for width in widths:
        capacity = capacity * width
    return capacity


def fused_pool_for(network, index: int) -> int:
    """Pool size to fuse into layer ``index``'s SAVE path, or 1.

    Only non-overlapping pooling (stride == size) directly following the
    compute layer is fused; anything else is executed by the host
    runtime between accelerator segments.
    """
    from repro.ir.layers import MaxPool2D

    layers = network.layers
    nxt = index + 1
    if nxt < len(layers) and isinstance(layers[nxt], MaxPool2D):
        pool = layers[nxt]
        if pool.stride == pool.pool_size:
            return pool.pool_size
    return 1


def row_groups(partition: LayerPartition) -> List[Tuple[int, int]]:
    """(first output row, row count) of every row group."""
    groups = []
    y = 0
    while y < partition.out_h:
        rows = min(partition.rows_per_group, partition.out_h - y)
        groups.append((y, rows))
        y += rows
    return groups


def k_groups(partition: LayerPartition) -> List[Tuple[int, int]]:
    """(first output channel, channel count) of every weight group,
    clipped to the real (unpadded) channel count."""
    groups = []
    k = 0
    while k < partition.out_channels:
        count = min(partition.k_per_group, partition.out_channels - k)
        groups.append((k, count))
        k += count
    return groups


def c_groups(partition: LayerPartition) -> List[Tuple[int, int]]:
    """(first input channel, channel count) of every channel chunk."""
    groups = []
    c = 0
    while c < partition.channels:
        count = min(partition.c_per_group, partition.channels - c)
        groups.append((c, count))
        c += count
    return groups
