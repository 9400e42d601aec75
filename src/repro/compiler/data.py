"""Weight / bias data packing — the framework's "Data files".

Weights are packed in exactly the order the LOAD_WGT module streams
them: ``[k-group][c-group][block][k][c][coeff...]``.  For Winograd
layers the offline transform ``U = G g G^T`` (Section 4.2.3) is applied
per decomposition block before packing, and the transformed
coefficients are quantised to the weight data type (the paper quantises
DNN parameters to 8 bits, Table 4 footnote).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CompileError
from repro.arch.params import AcceleratorConfig
from repro.ir.tensor import DataType
from repro.mapping.partition import LayerPartition, c_groups, k_groups
from repro.winograd.decompose import decompose_kernel
from repro.winograd.matrices import algorithm_for_tile
from repro.winograd.transforms import transform_weight


@dataclass(frozen=True)
class WeightGroupSlot:
    """Location of one (k-group, c-group) inside the packed image."""

    k0: int
    k_count: int
    c0: int
    c_count: int
    offset: int  # element offset inside the layer's weight region
    elems: int
    shape: Tuple[int, ...]  # logical shape of the stored block


@dataclass(frozen=True)
class PackedWeights:
    """One layer's weight image plus its group directory.

    The directory is columnar: ``k_groups`` / ``c_groups`` hold the
    ``(first, count)`` of every output- and input-channel group (GK x 2,
    GC x 2), and :attr:`slot_offsets` / :attr:`slot_elems` give every
    (k-group, c-group) block's place in the image as GK x GC arrays.
    :attr:`slots` lists the same blocks as :class:`WeightGroupSlot`
    objects, built on first use.  ``image`` is empty when packed with
    ``data=False``; :attr:`elems` always counts the full image.

    ``scales`` (Winograd + quantised only) holds one power-of-two
    factor per (decomposition block, tile row, tile col): transformed
    coefficients are stored divided by their position's scale so the
    8-bit grid is well used, and the PE re-applies the scale as a shift
    before the output transform — the per-position block quantisation
    behind the paper's "correction term related to quantization
    strategies" (Eq. 3's alpha).
    """

    layer_name: str
    mode: str
    image: np.ndarray  # flat float64 (already quantised values)
    k_groups: np.ndarray  # (GK, 2) first output channel, count
    c_groups: np.ndarray  # (GC, 2) first input channel, count
    block_shape: Tuple[int, int, int]  # (blocks,) + coefficient shape
    scales: Optional[np.ndarray] = None  # (blocks, PT, PT) or None

    @cached_property
    def slot_elems(self) -> np.ndarray:
        """Elements of every (k-group, c-group) block (GK x GC)."""
        blocks, rows, cols = self.block_shape
        counts = self.k_groups[:, 1, None] * self.c_groups[None, :, 1]
        return blocks * counts * (rows * cols)

    @cached_property
    def slot_offsets(self) -> np.ndarray:
        """Element offset of every block inside the layer's weight region
        (GK x GC; the image is k-group-major)."""
        elems = self.slot_elems.reshape(-1)
        return (np.cumsum(elems) - elems).reshape(self.slot_elems.shape)

    @property
    def elems(self) -> int:
        return int(self.slot_elems.sum())

    @cached_property
    def slots(self) -> List[WeightGroupSlot]:
        """The directory as one object per block, k-group-major."""
        blocks, rows, cols = self.block_shape
        return [
            WeightGroupSlot(
                k0=k0, k_count=k_count, c0=c0, c_count=c_count,
                offset=offset, elems=elems,
                shape=(blocks, k_count, c_count, rows, cols),
            )
            for (k0, k_count), k_offsets, k_elems in zip(
                self.k_groups.tolist(),
                self.slot_offsets.tolist(),
                self.slot_elems.tolist(),
            )
            for (c0, c_count), offset, elems in zip(
                self.c_groups.tolist(), k_offsets, k_elems
            )
        ]

    @cached_property
    def _slot_index(self) -> Dict[Tuple[int, int], WeightGroupSlot]:
        return {(slot.k0, slot.c0): slot for slot in self.slots}

    def slot(self, k0: int, c0: int) -> WeightGroupSlot:
        try:
            return self._slot_index[k0, c0]
        except KeyError:
            raise CompileError(
                f"{self.layer_name}: no weight slot at k0={k0} c0={c0}"
            ) from None


def _scale_per_position(
    stacked: np.ndarray, weight_type: DataType
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise transformed weights per EWMM position.

    For each (block, tile-row, tile-col) the coefficients across K and C
    are divided by a power-of-two scale so their maximum sits just
    inside the representable range; the PE undoes the scale with a
    shift.  Without this, the small G-matrix entries of F(4x4,3x3)
    (1/24) push coefficients below the 8-bit LSB.
    """
    # stacked: (blocks, K, C, PT, PT)
    maxima = np.abs(stacked).max(axis=(1, 2))  # (blocks, PT, PT)
    maxima = np.where(maxima > 0, maxima, 1.0)
    exponents = np.ceil(np.log2(maxima / weight_type.max_value))
    scales = np.power(2.0, exponents)
    return stacked / scales[:, None, None], scales


def pack_weights(
    cfg: AcceleratorConfig,
    partition: LayerPartition,
    kernels: Union[np.ndarray, Tuple[int, int, int, int]],
    weight_type: Optional[DataType],
    data: bool = True,
) -> PackedWeights:
    """Pack (and, for Winograd, transform) one layer's kernels.

    ``kernels`` has shape ``(K, C, R, S)`` (Dense layers pass their
    ``(K, C, 1, 1)`` view).  ``weight_type=None`` packs exact float64
    values (used by functional equivalence tests).  ``data=False``
    computes only the group directory (offsets/sizes) without
    materialising the image — enough for timing-only simulation of
    large sweeps — and then ``kernels`` may be just the shape tuple.
    """
    if data:
        kernels = np.asarray(kernels, dtype=np.float64)
    shape = kernels if isinstance(kernels, tuple) else np.shape(kernels)
    k, c, r, s = shape
    if (k, c) != (partition.out_channels, partition.channels):
        raise CompileError(
            f"{partition.layer_name}: kernels {shape} do not match "
            f"partition K={partition.out_channels} C={partition.channels}"
        )
    if (r, s) != partition.kernel:
        raise CompileError(
            f"{partition.layer_name}: kernel size {(r, s)} != "
            f"{partition.kernel}"
        )

    scales = None
    if partition.mode == "wino":
        coeff_shape = (cfg.pt, cfg.pt)
        if data:
            alg = algorithm_for_tile(cfg.pt)
            blocks = decompose_kernel(kernels, alg.r)
            if tuple(offset for offset, _ in blocks) != partition.blocks:
                raise CompileError(
                    f"{partition.layer_name}: decomposition mismatch"
                )
            transformed = [
                transform_weight(alg, block) for _, block in blocks
            ]
            # (n_blocks, K, C, PT, PT)
            stacked = np.stack(transformed, axis=0)
            if weight_type is not None:
                stacked, scales = _scale_per_position(stacked, weight_type)
    else:
        coeff_shape = (r, s)
        if data:
            stacked = kernels[None]  # (1, K, C, R, S)

    if data and weight_type is not None:
        stacked = weight_type.quantize(stacked)

    kgroups, cgroups = k_groups(partition), c_groups(partition)
    if data:
        # stream order: [k-group][c-group][block][k][c][coeff]
        pieces = [
            np.ascontiguousarray(
                stacked[:, k0 : k0 + k_count, c0 : c0 + c_count]
            ).reshape(-1)
            for k0, k_count in kgroups
            for c0, c_count in cgroups
        ]
        image = np.concatenate(pieces) if pieces else np.zeros(0)
    else:
        image = np.zeros(0)
    return PackedWeights(
        layer_name=partition.layer_name,
        mode=partition.mode,
        image=image,
        k_groups=np.array(kgroups, dtype=np.int64).reshape(-1, 2),
        c_groups=np.array(cgroups, dtype=np.int64).reshape(-1, 2),
        block_shape=(len(partition.blocks),) + coeff_shape,
        scales=scales,
    )


def pack_bias(
    partition: LayerPartition,
    bias: Optional[np.ndarray],
    accum_type: Optional[DataType] = None,
) -> np.ndarray:
    """Flat bias image (zeros when the layer has no bias)."""
    k = partition.out_channels
    if bias is None:
        return np.zeros(k, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64).reshape(-1)
    if bias.size != k:
        raise CompileError(
            f"{partition.layer_name}: bias has {bias.size} entries, "
            f"expected {k}"
        )
    if accum_type is not None:
        bias = accum_type.quantize(bias)
    return bias.copy()
