"""Resource utilisation models (Eq. 3-5).

All three models take one accelerator instance; multiply by
``cfg.instances`` (the DSE does) for the whole-FPGA utilisation.

DSP (Eq. 3)::

    N_DSP = PI*PO*PT^2 / packing + alpha*PO*m^2 + PO + beta

BRAM (Eq. 4) — bank counts from the Table-1 partition factors scaled by
the data/BRAM width ratio; the weight buffer's banks are deeper than one
18Kb BRAM on some devices (``wgt_bram_depth``)::

    N_BRAM = (DATA_WIDTH / BRAM_WIDTH)
             * (PI*PT^2 + PI*PO*PT^2 * depth + (1 + a_b)*PO*m^2)

LUT (Eq. 5)::

    N_LUT = gamma * PI*PO*PT^2 * (1 + delta*m^2)

The ``delta*m^2`` term is the Winograd transform network — dropping it
yields the spatial-only baseline used for the Section-6.1 overhead
claim (26.4 % extra LUTs, zero extra DSPs).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.arch.buffers import hybrid_bank_counts
from repro.arch.params import AcceleratorConfig, ConfigColumns
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.fpga.device import FpgaDevice
from repro.fpga.resources import ResourceBudget


def resource_columns(
    cols: ConfigColumns,
    cal: CalibrationProfile,
    bram_width_bits: int = 18,
    hybrid: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 3-5 for every row of ``cols``: one instance's LUTs, DSPs and
    BRAMs as int64 columns.

    Every entry point of this module is the one-row case of this
    function.  Integer terms stay int64; float terms keep the equations'
    operation order, and ``np.rint`` rounds half to even as Python's
    ``round`` does, so a column entry equals the scalar arithmetic.
    """
    macs = cols.pi * cols.po * cols.pt * cols.pt
    m = cols.m
    # Eq. 5 (``hybrid=False`` drops the Winograd-transform term).
    factor = 1.0 + (cal.delta * m * m if hybrid else 0.0)
    luts = cal.gamma * macs * factor
    # Eq. 3.
    pe = macs / cal.dsp_packing
    accum = cal.alpha * cols.po * m * m
    dsps = pe + accum + cols.po + cal.beta
    # Eq. 4.
    banks = hybrid_bank_counts(cols)
    width_ratio = cols.data_width / bram_width_bits
    brams = width_ratio * (
        banks["input"]
        + banks["weight"] * cal.wgt_bram_depth
        + (1.0 + cal.bram_alpha) * banks["output"]
    )
    return tuple(np.rint(column).astype(np.int64)
                 for column in (luts, dsps, brams))


def _one(cfg: AcceleratorConfig, cal: CalibrationProfile,
         bram_width_bits: int = 18, hybrid: bool = True) -> Tuple[int, ...]:
    """``(LUTs, DSPs, BRAMs)`` of one instance of ``cfg``."""
    return tuple(
        int(column[0]) for column in resource_columns(
            ConfigColumns.of([cfg]), cal, bram_width_bits, hybrid
        )
    )


def dsp_count(cfg: AcceleratorConfig, cal: CalibrationProfile) -> int:
    """Eq. 3 — DSPs of one instance."""
    return _one(cfg, cal)[1]


def bram_count(cfg: AcceleratorConfig, cal: CalibrationProfile,
               bram_width_bits: int = 18) -> int:
    """Eq. 4 — 18Kb BRAMs of one instance."""
    return _one(cfg, cal, bram_width_bits)[2]


def lut_count(cfg: AcceleratorConfig, cal: CalibrationProfile,
              hybrid: bool = True) -> int:
    """Eq. 5 — LUTs of one instance.

    ``hybrid=False`` drops the ``delta*m^2`` Winograd-transform term,
    giving the conventional spatial-only architecture.
    """
    return _one(cfg, cal, hybrid=hybrid)[0]


def estimate_resources(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    cal: CalibrationProfile = None,
    per_instance: bool = False,
) -> ResourceBudget:
    """Whole-design (or single-instance) utilisation on ``device``."""
    if cal is None:
        cal = get_calibration(device.name)
    one = ResourceBudget(*_one(cfg, cal, device.bram_width_bits))
    if per_instance:
        return one
    return one * cfg.instances


def spatial_only_resources(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    cal: CalibrationProfile = None,
) -> ResourceBudget:
    """Baseline without hybrid (Winograd) support, for the overhead
    ablation: same PE array, no transform network, no reconfigurable
    layout machinery."""
    if cal is None:
        cal = get_calibration(device.name)
    one = ResourceBudget(*_one(cfg, cal, device.bram_width_bits,
                               hybrid=False))
    return one * cfg.instances


def hybrid_lut_overhead(cfg: AcceleratorConfig, device: FpgaDevice,
                        cal: CalibrationProfile = None) -> float:
    """Fractional LUT overhead of hybrid vs spatial-only (paper: 0.264
    on VU9P)."""
    if cal is None:
        cal = get_calibration(device.name)
    hybrid = lut_count(cfg, cal, hybrid=True)
    spatial = lut_count(cfg, cal, hybrid=False)
    return hybrid / spatial - 1.0


def instances_per_die(cfg: AcceleratorConfig, device: FpgaDevice,
                      cal: CalibrationProfile = None) -> int:
    """How many instances fit one die (cross-die instances are not
    allowed — Section 1's timing-violation discussion)."""
    one = estimate_resources(cfg, device, cal, per_instance=True)
    return instances_fitting(one, device.resources_per_die())


#: What :func:`fitting_columns` reads for a resource a design never uses.
_UNBOUNDED = np.iinfo(np.int64).max


def fitting_columns(
    luts: np.ndarray, dsps: np.ndarray, brams: np.ndarray,
    capacity: ResourceBudget,
) -> np.ndarray:
    """How many copies of each row's per-instance ``(luts, dsps,
    brams)`` fit ``capacity``, resource by resource; a resource a row
    does not use never binds it."""
    counts = [
        np.where(used > 0, avail // np.maximum(used, 1), _UNBOUNDED)
        for used, avail in (
            (luts, capacity.luts),
            (dsps, capacity.dsps),
            (brams, capacity.brams),
        )
    ]
    return np.minimum(np.minimum(counts[0], counts[1]), counts[2])


def instances_fitting(one: ResourceBudget, capacity: ResourceBudget) -> int:
    """How many copies of the per-instance budget ``one`` fit
    ``capacity``, resource by resource."""
    return int(fitting_columns(
        np.array([one.luts]), np.array([one.dsps]), np.array([one.brams]),
        capacity,
    )[0])
