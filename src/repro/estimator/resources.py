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

import math

from repro.arch.buffers import hybrid_bank_counts
from repro.arch.params import AcceleratorConfig
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.fpga.device import FpgaDevice
from repro.fpga.resources import ResourceBudget


def dsp_count(cfg: AcceleratorConfig, cal: CalibrationProfile) -> int:
    """Eq. 3 — DSPs of one instance."""
    pe = cfg.pi * cfg.po * cfg.pt * cfg.pt / cal.dsp_packing
    accum = cal.alpha * cfg.po * cfg.m * cfg.m
    return int(round(pe + accum + cfg.po + cal.beta))


def bram_count(cfg: AcceleratorConfig, cal: CalibrationProfile,
               bram_width_bits: int = 18) -> int:
    """Eq. 4 — 18Kb BRAMs of one instance."""
    banks = hybrid_bank_counts(cfg)
    width_ratio = cfg.data_width / bram_width_bits
    total = width_ratio * (
        banks["input"]
        + banks["weight"] * cal.wgt_bram_depth
        + (1.0 + cal.bram_alpha) * banks["output"]
    )
    return int(round(total))


def lut_count(cfg: AcceleratorConfig, cal: CalibrationProfile,
              hybrid: bool = True) -> int:
    """Eq. 5 — LUTs of one instance.

    ``hybrid=False`` drops the ``delta*m^2`` Winograd-transform term,
    giving the conventional spatial-only architecture.
    """
    macs = cfg.pi * cfg.po * cfg.pt * cfg.pt
    factor = 1.0 + (cal.delta * cfg.m * cfg.m if hybrid else 0.0)
    return int(round(cal.gamma * macs * factor))


def estimate_resources(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    cal: CalibrationProfile = None,
    per_instance: bool = False,
) -> ResourceBudget:
    """Whole-design (or single-instance) utilisation on ``device``."""
    if cal is None:
        cal = get_calibration(device.name)
    one = ResourceBudget(
        luts=lut_count(cfg, cal),
        dsps=dsp_count(cfg, cal),
        brams=bram_count(cfg, cal, device.bram_width_bits),
    )
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
    one = ResourceBudget(
        luts=lut_count(cfg, cal, hybrid=False),
        dsps=dsp_count(cfg, cal),
        brams=bram_count(cfg, cal, device.bram_width_bits),
    )
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


def instances_fitting(one: ResourceBudget, capacity: ResourceBudget) -> int:
    """How many copies of the per-instance budget ``one`` fit
    ``capacity``, resource by resource."""
    counts = []
    for resource in ("luts", "dsps", "brams"):
        used = getattr(one, resource)
        avail = getattr(capacity, resource)
        counts.append(avail // used if used else math.inf)
    return int(min(counts))
