"""Profiled calibration constants of the resource models.

Section 5.1: "alpha, beta, gamma, and delta can be pre-defined through
profiling".  Having no synthesis tool in the loop, we fit the constants
to the paper's own Table 3 utilisation numbers, so Table 3's agreement
holds by construction; writing each constant's derivation down is
ROADMAP item 6.  Constants:

``alpha``
    DSPs of the output-transform/accumulation path per output lane and
    output-tile element (Eq. 3's quantisation-strategy correction).
``beta``
    DSPs used for address generation — FPGA-independent (Eq. 3).
``gamma``
    LUTs per MAC unit (Eq. 5).
``delta``
    Relative LUT cost of the Winograd transform network per output-tile
    element (Eq. 5); ``delta * m^2`` is the hybrid-over-spatial LUT
    overhead, 26.4 % for the VU9P design (Section 6.1).
``dsp_packing``
    Multipliers sharing one DSP slice (2 when 8-bit weights allow two
    MACs per DSP48 — how the PYNQ-Z1 design fits 256 logical MACs into
    220 DSPs).
``wgt_bram_depth``
    Average 18Kb BRAMs per weight-buffer bank (embedded designs keep
    relatively deeper weight buffers, > 1 BRAM per bank).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceError


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted constants of Eq. 3-5 for one device family."""

    name: str
    alpha: float = 4.0
    beta: float = 24.0
    gamma: float = 161.7
    delta: float = 0.0165
    dsp_packing: int = 1
    wgt_bram_depth: float = 1.0
    bram_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.dsp_packing < 1:
            raise DeviceError("dsp_packing must be >= 1")
        for field_name in ("alpha", "beta", "gamma", "delta", "wgt_bram_depth"):
            if getattr(self, field_name) < 0:
                raise DeviceError(f"{field_name} must be >= 0")


#: VU9P profile — fitted to Table 3's 706353 LUT / 5163 DSP / 3169 BRAM
#: across 6 instances (the arithmetic is ROADMAP item 6).
VU9P_PROFILE = CalibrationProfile(
    name="vu9p",
    alpha=4.0,
    beta=24.0,
    gamma=161.7,
    delta=0.0165,
    dsp_packing=1,
    wgt_bram_depth=1.014,
)

#: PYNQ-Z1 profile — fitted to Table 3's 37034 LUT / 220 DSP / 277 BRAM.
#: 8-bit weights pack two multiplications per DSP48E1 (dsp_packing = 2).
PYNQ_PROFILE = CalibrationProfile(
    name="pynq-z1",
    alpha=4.0,
    beta=24.0,
    gamma=135.7,
    delta=0.0165,
    dsp_packing=2,
    wgt_bram_depth=1.31,
)

#: Default profile for devices we never profiled: VU9P-like logic cost,
#: no DSP packing.
GENERIC_PROFILE = CalibrationProfile(name="generic")

_PROFILES = {
    "vu9p": VU9P_PROFILE,
    "pynq-z1": PYNQ_PROFILE,
}


def get_calibration(device_name: str) -> CalibrationProfile:
    """Profile for ``device_name`` (generic fallback for unknown parts)."""
    return _PROFILES.get(device_name.lower(), GENERIC_PROFILE)
