"""Hardware-candidate enumeration (DSE Step 1).

For each supported tile size ``PT`` the parallel factors ``PI >= PO``
are grown until the Table-2 resource constraints fail on one die; the
instance count ``NI`` then ranges up to ``instances-per-die x dies``
(instances never straddle dies — the paper places two per VU9P die).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.arch.params import SUPPORTED_PT, AcceleratorConfig
from repro.errors import DseError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.resources import estimate_resources, instances_fitting
from repro.fpga.device import FpgaDevice
from repro.fpga.resources import ResourceBudget

#: Parallel-factor values explored (powers of two, the hardware-friendly
#: choice for broadcast trees).
PARALLEL_FACTORS = (1, 2, 4, 8, 16, 32)


#: Ranking objectives understood by Step 3.
OBJECTIVES = ("throughput", "latency")


@dataclass(frozen=True)
class DseOptions:
    """Inputs of the exploration: the objective, how many ranked
    designs to keep (``top_k``), the Step-1 space (``max_instances``,
    ``frequency_mhz``, the widths, ``buffer_presets``).

    How Step 3 searches is not an option: :func:`~repro.dse.engine.run_dse`
    has one search, which returns the brute-force design point and
    runner-up ranking bit for bit.

    Invalid combinations raise :class:`~repro.errors.DseError` at
    construction time, not deep inside :func:`~repro.dse.engine.run_dse`.
    """

    max_instances: Optional[int] = None
    frequency_mhz: Optional[float] = None  # default: device frequency
    data_width: int = 12
    weight_width: int = 8
    objective: str = "throughput"  # "throughput" | "latency"
    buffer_presets: Optional[Tuple[int, int, int]] = None
    top_k: int = 5

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise DseError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if self.top_k < 1:
            raise DseError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_instances is not None and self.max_instances < 1:
            raise DseError(
                f"max_instances must be >= 1, got {self.max_instances}"
            )
        if self.frequency_mhz is not None and self.frequency_mhz <= 0:
            raise DseError(
                f"frequency_mhz must be positive, got {self.frequency_mhz}"
            )
        if self.data_width <= 0 or self.weight_width <= 0:
            raise DseError("data/weight widths must be positive")
        if self.buffer_presets is not None and (
            len(self.buffer_presets) != 3
            or any(size <= 0 for size in self.buffer_presets)
        ):
            raise DseError(
                "buffer_presets must be three positive sizes "
                f"(input, weight, output), got {self.buffer_presets!r}"
            )


@dataclass(frozen=True)
class HardwareCandidate:
    """One feasible hardware configuration."""

    cfg: AcceleratorConfig
    per_instance: ResourceBudget
    total: ResourceBudget


def default_buffers(device: FpgaDevice) -> Tuple[int, int, int]:
    """(input, weight, output) ping-pong half sizes in channel vectors.

    Cloud-class parts get the large preset the VU9P design uses; small
    embedded parts get a quarter of it.
    """
    if device.resources.brams >= 1000:
        return (32768, 16384, 16384)
    return (8192, 4096, 4096)


def explore_hardware(
    device: FpgaDevice,
    options: Optional[DseOptions] = None,
    cal: Optional[CalibrationProfile] = None,
) -> List[HardwareCandidate]:
    """Enumerate all feasible (PT, PI, PO, NI) combinations."""
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    freq = options.frequency_mhz or device.frequency_mhz
    buffers = options.buffer_presets or default_buffers(device)
    candidates: List[HardwareCandidate] = []
    for pt in SUPPORTED_PT:
        for pi in PARALLEL_FACTORS:
            for po in PARALLEL_FACTORS:
                if po > pi:
                    continue  # Table-2: PI >= PO >= 1
                base = AcceleratorConfig(
                    pi=pi,
                    po=po,
                    pt=pt,
                    data_width=options.data_width,
                    weight_width=options.weight_width,
                    instances=1,
                    input_buffer_vecs=buffers[0],
                    weight_buffer_vecs=buffers[1],
                    output_buffer_vecs=buffers[2],
                    frequency_mhz=freq,
                )
                # Per-instance resources do not depend on the instance
                # count: one estimate serves every NI of this base.
                one = estimate_resources(base, device, cal, per_instance=True)
                per_die = instances_fitting(one, device.resources_per_die())
                if per_die < 1:
                    continue
                max_ni = per_die * device.dies
                if options.max_instances is not None:
                    max_ni = min(max_ni, options.max_instances)
                for ni in range(1, max_ni + 1):
                    cfg = replace(base, instances=ni)
                    total = one * ni
                    if not total.fits_in(device.resources):
                        break
                    candidates.append(
                        HardwareCandidate(
                            cfg=cfg, per_instance=one, total=total
                        )
                    )
    if not candidates:
        raise DseError(
            f"no feasible accelerator configuration for {device.name}"
        )
    return candidates
