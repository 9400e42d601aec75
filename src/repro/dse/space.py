"""Hardware-candidate enumeration (DSE Step 1).

For each supported tile size ``PT`` the parallel factors ``PI >= PO``
are grown until the Table-2 resource constraints fail on one die; the
instance count ``NI`` then ranges up to ``instances-per-die x dies``
(instances never straddle dies — the paper places two per VU9P die).

Resources are integers that scale linearly in ``NI``, so each
(PT, PI, PO) *base* needs one per-instance estimate and has a
closed-form ``NI`` range.  Step 1 computes both as int64 columns over
all bases at once (:func:`~repro.estimator.resources.resource_columns`,
:func:`~repro.estimator.resources.fitting_columns`).  The result is a
:class:`HardwareSpace`: the bases and their resources as columns, plus
two int64 candidate columns; it builds an :class:`AcceleratorConfig`,
a :class:`ResourceBudget` or a :class:`HardwareCandidate` only when one
is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch.params import SUPPORTED_PT, AcceleratorConfig, ConfigColumns
from repro.errors import DseError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.resources import fitting_columns, resource_columns
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


#: The :class:`DseOptions` fields Step 1 reads, in :func:`_step1`'s
#: order; ``objective`` and ``top_k`` steer Steps 2-3 only.
STEP1_FIELDS = (
    "max_instances", "frequency_mhz", "data_width", "weight_width",
    "buffer_presets",
)


def _step1(device: FpgaDevice, options: DseOptions) -> Tuple:
    """The Step-1 fields of ``options``, defaults resolved on ``device``."""
    return (
        options.max_instances,
        options.frequency_mhz or device.frequency_mhz,
        options.data_width,
        options.weight_width,
        tuple(options.buffer_presets or default_buffers(device)),
    )


class HardwareSpace(Sequence):
    """Step 1's feasible candidates as columns over (PT, PI, PO) bases.

    ``bases`` holds each base's configuration fields as
    :class:`~repro.arch.params.ConfigColumns` and ``resources`` its
    per-instance ``(LUTs, DSPs, BRAMs)`` as a ``(3, B)`` int64 array;
    :meth:`config` and :meth:`budget` build one base's
    :class:`AcceleratorConfig` (validated, with ``instances``) and
    :class:`ResourceBudget`.  Candidate ``i`` is base ``base_ids[i]``
    with ``instances[i]`` copies; both columns are read-only int64
    arrays in enumeration order.  The space is a read-only sequence of
    :class:`HardwareCandidate`: an integer index builds that candidate,
    a slice or an index array gives the sub-space of those candidates,
    and a space equals the list of its candidates.  ``device``,
    ``calibration`` and ``step1`` record what it was enumerated for,
    and :meth:`check` refuses any other run.
    """

    def __init__(self, device, calibration, step1, bases, resources,
                 base_ids, instances):
        self.device = device
        self.calibration = calibration
        self.step1 = step1
        self.bases = bases
        self.resources = resources
        self.base_ids = base_ids
        self.instances = instances
        base_ids.flags.writeable = instances.flags.writeable = False

    def __len__(self) -> int:
        return len(self.base_ids)

    def config(self, base: int, instances: int = 1) -> AcceleratorConfig:
        """Base ``base`` with ``instances`` copies, built from the
        Step-1 values it was enumerated with."""
        _, freq, data_width, weight_width, buffers = self.step1
        bases = self.bases
        return AcceleratorConfig(
            pi=int(bases.pi[base]),
            po=int(bases.po[base]),
            pt=int(bases.pt[base]),
            data_width=data_width,
            weight_width=weight_width,
            instances=instances,
            input_buffer_vecs=buffers[0],
            weight_buffer_vecs=buffers[1],
            output_buffer_vecs=buffers[2],
            frequency_mhz=freq,
        )

    def budget(self, base: int) -> ResourceBudget:
        """Base ``base``'s per-instance resources."""
        return ResourceBudget(*self.resources[:, base].tolist())

    def _candidate(self, base: int, count: int) -> HardwareCandidate:
        one = self.budget(base)
        return HardwareCandidate(
            cfg=self.config(base, count),
            per_instance=one,
            total=one * count,
        )

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._candidate(int(self.base_ids[key]),
                                   int(self.instances[key]))
        return HardwareSpace(
            self.device, self.calibration, self.step1, self.bases,
            self.resources, self.base_ids[key], self.instances[key],
        )

    def __iter__(self):
        return map(self._candidate, self.base_ids.tolist(),
                   self.instances.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (HardwareSpace, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def check(self, device: FpgaDevice, options: DseOptions,
              cal: CalibrationProfile) -> None:
        """Raise :class:`DseError` unless this is the space Step 1
        enumerates for ``device``, ``options`` and ``cal``."""
        names = ("device", "calibration") + STEP1_FIELDS
        had = (self.device, self.calibration) + self.step1
        wanted = (device, cal) + _step1(device, options)
        for name, mine, theirs in zip(names, had, wanted):
            if mine != theirs:
                raise DseError(
                    f"candidates were enumerated with {name} {mine}, "
                    f"not {theirs}"
                )


def explore_hardware(
    device: FpgaDevice,
    options: Optional[DseOptions] = None,
    cal: Optional[CalibrationProfile] = None,
) -> HardwareSpace:
    """Enumerate all feasible (PT, PI, PO, NI) combinations.

    A base runs ``NI`` from 1 up to the fewest of: its per-die count
    times the dies, ``max_instances``, and the copies that fit the
    whole device.  That is where adding one instance at a time would
    first break a Table-2 constraint, because resources are integers
    linear in ``NI``.  Eq. 3-5 and that count are column operations
    over every (PT, PI, PO) base with ``PI >= PO`` (Table 2).
    """
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    step1 = _step1(device, options)
    max_instances, freq, data_width, weight_width, buffers = step1
    pt, pi, po = np.array([
        (pt, pi, po)
        for pt in SUPPORTED_PT
        for pi in PARALLEL_FACTORS
        for po in PARALLEL_FACTORS
        if po <= pi
    ], dtype=np.int64).T
    bases = ConfigColumns(
        pi, po, pt, *(
            np.full(len(pt), value, dtype=np.int64)
            for value in (data_width, weight_width) + tuple(buffers)
        ),
        np.full(len(pt), freq, dtype=np.float64),
    )
    resources = np.stack(
        resource_columns(bases, cal, device.bram_width_bits)
    )
    negative = np.flatnonzero((resources < 0).any(axis=0))
    if len(negative):
        ResourceBudget(*resources[:, negative[0]].tolist())  # raises
    counts = np.minimum(
        fitting_columns(*resources, device.resources_per_die())
        * device.dies,
        fitting_columns(*resources, device.resources),
    )
    if max_instances is not None:
        counts = np.minimum(counts, max_instances)
    kept = np.flatnonzero(counts >= 1)
    if not len(kept):
        raise DseError(
            f"no feasible accelerator configuration for {device.name}"
        )
    counts = counts[kept]
    base_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    instances = np.arange(1, len(base_ids) + 1, dtype=np.int64) - starts
    bases, resources = bases.take(kept), resources[:, kept]
    for column in (resources,) + tuple(
        getattr(bases, name) for name in ConfigColumns.FIELDS
    ):
        column.flags.writeable = False
    return HardwareSpace(
        device, cal, step1, bases, resources, base_ids, instances,
    )
