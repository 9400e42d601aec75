"""Accelerator configuration — the hardware-perspective DSE parameters.

``PI``, ``PO`` and ``PT`` are the three parallel-factor dimensions of the
PE (Section 4.2.2): a ``PT x PT`` array of GEMM cores, each a ``PI x PO``
broadcast array.  ``PT`` doubles as the Winograd input-tile edge, so it
must be 4 or 6 (Table 2); the Winograd output tile is ``m = PT - 2`` for
the 3x3 kernels both algorithms target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ResourceError
from repro.ir.tensor import DataType

#: PT values allowed by Table 2 (F(2x2,3x3) -> 4, F(4x4,3x3) -> 6).
SUPPORTED_PT = (4, 6)


def output_tile(pt):
    """Winograd output-tile edge ``m = PT - r + 1`` with r = 3, of one
    ``PT`` or of a column of them."""
    return pt - 2


@dataclass(frozen=True)
class AcceleratorConfig:
    """One accelerator instance's hardware parameters.

    Attributes
    ----------
    pi, po, pt:
        Parallel factors.  The Table-2 constraint ``PI >= PO >= 1`` and
        ``PT in {4, 6}`` is enforced.
    data_width:
        Feature-map bit width (paper: 12, widened by the Winograd input
        transform).
    weight_width:
        DNN parameter bit width (paper: 8).
    instances:
        Number of accelerator instances on the FPGA (``NI`` in Table 2).
    input_buffer_vecs / weight_buffer_vecs / output_buffer_vecs:
        Ping-pong half capacities, counted in channel vectors (PI
        elements for input, PI*PO for weights, PO for output).
    frequency_mhz:
        Operating clock (device-dependent; copied from the FPGA spec by
        the DSE).
    """

    pi: int = 4
    po: int = 4
    pt: int = 6
    data_width: int = 12
    weight_width: int = 8
    instances: int = 1
    input_buffer_vecs: int = 32768
    weight_buffer_vecs: int = 8192
    output_buffer_vecs: int = 16384
    frequency_mhz: float = 200.0
    feature_type: DataType = field(default=None, compare=False)
    weight_type: DataType = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.pt not in SUPPORTED_PT:
            raise ResourceError(
                f"PT must be one of {SUPPORTED_PT}, got {self.pt}"
            )
        if not (self.pi >= self.po >= 1):
            raise ResourceError(
                f"Table 2 requires PI >= PO >= 1, got PI={self.pi} PO={self.po}"
            )
        if self.instances < 1:
            raise ResourceError(f"instances must be >= 1, got {self.instances}")
        if self.data_width <= 0 or self.weight_width <= 0:
            raise ResourceError("data widths must be positive")
        for name in (
            "input_buffer_vecs",
            "weight_buffer_vecs",
            "output_buffer_vecs",
        ):
            if getattr(self, name) <= 0:
                raise ResourceError(f"{name} must be positive")
        if self.frequency_mhz <= 0:
            raise ResourceError("frequency must be positive")
        if self.feature_type is None:
            object.__setattr__(
                self,
                "feature_type",
                DataType(width=self.data_width, frac=self.data_width // 2),
            )
        if self.weight_type is None:
            object.__setattr__(
                self,
                "weight_type",
                DataType(width=self.weight_width, frac=self.weight_width - 2),
            )

    # -- derived quantities ----------------------------------------------

    @property
    def m(self) -> int:
        """Winograd output-tile edge (``PT - r + 1`` with r = 3)."""
        return output_tile(self.pt)

    @property
    def macs_per_cycle(self) -> int:
        """Multipliers active per cycle: the PT x PT x PI x PO array."""
        return self.pi * self.po * self.pt * self.pt

    @property
    def spatial_input_lanes(self) -> int:
        """Input channels consumed per cycle in Spatial mode (PI * PT)."""
        return self.pi * self.pt

    @property
    def spatial_output_lanes(self) -> int:
        """Output channels produced per cycle in Spatial mode (PO * PT)."""
        return self.po * self.pt

    @property
    def frequency_hz(self) -> float:
        return self.frequency_mhz * 1e6

    def peak_gops(self, mode: str = "spat", kernel: int = 3) -> float:
        """Peak throughput in GOPS (2 ops per MAC).

        In Winograd mode each multiplication carries
        ``(r^2 * m^2) / PT^2`` equivalent spatial MACs for an ``r x r``
        kernel (Section 4.2.1), so the effective peak is higher.
        """
        base = 2.0 * self.macs_per_cycle * self.frequency_hz / 1e9
        if mode == "spat":
            return base
        blocks = (-(-kernel // 3)) ** 2
        equivalent = (kernel * kernel * self.m * self.m) / (
            blocks * self.pt * self.pt
        )
        return base * equivalent

    def describe(self) -> str:
        return (
            f"PI={self.pi} PO={self.po} PT={self.pt} (m={self.m}) "
            f"x{self.instances} inst @ {self.frequency_mhz:.0f} MHz, "
            f"{self.data_width}b act / {self.weight_width}b wgt"
        )


class ConfigColumns:
    """The fields of many configurations, ``instances`` excepted, as
    ``(N,)`` columns: float64 ``frequency_mhz``, int64 the rest.

    The column form the batch models read: Step 1's Eq. 3-5, the
    Sec. 4.2.4 group counts and Eq. 6-15.  Rows are not validated here;
    they come from validated configurations or from Step 1's own
    enumeration, which builds a row's :class:`AcceleratorConfig` when a
    candidate is read.
    """

    FIELDS = (
        "pi", "po", "pt", "data_width", "weight_width",
        "input_buffer_vecs", "weight_buffer_vecs", "output_buffer_vecs",
        "frequency_mhz",
    )
    __slots__ = FIELDS

    def __init__(self, pi, po, pt, data_width, weight_width,
                 input_buffer_vecs, weight_buffer_vecs, output_buffer_vecs,
                 frequency_mhz):
        self.pi, self.po, self.pt = pi, po, pt
        self.data_width, self.weight_width = data_width, weight_width
        self.input_buffer_vecs = input_buffer_vecs
        self.weight_buffer_vecs = weight_buffer_vecs
        self.output_buffer_vecs = output_buffer_vecs
        self.frequency_mhz = frequency_mhz

    @classmethod
    def of(cls, configs) -> "ConfigColumns":
        """The columns of a sequence of configurations."""
        rows = [
            (cfg.pi, cfg.po, cfg.pt, cfg.data_width, cfg.weight_width,
             cfg.input_buffer_vecs, cfg.weight_buffer_vecs,
             cfg.output_buffer_vecs)
            for cfg in configs
        ]
        ints = np.array(rows, dtype=np.int64).reshape(-1, 8).T
        freq = np.array([cfg.frequency_mhz for cfg in configs],
                        dtype=np.float64)
        return cls(*ints, freq)

    @property
    def m(self):
        """Each row's Winograd output-tile edge."""
        return output_tile(self.pt)

    def take(self, rows) -> "ConfigColumns":
        """The columns of ``rows`` (an index array)."""
        return ConfigColumns(*(getattr(self, name)[rows]
                               for name in self.FIELDS))
