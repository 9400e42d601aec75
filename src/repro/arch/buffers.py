"""On-chip buffer models.

Two concerns live here:

* **Functional storage** — :class:`PingPongBuffer` holds the payloads the
  load managers deposit and the COMP/SAVE paths consume.  Capacity is
  checked in channel vectors so compiler sizing bugs fail loudly.
* **Bank geometry** — the Table-1 partition factors, used by the
  resource estimator (the bank counts are the terms of Eq. 4) and by the
  HLS emitter (ARRAY_PARTITION pragmas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.arch.params import AcceleratorConfig


@dataclass
class BufferPayload:
    """What one ping-pong half currently holds.

    ``data`` is an arbitrary numpy payload (strip, weight group, ...)
    whose logical geometry is described by ``meta``; ``vecs`` is the
    occupancy in channel vectors used for the capacity check.
    """

    data: object
    vecs: int
    meta: dict


class PingPongBuffer:
    """A double-buffered on-chip memory.

    The accelerator allocates ping-pong buffers for input/output data so
    data access and computation overlap (Section 4.1).  ``halves`` is 2
    for all buffers in the generated design.
    """

    def __init__(self, name: str, capacity_vecs: int, halves: int = 2):
        if capacity_vecs <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        if halves <= 0:
            raise SimulationError(f"{name}: need at least one half")
        self.name = name
        self.capacity_vecs = capacity_vecs
        self.halves: List[Optional[BufferPayload]] = [None] * halves
        self.peak_vecs = 0

    def write(self, half: int, data, vecs: int, **meta) -> None:
        """Deposit a payload into ``half``."""
        self._check_half(half)
        if vecs < 0:
            raise SimulationError(f"{self.name}: negative occupancy")
        if vecs > self.capacity_vecs:
            raise SimulationError(
                f"{self.name}: payload of {vecs} vectors exceeds half "
                f"capacity {self.capacity_vecs}; the compiler mis-sized "
                "a group"
            )
        self.halves[half] = BufferPayload(data=data, vecs=vecs, meta=meta)
        self.peak_vecs = max(self.peak_vecs, vecs)

    def read(self, half: int) -> BufferPayload:
        """Fetch the payload of ``half`` (must have been written)."""
        self._check_half(half)
        payload = self.halves[half]
        if payload is None:
            raise SimulationError(
                f"{self.name}: read of half {half} before any write — "
                "handshake tokens out of order"
            )
        return payload

    def _check_half(self, half: int) -> None:
        if not 0 <= half < len(self.halves):
            raise SimulationError(
                f"{self.name}: half {half} outside 0..{len(self.halves) - 1}"
            )


# -- Table-1 partition factors ---------------------------------------------


@dataclass(frozen=True)
class BankGeometry:
    """Partition-factor product of one buffer in one mode."""

    buffer: str
    mode: str
    banks: int
    factors: dict


def input_buffer_banks(cfg: AcceleratorConfig, mode: str) -> BankGeometry:
    """In Buffer row of Table 1.

    Winograd: ``PI`` (channel) x ``PT`` (row) x ``PT`` (col).
    Spatial:  ``PI*PT`` (channel) x 1 x 1.
    """
    if mode == "wino":
        factors = {"in_channel": cfg.pi, "fmap_row": cfg.pt, "fmap_col": cfg.pt}
    elif mode == "spat":
        factors = {"in_channel": cfg.pi * cfg.pt, "fmap_row": 1, "fmap_col": 1}
    else:
        raise SimulationError(f"unknown mode {mode!r}")
    banks = 1
    for value in factors.values():
        banks *= value
    return BankGeometry("input", mode, banks, factors)


def weight_buffer_banks(cfg: AcceleratorConfig, mode: str) -> BankGeometry:
    """Weight Buffer row of Table 1 (same product in both modes)."""
    if mode == "wino":
        factors = {
            "in_channel": cfg.pi,
            "out_channel": cfg.po,
            "weight_row": cfg.pt,
            "weight_col": cfg.pt,
        }
    elif mode == "spat":
        factors = {
            "in_channel": cfg.pi * cfg.pt,
            "out_channel": cfg.po * cfg.pt,
            "weight_row": 1,
            "weight_col": 1,
        }
    else:
        raise SimulationError(f"unknown mode {mode!r}")
    banks = 1
    for value in factors.values():
        banks *= value
    return BankGeometry("weight", mode, banks, factors)


def output_buffer_banks(cfg: AcceleratorConfig, mode: str) -> BankGeometry:
    """Out Buffer row of Table 1.

    Winograd: ``PO`` (channel) x ``m`` (row) x ``m`` (col).
    Spatial:  ``PO*PT`` (channel) x 1 x 1.
    """
    if mode == "wino":
        factors = {"out_channel": cfg.po, "fmap_row": cfg.m, "fmap_col": cfg.m}
    elif mode == "spat":
        factors = {"out_channel": cfg.po * cfg.pt, "fmap_row": 1, "fmap_col": 1}
    else:
        raise SimulationError(f"unknown mode {mode!r}")
    banks = 1
    for value in factors.values():
        banks *= value
    return BankGeometry("output", mode, banks, factors)


def hybrid_bank_counts(cfg) -> dict:
    """Worst-case bank count per buffer across the two modes.

    A hybrid design must satisfy both modes' parallel access patterns,
    so each physical buffer is partitioned by the maximum factor — these
    are exactly the three terms inside Eq. 4.  ``cfg`` is one
    :class:`AcceleratorConfig` or a
    :class:`~repro.arch.params.ConfigColumns`, whose counts are columns.
    """
    return {
        "input": np.maximum(
            input_buffer_banks(cfg, "wino").banks,
            input_buffer_banks(cfg, "spat").banks,
        ),
        "weight": np.maximum(
            weight_buffer_banks(cfg, "wino").banks,
            weight_buffer_banks(cfg, "spat").banks,
        ),
        "output": np.maximum(
            output_buffer_banks(cfg, "wino").banks,
            output_buffer_banks(cfg, "spat").banks,
        ),
    }
