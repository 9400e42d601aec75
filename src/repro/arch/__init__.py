"""Accelerator architecture model (Section 4 of the paper).

Components
----------
``AcceleratorConfig``
    The hardware-perspective design parameters: PI, PO, PT, data widths,
    buffer depths, instance count.
``layouts``
    The WINO / SPAT feature-map data layouts of Figure 5 and the
    reordering transforms implemented by the SAVE module.
``buffers``
    On-chip buffer models with the Table-1 partition factors.
``HandshakeFifo`` / ``match_tokens``
    Token FIFOs between producer/consumer module pairs (Section 4.1):
    one FIFO token by token, or all of a program's pops matched to
    their pushes at once.
``pe``
    Functional model of the hybrid Spatial/Winograd PE: a PT x PT array
    of PI x PO GEMM cores (Section 4.2.2).
``ExternalMemoryModel``
    Byte-accurate DRAM image plus bandwidth/latency accounting.
"""

from repro.arch.params import AcceleratorConfig
from repro.arch.fifo import HandshakeFifo, match_tokens
from repro.arch.dram import ExternalMemoryModel, MemoryRegion
from repro.arch import layouts, buffers, pe

__all__ = [
    "AcceleratorConfig",
    "ExternalMemoryModel",
    "HandshakeFifo",
    "MemoryRegion",
    "buffers",
    "layouts",
    "match_tokens",
    "pe",
]
