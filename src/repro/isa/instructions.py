"""Instruction dataclasses mirroring Figure 2.

Every instruction carries:

* ``OPCODE`` — which functional module executes it;
* ``DEPT_FLAG`` — handshake-FIFO synchronisation bits (Section 4.1): a
  producer may *wait* for a free-buffer token from its consumer and
  *emit* a data token when done; a consumer waits for data tokens and
  emits free tokens;
* ``BUFF_ID`` — which half of the ping-pong buffer pair to use;
* ``WINO_FLAG`` — Winograd (1) or Spatial (0) mode.

The exact bit widths are this reproduction's choice (the paper fixes the
128-bit total and the field names but not the widths; see
:mod:`repro.isa.encoding`).  They fit feature maps up to 4095x4095, COMP
and SAVE channel counts up to 4095 vectors, and LOAD transfers up to
65,535 channel vectors (LOAD_WGT counts k-vectors x c-vectors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields as dc_fields


class Opcode(enum.IntEnum):
    """4-bit opcode selecting the functional module."""

    LOAD_INP = 0x1
    LOAD_WGT = 0x2
    LOAD_BIAS = 0x3
    COMP = 0x4
    SAVE = 0x5


class DeptFlag(enum.IntFlag):
    """Dependency-flag bits of the ``DEPT_FLAG`` domain.

    ``WAIT_INP`` / ``WAIT_WGT``
        COMP waits for a data token from LOAD_INP / LOAD_WGT.
    ``EMIT``
        Emit a data token to the downstream consumer when finished
        (LOAD_* -> COMP, COMP -> SAVE).
    ``WAIT_FREE``
        Wait for a free-buffer token from the consumer before overwriting
        a ping-pong half (prevents data pollution, Section 4.1).
    ``FREE_INP`` / ``FREE_WGT``
        Emit a free-buffer token back to the upstream producer once the
        data has been consumed for the last time (COMP releases input /
        weight halves; SAVE uses ``FREE_INP`` to release output halves).
    """

    NONE = 0
    WAIT_INP = 1
    WAIT_WGT = 2
    EMIT = 4
    WAIT_FREE = 8
    FREE_INP = 16
    FREE_WGT = 32


@dataclass(frozen=True)
class Instruction:
    """Base class; concrete subclasses define the Figure-2 layouts."""

    dept_flag: DeptFlag = DeptFlag.NONE
    buff_id: int = 0

    @property
    def opcode(self) -> Opcode:
        raise NotImplementedError

    def field_values(self) -> dict:
        """Field name -> int value, for the encoder."""
        values = {"opcode": int(self.opcode)}
        for f in dc_fields(self):
            values[f.name] = int(getattr(self, f.name))
        return values

    def __str__(self) -> str:
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dc_fields(self)
            if f.name not in ("dept_flag", "buff_id")
        ]
        return (
            f"{self.opcode.name} buff={self.buff_id} "
            f"dept={self.dept_flag!r} " + " ".join(parts)
        )


@dataclass(frozen=True)
class _Load(Instruction):
    """Common layout of LOAD_INP / LOAD_WGT / LOAD_BIAS.

    ``size_*`` describe the transferred block: ``size_chan`` channel
    *vectors* (of PI or PO elements — the paper's Figure-5 convention),
    ``size_rows`` x ``size_cols`` spatial extent.  ``pads_*`` give the
    zero padding the load manager materialises on the fly.
    ``wino_offset`` is the kernel-decomposition block index
    (row * 16 + col packing of the (dr, ds) offset in units of r).
    """

    buff_base: int = 0
    dram_base: int = 0
    size_chan: int = 1
    size_rows: int = 1
    size_cols: int = 1
    pads_top: int = 0
    pads_bottom: int = 0
    pads_left: int = 0
    pads_right: int = 0
    wino_flag: int = 0
    wino_offset: int = 0


@dataclass(frozen=True)
class LoadInp(_Load):
    """Load a group of input feature-map rows from external memory."""

    @property
    def opcode(self) -> Opcode:
        return Opcode.LOAD_INP


@dataclass(frozen=True)
class LoadWgt(_Load):
    """Load a group of (possibly Winograd-transformed) weights."""

    @property
    def opcode(self) -> Opcode:
        return Opcode.LOAD_WGT


@dataclass(frozen=True)
class LoadBias(_Load):
    """Load one group of biases."""

    @property
    def opcode(self) -> Opcode:
        return Opcode.LOAD_BIAS


@dataclass(frozen=True)
class Comp(Instruction):
    """Run the PE over one (row-group x weight-group) work unit.

    ``iw_number`` is the number of output columns (Spatial) or column
    tiles (Winograd); ``ic_number`` / ``oc_number`` are input/output
    channel-vector counts; ``quan_param`` is the right-shift
    requantisation amount applied by the save path.
    """

    inp_buff_base: int = 0
    out_buff_base: int = 0
    wgt_buff_base: int = 0
    iw_number: int = 1
    ic_number: int = 1
    oc_number: int = 1
    stride_size: int = 1
    relu_flag: int = 0
    quan_param: int = 0
    wino_flag: int = 0
    wino_offset: int = 0
    accum_clear: int = 1
    accum_flush: int = 1
    inp_buff_id: int = 0
    wgt_buff_id: int = 0
    out_buff_id: int = 0

    @property
    def opcode(self) -> Opcode:
        return Opcode.COMP


@dataclass(frozen=True)
class Save(Instruction):
    """Store one group of output rows back to external memory.

    ``dst_wino_flag`` selects the data-layout transform of Figure 5:
    together with ``wino_flag`` it covers WINO/SPAT -> WINO/SPAT.
    ``pool_size`` > 1 applies fused max pooling.  The ``*_blk_number``
    fields describe the block geometry the SAVE module iterates over
    (input-width, output-channel and output-width blocks).
    """

    buff_base: int = 0
    dram_base: int = 0
    size_chan: int = 1
    size_rows: int = 1
    size_cols: int = 1
    wino_flag: int = 0
    dst_wino_flag: int = 0
    pool_size: int = 1
    iw_blk_number: int = 1
    oc_blk_number: int = 1
    ow_blk_number: int = 1

    @property
    def opcode(self) -> Opcode:
        return Opcode.SAVE


#: Opcode -> dataclass used by the decoder.
INSTRUCTION_CLASSES = {
    Opcode.LOAD_INP: LoadInp,
    Opcode.LOAD_WGT: LoadWgt,
    Opcode.LOAD_BIAS: LoadBias,
    Opcode.COMP: Comp,
    Opcode.SAVE: Save,
}
