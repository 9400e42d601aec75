"""128-bit encode/decode of instructions.

Layouts (LSB-first).  Shared header: ``opcode`` (4), ``dept_flag`` (6),
``buff_id`` (2).  The per-opcode fields follow in the order listed
below; the remaining bits up to 128 are reserved and must be zero.

======  ====  ==========================================================
layout  bits  widest fields
======  ====  ==========================================================
LOAD    125   ``dram_base`` 32, ``size_chan`` 16 (LOAD_WGT stores
              k-vectors x c-vectors there: up to 16,384 on DarkNet-19 /
              VU9P), ``size_rows`` / ``size_cols`` 12
COMP    123   ``*_buff_base`` 16, ``iw/ic/oc_number`` 12
SAVE    126   ``dram_base`` 32, ``size_chan`` / ``size_rows`` /
              ``size_cols`` 12
======  ====  ==========================================================

Every quantity the compiler produces for the zoo models on the catalog
devices fits.  Besides the dataclass API (:func:`encode` /
:func:`decode`), :func:`encode_row` / :func:`decode_row` work on the
column rows a :class:`~repro.isa.program.Program` stores: the values of
:data:`ROW_FIELDS`, in layout order.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.errors import EncodingError
from repro.isa.fields import BitLayout
from repro.isa.instructions import (
    INSTRUCTION_CLASSES,
    DeptFlag,
    Instruction,
    Opcode,
)

_HEADER = [("opcode", 4), ("dept_flag", 6), ("buff_id", 2)]

LOAD_LAYOUT = BitLayout(
    "LOAD",
    _HEADER
    + [
        ("buff_base", 16),
        ("dram_base", 32),
        ("size_chan", 16),
        ("size_rows", 12),
        ("size_cols", 12),
        ("pads_top", 4),
        ("pads_bottom", 4),
        ("pads_left", 4),
        ("pads_right", 4),
        ("wino_flag", 1),
        ("wino_offset", 8),
    ],
)

COMP_LAYOUT = BitLayout(
    "COMP",
    _HEADER
    + [
        ("inp_buff_base", 16),
        ("out_buff_base", 16),
        ("wgt_buff_base", 16),
        ("iw_number", 12),
        ("ic_number", 12),
        ("oc_number", 12),
        ("stride_size", 4),
        ("relu_flag", 1),
        ("quan_param", 8),
        ("wino_flag", 1),
        ("wino_offset", 8),
        ("accum_clear", 1),
        ("accum_flush", 1),
        ("inp_buff_id", 1),
        ("wgt_buff_id", 1),
        ("out_buff_id", 1),
    ],
)

SAVE_LAYOUT = BitLayout(
    "SAVE",
    _HEADER
    + [
        ("buff_base", 16),
        ("dram_base", 32),
        ("size_chan", 12),
        ("size_rows", 12),
        ("size_cols", 12),
        ("wino_flag", 1),
        ("dst_wino_flag", 1),
        ("pool_size", 4),
        ("iw_blk_number", 8),
        ("oc_blk_number", 8),
        ("ow_blk_number", 8),
    ],
)

_LAYOUTS = {
    Opcode.LOAD_INP: LOAD_LAYOUT,
    Opcode.LOAD_WGT: LOAD_LAYOUT,
    Opcode.LOAD_BIAS: LOAD_LAYOUT,
    Opcode.COMP: COMP_LAYOUT,
    Opcode.SAVE: SAVE_LAYOUT,
}


#: Opcode -> the fields after ``opcode`` and ``dept_flag``, in layout
#: order: one instruction's row in a :class:`~repro.isa.program.Program`.
#: The instruction dataclasses declare their fields in the same order
#: (after ``dept_flag``), so a row is also their positional arguments.
ROW_FIELDS = {
    opcode: tuple(field.name for field in layout.fields[2:])
    for opcode, layout in _LAYOUTS.items()
}


def encode(instruction: Instruction) -> int:
    """Encode an instruction into a 128-bit integer word."""
    layout = _LAYOUTS[instruction.opcode]
    return layout.pack(instruction.field_values())


def encode_bytes(instruction: Instruction) -> bytes:
    """Encode to the 16-byte little-endian on-DRAM representation."""
    return encode(instruction).to_bytes(16, "little")


def encode_row(opcode: int, dept: int, row: Tuple[int, ...]) -> int:
    """Encode one column-stored instruction into a 128-bit word."""
    return _LAYOUTS[opcode].pack_values((opcode, dept) + row)


def decode_row(word: int) -> Tuple[int, int, Tuple[int, ...]]:
    """``(opcode, dept, row)`` of a 128-bit word (inverse of
    :func:`encode_row`)."""
    opcode_value = word & 0xF
    try:
        layout = _LAYOUTS[Opcode(opcode_value)]
    except ValueError:
        raise EncodingError(f"unknown opcode {opcode_value:#x}") from None
    values = layout.unpack_values(word)
    return values[0], values[1], values[2:]


def row_of(instruction: Instruction) -> Tuple[int, ...]:
    """The column row of ``instruction`` (see :data:`ROW_FIELDS`)."""
    return tuple(
        int(getattr(instruction, name))
        for name in ROW_FIELDS[instruction.opcode]
    )


def instruction_from_row(
    opcode: int, dept: int, row: Tuple[int, ...]
) -> Instruction:
    """Build the dataclass for one column-stored instruction."""
    return INSTRUCTION_CLASSES[opcode](DeptFlag(dept), *row)


def decode(word: Union[int, bytes]) -> Instruction:
    """Decode a 128-bit word (int or 16 bytes) back to an instruction."""
    if isinstance(word, (bytes, bytearray)):
        if len(word) != 16:
            raise EncodingError(
                f"instruction words are 16 bytes, got {len(word)}"
            )
        word = int.from_bytes(word, "little")
    return instruction_from_row(*decode_row(word))


# Re-export for introspection/tests.
LAYOUTS = dict(_LAYOUTS)
