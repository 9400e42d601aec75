"""Customized 128-bit instruction set (Figure 2 of the paper).

Five instructions drive the accelerator's functional modules:
``LOAD_INP``, ``LOAD_WGT``, ``LOAD_BIAS``, ``COMP`` and ``SAVE``.  Every
instruction is encoded in one 128-bit word; all carry a ``WINO_FLAG``
selecting the CONV mode and a ``DEPT_FLAG`` describing the handshake-FIFO
synchronisation of Section 4.1.

Public API
----------
``Opcode``, ``DeptFlag``
    Enumerations of opcodes and dependency-flag bits.
``LoadInp`` / ``LoadWgt`` / ``LoadBias`` / ``Comp`` / ``Save``
    Instruction dataclasses.
``encode`` / ``decode``
    128-bit word conversion.
``Program``
    Column-stored instruction stream with binary and textual
    round-trips.
``assemble`` / ``disassemble``
    Human-readable assembly.
"""

from repro.isa.instructions import (
    Comp,
    DeptFlag,
    Instruction,
    LoadBias,
    LoadInp,
    LoadWgt,
    Opcode,
    Save,
)
from repro.isa.encoding import decode, encode
from repro.isa.program import Program
from repro.isa.asm import assemble, disassemble
from repro.isa.validate import (
    ValidationIssue,
    ValidationReport,
    validate_program,
)

__all__ = [
    "Comp",
    "DeptFlag",
    "Instruction",
    "LoadBias",
    "LoadInp",
    "LoadWgt",
    "Opcode",
    "Program",
    "Save",
    "ValidationIssue",
    "ValidationReport",
    "assemble",
    "decode",
    "disassemble",
    "encode",
    "validate_program",
]
