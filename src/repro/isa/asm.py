"""Textual assembler / disassembler.

The assembly format is one instruction per line::

    COMP buff=0 dept=EMIT|WAIT_INP ic_number=16 oc_number=4 ...

Field order is free; omitted fields take their dataclass defaults.  Lines
starting with ``#`` or ``;`` and blank lines are ignored.  The format
exists for debugging compiled programs and for writing hand-crafted test
programs.
"""

from __future__ import annotations

from typing import List

from repro.errors import EncodingError
from repro.isa.instructions import (
    INSTRUCTION_CLASSES,
    DeptFlag,
    Instruction,
    Opcode,
)
from repro.isa.program import Program


def _format_dept(flag: DeptFlag) -> str:
    if flag == DeptFlag.NONE:
        return "NONE"
    names = [f.name for f in DeptFlag if f != DeptFlag.NONE and f in flag]
    return "|".join(names)


def _parse_dept(text: str) -> DeptFlag:
    flag = DeptFlag.NONE
    for part in text.split("|"):
        part = part.strip().upper()
        if not part or part == "NONE":
            continue
        try:
            flag |= DeptFlag[part]
        except KeyError:
            raise EncodingError(f"unknown DEPT flag {part!r}") from None
    return flag


def disassemble_instruction(instruction: Instruction) -> str:
    """One line of assembly for ``instruction``."""
    from dataclasses import fields as dc_fields

    cls = type(instruction)
    parts = [instruction.opcode.name]
    parts.append(f"buff={instruction.buff_id}")
    parts.append(f"dept={_format_dept(instruction.dept_flag)}")
    for f in dc_fields(cls):
        if f.name in ("dept_flag", "buff_id"):
            continue
        value = getattr(instruction, f.name)
        default = f.default
        if value != default:
            parts.append(f"{f.name}={int(value)}")
    return " ".join(parts)


def disassemble(program: Program) -> str:
    """Full program listing with layer-marker comments."""
    lines: List[str] = []
    marker_starts = {m.start: m for m in program.markers}
    for index, instruction in enumerate(program):
        if index in marker_starts:
            marker = marker_starts[index]
            lines.append(
                f"# layer {marker.layer_name} "
                f"mode={marker.mode} dataflow={marker.dataflow}"
            )
        lines.append(disassemble_instruction(instruction))
    return "\n".join(lines) + ("\n" if lines else "")


def assemble_line(line: str) -> Instruction:
    """Parse one line of assembly."""
    tokens = line.split()
    if not tokens:
        raise EncodingError("empty assembly line")
    opcode_name = tokens[0].upper()
    try:
        opcode = Opcode[opcode_name]
    except KeyError:
        raise EncodingError(f"unknown opcode {opcode_name!r}") from None
    cls = INSTRUCTION_CLASSES[opcode]
    kwargs = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise EncodingError(f"malformed operand {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        if key == "buff":
            kwargs["buff_id"] = int(value)
        elif key == "dept":
            kwargs["dept_flag"] = _parse_dept(value)
        else:
            kwargs[key] = int(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise EncodingError(f"bad operands for {opcode_name}: {exc}") from None


def assemble(text: str) -> Program:
    """Parse a full assembly listing into a :class:`Program`."""
    lines = (raw.strip() for raw in text.splitlines())
    return Program(
        assemble_line(line)
        for line in lines
        if line and not line.startswith("#") and not line.startswith(";")
    )
