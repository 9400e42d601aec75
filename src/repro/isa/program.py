"""Instruction stream container.

A :class:`Program` is the compiler's output: an ordered instruction
stream plus metadata (layer boundaries, buffer plan) that the runtime and
the simulator consume.  It round-trips losslessly through the 16-byte
binary format (the paper's "Inst. files", Figure 1).

The stream is stored as three parallel columns, not as objects: an int
``opcodes`` column, an int ``depts`` column (the DEPT_FLAG bits) and
``rows``, one tuple per instruction holding its remaining fields in
:class:`~repro.isa.fields.BitLayout` order
(:data:`~repro.isa.encoding.ROW_FIELDS`, ``buff_id`` first).  The
compiler appends plain ints, the simulator reads the columns, and the
binary format is packed from and unpacked into them.
:class:`~repro.isa.instructions.Instruction` dataclasses are built only
on demand: by indexing, iteration, disassembly and validation.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import EncodingError
from repro.isa.encoding import (
    decode_row,
    encode_row,
    instruction_from_row,
    row_of,
)
from repro.isa.instructions import Instruction, Opcode


@dataclass
class LayerMarker:
    """Range of instructions implementing one network layer."""

    layer_name: str
    start: int
    end: int  # exclusive
    mode: str = "spat"  # "spat" | "wino"
    dataflow: str = "is"  # "is" | "ws"


class Program:
    """An executable instruction stream, stored as columns.

    Attributes
    ----------
    opcodes, depts, rows:
        The stream in fetch order: per instruction its opcode, its
        DEPT_FLAG bits and the tuple of its other fields.
    markers:
        Per-layer instruction ranges (in stream order).
    metadata:
        Free-form compiler annotations (buffer plan, config echo, ...).

    :attr:`instructions` is an immutable snapshot; ``program[i] =
    instruction`` is the way to replace one.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction] = (),
        markers: Optional[List[LayerMarker]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ):
        self.opcodes: List[int] = []
        self.depts: List[int] = []
        self.rows: List[Tuple[int, ...]] = []
        self.markers: List[LayerMarker] = [] if markers is None else markers
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        self.extend(instructions)

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self) -> Iterator[Instruction]:
        return map(instruction_from_row, self.opcodes, self.depts, self.rows)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Instruction, List[Instruction]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return instruction_from_row(
            self.opcodes[index], self.depts[index], self.rows[index]
        )

    def __setitem__(self, index: int, instruction: Instruction) -> None:
        index = operator.index(index)
        row = row_of(instruction)
        self.opcodes[index] = int(instruction.opcode)
        self.depts[index] = int(instruction.dept_flag)
        self.rows[index] = row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.opcodes == other.opcodes
            and self.depts == other.depts
            and self.rows == other.rows
            and self.markers == other.markers
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:
        return (
            f"Program({len(self)} instructions, {len(self.markers)} layers)"
        )

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The stream as an immutable tuple of instructions."""
        return tuple(self)

    def append(self, instruction: Instruction) -> None:
        self.opcodes.append(int(instruction.opcode))
        self.depts.append(int(instruction.dept_flag))
        self.rows.append(row_of(instruction))

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for instruction in instructions:
            self.append(instruction)

    def mark_layer(
        self, layer_name: str, start: int, mode: str, dataflow: str
    ) -> None:
        """Record that instructions ``start:`` (to current end) implement
        ``layer_name``."""
        self.markers.append(
            LayerMarker(
                layer_name=layer_name,
                start=start,
                end=len(self),
                mode=mode,
                dataflow=dataflow,
            )
        )

    def layer_slice(self, layer_name: str) -> List[Instruction]:
        """The instructions implementing ``layer_name``."""
        for marker in self.markers:
            if marker.layer_name == layer_name:
                return self[marker.start : marker.end]
        raise KeyError(f"no layer {layer_name!r} in program")

    def count_by_opcode(self) -> Dict[Opcode, int]:
        return {
            Opcode(opcode): count
            for opcode, count in Counter(self.opcodes).items()
        }

    # -- binary round-trip ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the on-DRAM binary format (16 bytes/instruction)."""
        return b"".join(
            encode_row(opcode, dept, row).to_bytes(16, "little")
            for opcode, dept, row in zip(self.opcodes, self.depts, self.rows)
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Program":
        """Deserialise a binary instruction stream (markers are lost —
        they are host-side metadata, not part of the binary)."""
        if len(blob) % 16:
            raise EncodingError(
                f"binary length {len(blob)} is not a multiple of 16"
            )
        program = cls()
        view = memoryview(blob)
        for offset in range(0, len(blob), 16):
            opcode, dept, row = decode_row(
                int.from_bytes(view[offset : offset + 16], "little")
            )
            program.opcodes.append(opcode)
            program.depts.append(dept)
            program.rows.append(row)
        return program

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Program":
        return cls.from_bytes(Path(path).read_bytes())
