"""Instruction stream container.

A :class:`Program` is the compiler's output: an ordered instruction
stream plus metadata (layer boundaries, host-side descriptors) that the
runtime and the simulator consume.  It round-trips losslessly through
the 16-byte binary format (the paper's "Inst. files", Figure 1).

The stream is stored as int64 numpy columns, not as objects:
``opcodes``, ``depts`` (the DEPT_FLAG bits) and ``rows``, an
``n x ROW_WIDTH`` array holding each instruction's remaining fields in
:class:`~repro.isa.fields.BitLayout` order
(:data:`~repro.isa.encoding.ROW_FIELDS`, ``buff_id`` first), zero past
its opcode's layout.  The compiler emits a whole layer of columns at a
time, the simulator slices them, and the binary format is packed from
and unpacked into them.  :class:`~repro.isa.instructions.Instruction`
dataclasses are built only on demand: by indexing, iteration,
disassembly and validation.

What the simulator needs beyond the 128-bit words (DRAM regions, element
counts, group coordinates, ping-pong halves) is host-side metadata: the
compiler stores it as a :class:`DescriptorTable` under
``program.metadata["descriptors"]``, int columns per instruction plus
one :class:`LayerConstants` per layer.  ``table[i]`` builds instruction
``i``'s descriptor dict when something asks for it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import EncodingError
from repro.isa.encoding import (
    ROW_FIELDS,
    decode_row,
    encode_row,
    instruction_from_row,
    row_of,
)
from repro.isa.instructions import Instruction, Opcode

#: Columns of :attr:`Program.rows`: the longest layout's field count
#: (COMP's 17).
ROW_WIDTH = max(len(names) for names in ROW_FIELDS.values())

_ROW_LENGTH = {int(opcode): len(names) for opcode, names in ROW_FIELDS.items()}


def _padded(row: Sequence[int]) -> Tuple[int, ...]:
    return tuple(row) + (0,) * (ROW_WIDTH - len(row))


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
        The stream in fetch order: int64 columns of the opcodes, the
        DEPT_FLAG bits, and (``n x ROW_WIDTH``) the other fields.
    markers:
        Per-layer instruction ranges (in stream order).
    metadata:
        Compiler annotations: ``"descriptors"`` holds the
        :class:`DescriptorTable` the simulator reads.

    :attr:`instructions` is an immutable snapshot; ``program[i] =
    instruction`` is the way to replace one.  :meth:`append` copies the
    columns, so build long streams with :meth:`extend` or
    :meth:`from_columns`.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction] = (),
        markers: Optional[List[LayerMarker]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ):
        self.opcodes = np.zeros(0, dtype=np.int64)
        self.depts = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros((0, ROW_WIDTH), dtype=np.int64)
        self.markers: List[LayerMarker] = [] if markers is None else markers
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        self.extend(instructions)

    @classmethod
    def from_columns(
        cls,
        opcodes,
        depts,
        rows,
        markers: Optional[List[LayerMarker]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "Program":
        """A program over ready-made columns (taken as int64, not
        copied when they already are)."""
        program = cls(markers=markers, metadata=metadata)
        program.opcodes = np.asarray(opcodes, dtype=np.int64)
        program.depts = np.asarray(depts, dtype=np.int64)
        program.rows = np.asarray(rows, dtype=np.int64).reshape(-1, ROW_WIDTH)
        if not len(program.opcodes) == len(program.depts) == len(program.rows):
            raise ValueError(
                f"column lengths differ: {len(program.opcodes)} opcodes, "
                f"{len(program.depts)} depts, {len(program.rows)} rows"
            )
        return program

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self) -> Iterator[Instruction]:
        for opcode, dept, row in zip(
            self.opcodes.tolist(), self.depts.tolist(), self.rows.tolist()
        ):
            yield instruction_from_row(opcode, dept, row[: _ROW_LENGTH[opcode]])

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Instruction, List[Instruction]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        opcode = int(self.opcodes[index])
        return instruction_from_row(
            opcode,
            int(self.depts[index]),
            self.rows[index, : _ROW_LENGTH[opcode]].tolist(),
        )

    def __setitem__(self, index: int, instruction: Instruction) -> None:
        index = operator.index(index)
        row = _padded(row_of(instruction))
        self.opcodes[index] = int(instruction.opcode)
        self.depts[index] = int(instruction.dept_flag)
        self.rows[index] = row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            np.array_equal(self.opcodes, other.opcodes)
            and np.array_equal(self.depts, other.depts)
            and np.array_equal(self.rows, other.rows)
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
        self.extend((instruction,))

    def extend(self, instructions: Iterable[Instruction]) -> None:
        instructions = list(instructions)
        if not instructions:
            return
        self.opcodes = np.concatenate((
            self.opcodes,
            np.array([int(i.opcode) for i in instructions], dtype=np.int64),
        ))
        self.depts = np.concatenate((
            self.depts,
            np.array([int(i.dept_flag) for i in instructions], dtype=np.int64),
        ))
        self.rows = np.concatenate((
            self.rows,
            np.array(
                [_padded(row_of(i)) for i in instructions], dtype=np.int64
            ),
        ))

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
        """Instructions per opcode, in order of first appearance."""
        values, first, counts = np.unique(
            self.opcodes, return_index=True, return_counts=True
        )
        return {
            Opcode(value): count
            for _, value, count in sorted(
                zip(first.tolist(), values.tolist(), counts.tolist())
            )
        }

    # -- binary round-trip ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the on-DRAM binary format (16 bytes/instruction)."""
        return b"".join(
            encode_row(
                opcode, dept, tuple(row[: _ROW_LENGTH[opcode]])
            ).to_bytes(16, "little")
            for opcode, dept, row in zip(
                self.opcodes.tolist(), self.depts.tolist(), self.rows.tolist()
            )
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Program":
        """Deserialise a binary instruction stream (markers are lost —
        they are host-side metadata, not part of the binary)."""
        if len(blob) % 16:
            raise EncodingError(
                f"binary length {len(blob)} is not a multiple of 16"
            )
        view = memoryview(blob)
        decoded = [
            decode_row(int.from_bytes(view[offset : offset + 16], "little"))
            for offset in range(0, len(blob), 16)
        ]
        return cls.from_columns(
            [opcode for opcode, _, _ in decoded],
            [dept for _, dept, _ in decoded],
            np.array(
                [_padded(row) for _, _, row in decoded], dtype=np.int64
            ).reshape(-1, ROW_WIDTH),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Program":
        return cls.from_bytes(Path(path).read_bytes())


# -- host-side descriptors ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayerConstants:
    """What the descriptors of one layer's instructions share.

    ``src_*`` is the feature map the layer's LOAD_INPs read, ``dst_*``
    the one its SAVEs write; a LOAD_WGT's block has shape ``(len(blocks),
    k_count, c_count) + coeff_shape``.  ``wgt_scales`` is the packed
    weights' per-position Winograd scale array, or None.
    """

    mode: str = "spat"
    stride: int = 1
    kernel: Tuple[int, int] = (1, 1)
    blocks: Tuple[Tuple[int, int], ...] = ((0, 0),)
    padding: int = 0
    coeff_shape: Tuple[int, int] = (1, 1)
    src_region: str = ""
    src_layout: int = 0
    src_channels: int = 0
    src_height: int = 0
    src_width: int = 0
    dst_region: str = ""
    dst_layout: int = 0
    dst_channels: int = 0
    dst_height: int = 0
    dst_width: int = 0
    wgt_region: str = ""
    bias_region: str = ""
    wgt_scales: Optional[np.ndarray] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerConstants):
            return NotImplemented
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if spec.name == "wgt_scales":
                if (mine is None) != (theirs is None) or (
                    mine is not None and not np.array_equal(mine, theirs)
                ):
                    return False
            elif mine != theirs:
                return False
        return True


#: The per-instruction descriptor values, one int64 column each (the
#: ``clear`` / ``flush`` / ``relu`` flags as 0 / 1).
COLUMNS = (
    "elems", "y_start", "rows", "c0", "c_count", "k0", "k_count", "out_w",
    "rows_out", "y0_out", "rows_valid", "pool", "offset", "count", "half",
    "inp_half", "wgt_half", "out_half", "clear", "flush", "relu",
)
_COLUMN = {name: index for index, name in enumerate(COLUMNS)}
_FLAGS = ("clear", "flush", "relu")

#: Per opcode: the descriptor's ``kind`` and its keys, in the order the
#: compiler records them.  A plain key is a column, or else the
#: :class:`LayerConstants` field of that name; a pair renames a field.
#: ``shape`` is LOAD_WGT's block shape (see :class:`LayerConstants`).
_KEYS = {
    Opcode.LOAD_INP: ("load_inp", (
        ("region", "src_region"), ("layout", "src_layout"),
        ("channels", "src_channels"), ("height", "src_height"),
        ("width", "src_width"), "y_start", "rows", "c0", "c_count",
        ("pad_left", "padding"), ("pad_right", "padding"), "elems", "half",
    )),
    Opcode.LOAD_WGT: ("load_wgt", (
        ("region", "wgt_region"), "offset", "shape", "elems", "half",
    )),
    Opcode.LOAD_BIAS: ("load_bias", (
        ("region", "bias_region"), "count", "elems",
    )),
    Opcode.COMP: ("comp", (
        "mode", "stride", "blocks", "kernel", "k0", "k_count", "c0",
        "c_count", "out_w", "rows_out", "relu", "clear", "flush",
        "inp_half", "wgt_half", "out_half", "wgt_scales",
    )),
    Opcode.SAVE: ("save", (
        ("region", "dst_region"), "dst_layout", "dst_channels",
        "dst_height", "dst_width", "y0_out", "rows_valid", "k0", "k_count",
        "pool", "elems", "half",
    )),
}


class DescriptorTable:
    """Host-side descriptors of a program's instructions, as columns.

    ``values`` holds one int64 row per name in :data:`COLUMNS` (zero
    where an instruction's kind has no such key), ``kinds`` each
    instruction's opcode and ``layer`` its index into ``layers``.
    ``table[i]`` is instruction ``i``'s descriptor as a dict, built on
    demand; timing reads :meth:`column` slices and per-layer constants
    and builds no dict at all.
    """

    def __init__(
        self,
        kinds: np.ndarray,
        layer: np.ndarray,
        values: np.ndarray,
        layers: Sequence[LayerConstants],
    ):
        self.kinds = np.asarray(kinds, dtype=np.int64)
        self.layer = np.asarray(layer, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.int64)
        self.layers = list(layers)
        if self.values.shape != (len(COLUMNS), len(self.kinds)) or len(
            self.layer
        ) != len(self.kinds):
            raise ValueError(
                f"descriptor columns {self.values.shape} and "
                f"{len(self.layer)} layer indices do not describe "
                f"{len(self.kinds)} instructions"
            )

    @classmethod
    def from_columns(
        cls,
        kinds,
        columns: Mapping[str, object],
        constants: LayerConstants = LayerConstants(),
    ) -> "DescriptorTable":
        """A one-layer table (a hand-written stream's) from named
        columns, given as values or scalars; the others are zero."""
        kinds = np.asarray(kinds, dtype=np.int64)
        values = np.zeros((len(COLUMNS), len(kinds)), dtype=np.int64)
        for name, column in columns.items():
            values[_COLUMN[name]] = column
        return cls(kinds, np.zeros(len(kinds)), values, [constants])

    def __len__(self) -> int:
        return len(self.kinds)

    def column(self, name: str) -> np.ndarray:
        """The per-instruction values of descriptor key ``name``."""
        return self.values[_COLUMN[name]]

    def __getitem__(self, index: int) -> dict:
        kind = int(self.kinds[index])
        values = dict(zip(COLUMNS, self.values[:, index].tolist()))
        for flag in _FLAGS:
            values[flag] = bool(values[flag])
        constants = self.layers[int(self.layer[index])]
        name, keys = _KEYS[kind]
        desc: dict = {"kind": name}
        for key in keys:
            key, source = key if isinstance(key, tuple) else (key, key)
            if source in values:
                desc[key] = values[source]
            elif key == "shape":
                desc[key] = (
                    len(constants.blocks), values["k_count"],
                    values["c_count"],
                ) + constants.coeff_shape
            else:
                desc[key] = getattr(constants, source)
        return desc

    def update(self, index: int, **values: int) -> None:
        """Overwrite per-instruction values of descriptor ``index``
        (per-layer constants are shared by the layer's instructions)."""
        for name, value in values.items():
            if name not in _COLUMN:
                raise KeyError(
                    f"{name!r} is not a per-instruction descriptor column"
                )
            self.values[_COLUMN[name], index] = int(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DescriptorTable):
            return NotImplemented
        return (
            np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.layer, other.layer)
            and np.array_equal(self.values, other.values)
            and self.layers == other.layers
        )

    def __repr__(self) -> str:
        return (
            f"DescriptorTable({len(self)} instructions, "
            f"{len(self.layers)} layers)"
        )
