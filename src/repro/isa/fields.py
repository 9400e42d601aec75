"""Bit-field machinery for 128-bit instruction words.

A :class:`BitLayout` is an ordered list of named fields with fixed widths.
Packing validates ranges (raising :class:`~repro.errors.EncodingError` on
overflow) so compiler bugs surface at encode time instead of as silent
corruption, mirroring what an RTL assertion would catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import EncodingError

WORD_BITS = 128


@dataclass(frozen=True)
class Field:
    """One contiguous bit field: ``width`` bits starting at ``offset``."""

    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def max_value(self) -> int:
        return self.mask


class BitLayout:
    """Ordered collection of fields packed LSB-first into one word.

    Fields are laid out in declaration order from bit 0 upward; the
    remainder up to 128 bits is reserved (must decode as zero).
    """

    def __init__(self, name: str, fields: List[Tuple[str, int]]):
        self.name = name
        self.fields: List[Field] = []
        self._by_name: Dict[str, Field] = {}
        offset = 0
        for field_name, width in fields:
            if width <= 0:
                raise EncodingError(
                    f"{name}.{field_name}: width must be positive"
                )
            if field_name in self._by_name:
                raise EncodingError(f"{name}: duplicate field {field_name!r}")
            field = Field(field_name, width, offset)
            self.fields.append(field)
            self._by_name[field_name] = field
            offset += width
        if offset > WORD_BITS:
            raise EncodingError(
                f"{name}: fields use {offset} bits, exceeding {WORD_BITS}"
            )
        self.used_bits = offset

    def __contains__(self, field_name: str) -> bool:
        return field_name in self._by_name

    def field(self, field_name: str) -> Field:
        try:
            return self._by_name[field_name]
        except KeyError:
            raise EncodingError(
                f"{self.name}: unknown field {field_name!r}"
            ) from None

    def pack(self, values: Dict[str, int]) -> int:
        """Pack ``values`` into a 128-bit integer.

        Every field must be present; extra keys are rejected.
        """
        extra = set(values) - set(self._by_name)
        if extra:
            raise EncodingError(f"{self.name}: unexpected fields {sorted(extra)}")
        missing = set(self._by_name) - set(values)
        if missing:
            raise EncodingError(f"{self.name}: missing fields {sorted(missing)}")
        return self.pack_values([values[field.name] for field in self.fields])

    def pack_values(self, values: Sequence[int]) -> int:
        """Pack one value per field, in field order."""
        if len(values) != len(self.fields):
            raise EncodingError(
                f"{self.name}: expected {len(self.fields)} values, "
                f"got {len(values)}"
            )
        word = 0
        for field, value in zip(self.fields, values):
            if not isinstance(value, int) or isinstance(value, bool):
                value = int(value)
            if value < 0 or value > field.max_value:
                raise EncodingError(
                    f"{self.name}.{field.name}: value {value} does not fit "
                    f"in {field.width} bits"
                )
            word |= value << field.offset
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Unpack a 128-bit integer; reserved bits must be zero."""
        return dict(zip(self._by_name, self.unpack_values(word)))

    def unpack_values(self, word: int) -> Tuple[int, ...]:
        """Field values of ``word`` in field order; reserved bits must be
        zero."""
        if word < 0 or word >= 1 << WORD_BITS:
            raise EncodingError(
                f"{self.name}: word out of 128-bit range"
            )
        reserved = word >> self.used_bits
        if reserved:
            raise EncodingError(
                f"{self.name}: reserved bits are non-zero (0x{reserved:x})"
            )
        return tuple(
            (word >> field.offset) & field.mask for field in self.fields
        )
