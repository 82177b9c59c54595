"""Packet Header Vector (PHV) capacity accounting.

The PHV is the bus of header and metadata containers that the parser
fills and the match-action stages read and write.  Its capacity limits
how many header bytes a program can operate on — in PayloadPark's case it
bounds how many payload bytes can be carried as "header" fields so that
the payload-table MATs can read and write them.  Table 1 reports 37.65 %
PHV utilization; :class:`PhvLayout` lets the program declare its
containers and produces the same percentage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PhvLayout:
    """Declared PHV containers for one program."""

    capacity_bits: int = 4_096
    fields: Dict[str, int] = field(default_factory=dict)

    def declare(self, name: str, bits: int) -> None:
        """Declare a header or metadata container of *bits* bits.

        Re-declaring an existing name with the same width is a no-op;
        with a different width it is an error (the parser and the MATs
        must agree on field layout).
        """
        if bits <= 0:
            raise ValueError(f"PHV field {name!r} must have a positive width")
        existing = self.fields.get(name)
        if existing is not None:
            if existing != bits:
                raise ValueError(
                    f"PHV field {name!r} redeclared with width {bits}, was {existing}"
                )
            return
        if self.used_bits + bits > self.capacity_bits:
            raise PhvOverflow(
                f"declaring PHV field {name!r} ({bits} bits) exceeds capacity: "
                f"{self.used_bits}/{self.capacity_bits} bits already used"
            )
        self.fields[name] = bits

    @property
    def used_bits(self) -> int:
        """Total declared bits."""
        return sum(self.fields.values())


class PhvOverflow(RuntimeError):
    """Raised when a program declares more PHV bits than the chip provides."""
