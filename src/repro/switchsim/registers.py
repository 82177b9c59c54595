"""Register arrays: the stateful SRAM exposed to P4 programs.

RMT switches view stateful memory as fixed-width bit-vector register
arrays, accessed from match-action table actions: here a read, or a
read-modify-write through the stateful ALU.  Hardware guarantees line rate by allowing only a single
stateful ALU operation per register array per packet pass; the simulator
enforces the same rule through the access guard in
:class:`~repro.switchsim.context.PipelinePacket`, so a P4-impossible
program fails loudly here too.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.switchsim.context import PipelinePacket
from repro.switchsim.resources import StageResources


class RegisterAccessError(RuntimeError):
    """A program performed more than one access to a register array in a pass."""


class SramBlock:
    """A register array's SRAM and access guard, without its entries
    (a PayloadPark payload block).  :meth:`read` is a guarded access
    that returns nothing, on any array.

    Parameters
    ----------
    name:
        Unique name, used in error messages and the access guard.
    size:
        Number of entries.
    width_bits:
        Width of each entry; determines the SRAM the array consumes.
    stage_resources:
        When given, the array allocates ``size * width_bits / 8`` bytes
        from the owning stage's SRAM budget at construction time.
    """

    def __init__(
        self,
        name: str,
        size: int,
        width_bits: int,
        stage_resources: Optional[StageResources] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"register array {name!r} needs a positive size")
        if width_bits <= 0:
            raise ValueError(f"register array {name!r} needs a positive width")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        if stage_resources is not None:
            stage_resources.allocate_sram(self.sram_bytes, what=name)

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint of the whole array, rounded up to whole bytes."""
        return self.size * ((self.width_bits + 7) // 8)

    def read(self, ctx: PipelinePacket, index: int) -> None:
        """The stateful access to entry *index* of the packet in *ctx*."""
        self._check_index(index)
        self._note_access(ctx, is_write=False)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"register array {self.name!r}: index {index} out of range")

    def _note_access(self, ctx: PipelinePacket, is_write: bool) -> None:
        if ctx.register_reads is None:
            ctx.register_reads = {}
        if ctx.register_writes is None:
            ctx.register_writes = {}
        reads = ctx.register_reads.get(self.name, 0)
        writes = ctx.register_writes.get(self.name, 0)
        if reads + writes >= 1:
            raise RegisterAccessError(
                f"register array {self.name!r} accessed more than once for packet "
                f"{ctx.packet.packet_id} in a single pipeline pass; RMT hardware "
                f"permits a single stateful access per array per pass"
            )
        if is_write:
            ctx.register_writes[self.name] = writes + 1
        else:
            ctx.register_reads[self.name] = reads + 1


class RegisterArray(SramBlock):
    """A fixed-size array of fixed-width registers living in one stage: an
    :class:`SramBlock` whose entries are each *initial* until written.
    The dataplane reads an entry through the stateful ALU
    (:meth:`read_modify_write`), the control plane through :meth:`peek`."""

    def __init__(self, name: str, size: int, width_bits: int,
                 stage_resources: Optional[StageResources] = None, initial: Any = 0) -> None:
        super().__init__(name, size, width_bits, stage_resources)
        self._values: List[Any] = [initial] * size

    # ------------------------------------------------------------------ #
    # Dataplane access (guarded)
    # ------------------------------------------------------------------ #

    def read_modify_write(self, ctx: PipelinePacket, index: int, func) -> Any:
        """Atomically apply ``func(old) -> new`` to entry *index*.

        This models the stateful ALU: a single access that both reads and
        writes, as used by the paper's tagger counters and the expiry
        decrement.  Returns the *new* value.
        """
        self._check_index(index)
        self._note_access(ctx, is_write=True)
        new_value = func(self._values[index])
        self._values[index] = new_value
        return new_value

    # ------------------------------------------------------------------ #
    # Control-plane access (unrestricted)
    # ------------------------------------------------------------------ #

    @property
    def storage(self) -> List[Any]:
        """The backing list itself, for port plans.

        A port plan fuses a program's tables into one kernel that has
        been diffed against the guarded stage walk, so it indexes the
        storage directly instead of paying for the guard per access.
        The list is only ever mutated in place, so a reference stays
        valid for the array's lifetime.
        """
        return self._values

    def peek(self, index: int) -> Any:
        """Control-plane read that bypasses the access guard."""
        self._check_index(index)
        return self._values[index]

    def poke(self, index: int, value: Any) -> None:
        """Control-plane write that bypasses the access guard."""
        self._check_index(index)
        self._values[index] = value

    def occupancy(self, is_occupied=lambda value: bool(value)) -> int:
        """Count entries considered occupied by *is_occupied* (control plane)."""
        return sum(1 for value in self._values if is_occupied(value))
