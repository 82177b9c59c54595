"""Per-packet pipeline context (the simulator's PHV + intrinsic metadata).

On an RMT switch, the parser turns the packet into a Packet Header Vector
(PHV) whose fields and user-defined metadata flow through the
match-action stages.  In the simulator the parsed :class:`~repro.packet.packet.Packet`
object plays the role of the header portion of the PHV, and
:class:`PipelinePacket` carries it together with the user metadata struct
(``meta``), intrinsic metadata (ingress port, egress decision, drop flag)
and per-pass bookkeeping such as the register-access guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.compat import SLOTTED
from repro.packet.packet import Packet


@dataclass(**SLOTTED)
class PipelinePacket:
    """A packet travelling through one pass of a switch pipe.

    Attributes
    ----------
    packet:
        The parsed packet (headers + payload).
    ingress_port:
        Chip-level port the packet arrived on.
    meta:
        User-defined metadata fields, equivalent to the ``meta`` struct
        in the paper's pseudo-code (e.g. ``meta.tbl_idx``, ``meta.clk``).
    egress_port:
        Egress decision, or ``None`` if no table has routed the packet yet.
    dropped / drop_reason:
        Set when an action drops the packet.
    recirculations:
        Number of times the packet has been sent back through the parser.
    recirculate_requested:
        Set by an action to request another pass; cleared by the pipe.
    register_reads / register_writes:
        Per-pass access counts keyed by register-array name, used to
        enforce the one-stateful-access-per-array-per-pass restriction.
        Allocated lazily by the access guard (``None`` until the first
        guarded access), since a context is created per walked packet
        and most walks never reach the guard.

    The record exists on the stage walk only: the pipe's parser builds
    it, the tables read and write it, and
    :meth:`~repro.switchsim.pipe.Pipe.decision` reads the switch's
    egress decision (egress port and owed recirculation latency, or a
    drop reason) off the finished one.  The fused port-plan kernels
    (``repro.core.split``, ``repro.core.merge`` and the baseline's two
    forward closures in ``repro.core.program``) build none: they return
    that decision directly, and
    ``tests/property/test_property_port_plans.py`` holds every kernel's
    decision to the one derived from the walk's record.
    """

    packet: Packet
    ingress_port: int
    meta: Dict[str, int] = field(default_factory=dict)
    egress_port: Optional[int] = None
    dropped: bool = False
    drop_reason: str = ""
    recirculations: int = 0
    recirculate_requested: bool = False
    register_reads: Optional[Dict[str, int]] = None
    register_writes: Optional[Dict[str, int]] = None

    def drop(self, reason: str) -> None:
        """Mark the packet as dropped with a reason for the counters."""
        self.dropped = True
        self.drop_reason = reason

    def forward_to(self, port: int) -> None:
        """Set the egress port decision."""
        self.egress_port = port

    def request_recirculation(self) -> None:
        """Ask the pipe to run the packet through the pipeline again."""
        self.recirculate_requested = True

    def reset_pass_state(self) -> None:
        """Clear per-pass bookkeeping before a recirculation pass."""
        if self.register_reads is not None:
            self.register_reads.clear()
        if self.register_writes is not None:
            self.register_writes.clear()
        self.recirculate_requested = False
