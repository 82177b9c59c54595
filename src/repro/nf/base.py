"""Base types shared by all network functions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.packet.packet import Packet


class NfVerdict(enum.Enum):
    """What an NF decided to do with a packet."""

    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True)
class NfResult:
    """Outcome of one NF processing one packet.

    Immutable, so NFs and chains hand the same instance to every packet
    with the same outcome instead of allocating one per packet.

    Attributes
    ----------
    verdict:
        Forward or drop.
    cycles:
        CPU cycles the NF spent on this packet (drives the compute-bound
        analysis of §6.3.3).
    reason:
        Optional human-readable reason for a drop.
    forwarded:
        True when the packet continues down the chain.  Stored at
        construction from ``verdict`` (every NF, the chain and the
        server read it for every packet); not a constructor argument
        and not part of equality.
    """

    verdict: NfVerdict
    cycles: int
    reason: str = ""
    forwarded: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forwarded", self.verdict is NfVerdict.FORWARD)


@lru_cache(maxsize=4096)
def forward_result(cycles: int) -> NfResult:
    """The FORWARD result with *cycles* total cost, one instance per total.

    An NF has a handful of distinct totals and a chain one per path
    through it, so the per-packet results are looked up, not allocated.
    """
    return NfResult(verdict=NfVerdict.FORWARD, cycles=cycles)


class NetworkFunction:
    """Base class for shallow network functions.

    Subclasses implement :meth:`process`, which may rewrite the packet's
    headers in place (shallow NFs never touch the payload) and must
    return an :class:`NfResult` with the verdict and the CPU cycles
    consumed.  ``name`` is used in experiment reports.
    """

    #: Default per-packet cost charged on top of subclass-specific work.
    base_cycles: int = 30

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__
        self.packets_seen = 0
        self.packets_dropped = 0

    def process(self, packet: Packet) -> NfResult:
        """Process one packet; must be overridden."""
        raise NotImplementedError

    def __call__(self, packet: Packet) -> NfResult:
        """Bookkeeping wrapper around :meth:`process`."""
        self.packets_seen += 1
        result = self.process(packet)
        if not result.forwarded:
            self.packets_dropped += 1
        return result

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Opt into a behaviour-preserving faster datapath (default: no-op).

        NFs whose per-packet decision is a pure function of the packet
        override this: the firewall classifies through a table compiled
        from its rule list instead of probing it linearly, the Maglev LB
        memoizes its (deterministic-per-flow) backend choice.  NFs with
        per-packet state transitions (the NAT's binding allocation)
        keep the default no-op — their work cannot be skipped.
        """

    def forward(self, cycles: int) -> NfResult:
        """Helper: the FORWARD result with *cycles* total cost."""
        return forward_result(cycles)

    def drop(self, cycles: int, reason: str = "") -> NfResult:
        """Helper: build a DROP result with *cycles* total cost."""
        return NfResult(verdict=NfVerdict.DROP, cycles=cycles, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
