"""Base types shared by all network functions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.packet.packet import Packet


class NfVerdict(enum.Enum):
    """What an NF decided to do with a packet."""

    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True)
class NfResult:
    """Outcome of one NF processing one packet: its verdict.

    Immutable, so NFs and chains hand the same instance to every packet
    with the same outcome instead of allocating one per packet
    (:data:`FORWARDED` for every forward).  A packet's CPU cost is not
    part of it: the server model takes its service times, and with them
    the compute-bound analysis of §6.3.3, from
    :meth:`~repro.nf.chain.NfChain.stage_cycle_estimates`.

    Attributes
    ----------
    verdict:
        Forward or drop.
    reason:
        Optional human-readable reason for a drop.
    forwarded:
        True when the packet continues down the chain.  Stored at
        construction from ``verdict`` (every NF, the chain and the
        server read it for every packet); not a constructor argument
        and not part of equality.
    """

    verdict: NfVerdict
    reason: str = ""
    forwarded: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forwarded", self.verdict is NfVerdict.FORWARD)


#: The one FORWARD result every NF and chain returns.
FORWARDED = NfResult(NfVerdict.FORWARD)


class NetworkFunction:
    """Base class for shallow network functions.

    Subclasses implement :meth:`process`, which may rewrite the packet's
    headers in place (shallow NFs never touch the payload) and must
    return an :class:`NfResult` with the verdict.  Their cost attributes
    (``base_cycles`` and the subclass's ``*_cycles``) feed
    :meth:`~repro.nf.chain.NfChain.stage_cycle_estimates`.  ``name`` is
    used in experiment reports.
    """

    #: Default per-packet cost charged on top of subclass-specific work.
    base_cycles: int = 30

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__

    def process(self, packet: Packet) -> NfResult:
        """Process one packet; must be overridden."""
        raise NotImplementedError

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Opt into a behaviour-preserving faster datapath (default: no-op).

        NFs whose per-packet decision is a pure function of the packet
        override this: the firewall classifies through a table compiled
        from its rule list instead of probing it linearly, the Maglev LB
        memoizes its (deterministic-per-flow) backend choice.  NFs with
        per-packet state transitions (the NAT's binding allocation)
        keep the default no-op — their work cannot be skipped.
        """

    def drop(self, reason: str = "") -> NfResult:
        """Helper: build a DROP result."""
        return NfResult(verdict=NfVerdict.DROP, reason=reason)
