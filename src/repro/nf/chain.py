"""NF chains: ordered compositions of network functions.

The evaluation uses Firewall → NAT and Firewall → NAT → LB chains (plus
single NFs).  A chain processes a packet through each NF in order until
one drops it; the chain also exposes the per-stage cycle costs that the
server model needs for its pipelined-throughput calculation (in
OpenNetVM each NF runs on its own core and stages are connected by
rings, so chain throughput is set by the slowest stage while latency is
the sum of the stages).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.packet import Packet


class NfChain:
    """An ordered chain of network functions."""

    def __init__(self, nfs: Iterable[NetworkFunction], name: Optional[str] = None) -> None:
        self.nfs: List[NetworkFunction] = list(nfs)
        if not self.nfs:
            raise ValueError("an NF chain needs at least one NF")
        self.name = name or " -> ".join(nf.name for nf in self.nfs)

    def __len__(self) -> int:
        return len(self.nfs)

    def __iter__(self):
        return iter(self.nfs)

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet) -> NfResult:
        """Run *packet* through every NF until one drops it.

        Returns :data:`~repro.nf.base.FORWARDED`, or the dropping NF's
        result.
        """
        for nf in self.nfs:
            result = nf.process(packet)
            if not result.forwarded:
                return result
        return FORWARDED

    # ------------------------------------------------------------------ #
    # Cost model helpers
    # ------------------------------------------------------------------ #

    def stage_cycle_estimates(self, sample_packet_cycles: Optional[List[int]] = None) -> List[int]:
        """Representative per-stage cycle costs, used by the server model.

        The estimate probes each NF's cost attributes without running a
        packet: it covers the firewall's rule count, the NAT's lookup and
        rewrite, the load balancer's hash, and synthetic NFs' fixed
        budget.  ``sample_packet_cycles`` overrides the estimate when an
        experiment has measured real values.
        """
        if sample_packet_cycles is not None:
            if len(sample_packet_cycles) != len(self.nfs):
                raise ValueError("sample_packet_cycles must have one entry per NF")
            return list(sample_packet_cycles)
        estimates = []
        for nf in self.nfs:
            estimate = getattr(nf, "cycles_per_packet", None)
            if estimate is not None:
                estimates.append(int(estimate))
                continue
            cycles = nf.base_cycles
            rules = getattr(nf, "rules", None)
            if rules is not None:
                cycles += len(rules) * getattr(nf, "cycles_per_rule", 0)
            for attribute in ("lookup_cycles", "rewrite_cycles", "hash_cycles", "swap_cycles"):
                cycles += getattr(nf, attribute, 0)
            estimates.append(cycles)
        return estimates
