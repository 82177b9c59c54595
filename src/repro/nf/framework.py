"""NF framework profiles (OpenNetVM and NetBricks).

PayloadPark is transparent to the NF framework: the evaluation runs the
*unmodified* frameworks and only the optional Explicit-Drop optimization
(§6.2.4) adds ~50 lines to OpenNetVM.  What the simulation needs from a
framework is its per-packet overhead (RX/TX threads, inter-NF rings or
function calls, container crossings), its batching behaviour and its
ring sizes — these determine when the NF server becomes compute bound
and how much buffering (and therefore queueing latency) builds up ahead
of the NFs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NfFramework:
    """Cost/buffering profile of an NF framework.

    Attributes
    ----------
    name:
        Framework name used in reports.
    rx_cycles / tx_cycles:
        Per-packet cost of the framework's receive and transmit paths
        (mbuf allocation, descriptor handling).
    per_nf_overhead_cycles:
        Per-packet, per-NF-hop cost: ring enqueue/dequeue plus container
        crossing for OpenNetVM, a function call for NetBricks.
    batch_size:
        Packets pulled per poll; processing happens in bursts of this
        size, which adds burstiness to the service process.
    ring_entries:
        Depth of each inter-stage ring; together with the NIC RX ring
        this bounds how many packets can be queued inside the server.
    isolated_nfs:
        True when NFs run in separate containers/processes (OpenNetVM);
        False for the single-process model (NetBricks).
    supports_explicit_drop:
        Whether the (modified) framework can send Explicit Drop
        notifications back to the switch.
    """

    name: str
    rx_cycles: int = 90
    tx_cycles: int = 90
    per_nf_overhead_cycles: int = 150
    batch_size: int = 32
    ring_entries: int = 1024
    isolated_nfs: bool = True
    supports_explicit_drop: bool = False

    def with_explicit_drop(self) -> "NfFramework":
        """The ~50-line modification of §6.2.4: enable Explicit Drop support."""
        return replace(self, supports_explicit_drop=True, name=f"{self.name}+ExplicitDrop")


#: OpenNetVM: DPDK + Docker containers, NFs connected by shared-memory rings.
OPENNETVM = NfFramework(
    name="OpenNetVM",
    rx_cycles=100,
    tx_cycles=100,
    per_nf_overhead_cycles=180,
    batch_size=32,
    ring_entries=1024,
    isolated_nfs=True,
)

#: NetBricks: Rust, no containers, NFs composed in a single process.
NETBRICKS = NfFramework(
    name="NetBricks",
    rx_cycles=80,
    tx_cycles=80,
    per_nf_overhead_cycles=60,
    batch_size=32,
    ring_entries=1024,
    isolated_nfs=False,
)
