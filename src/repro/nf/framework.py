"""NF framework profiles (OpenNetVM and NetBricks).

PayloadPark is transparent to the NF framework: the evaluation runs the
*unmodified* frameworks and only the optional Explicit-Drop optimization
(§6.2.4) adds ~50 lines to OpenNetVM.  That modification is a server
setting, :attr:`~repro.nf.server.NfServerConfig.explicit_drop`, not a
second framework profile.  What the simulation needs from a framework
is its per-packet overhead (RX/TX threads, inter-NF rings or function
calls, container crossings) and its ring depth — these determine when
the NF server becomes compute bound and how much buffering (and
therefore queueing latency) builds up ahead of the NFs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NfFramework:
    """Cost/buffering profile of an NF framework: what its per-packet
    cost and its rings do to a server's service time and buffering.

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
    ring_entries:
        Depth of each inter-stage ring; together with the NIC RX ring
        this bounds how many packets can be queued inside the server.
    """

    name: str
    rx_cycles: int = 90
    tx_cycles: int = 90
    per_nf_overhead_cycles: int = 150
    ring_entries: int = 1024


#: OpenNetVM: DPDK + Docker containers, NFs connected by shared-memory rings.
OPENNETVM = NfFramework(
    name="OpenNetVM",
    rx_cycles=100,
    tx_cycles=100,
    per_nf_overhead_cycles=180,
    ring_entries=1024,
)

#: NetBricks: Rust, no containers, NFs composed in a single process.
NETBRICKS = NfFramework(
    name="NetBricks",
    rx_cycles=80,
    tx_cycles=80,
    per_nf_overhead_cycles=60,
    ring_entries=1024,
)
