"""The NF server cost model.

The paper's NF server is a many-core Xeon running OpenNetVM or NetBricks
with a DPDK NIC.  For the simulation, what matters is (a) the per-packet
service time of the slowest stage of the framework pipeline (which sets
the compute-bound packets-per-second ceiling of §6.2.2/§6.3.3) and (b)
the end-to-end processing latency through the chain.
:class:`NfServerModel` derives both from an
:class:`~repro.nf.chain.NfChain` and an
:class:`~repro.nf.framework.NfFramework` profile; the discrete-event
host in :mod:`repro.netsim.server_node` consumes them.  How many packets
the server buffers is the host's own figure: its NIC's RX ring plus one
framework ring per NF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.nf.base import NfResult
from repro.nf.chain import NfChain
from repro.nf.framework import OPENNETVM, NfFramework
from repro.packet.packet import Packet


@dataclass
class NfServerConfig:
    """Static parameters of one NF server.

    The NIC, and with it the RX ring depth, is the server node's
    :class:`~repro.netsim.nic.NicSpec`, not a field here.

    Attributes
    ----------
    cpu_ghz:
        Core clock used to convert cycles to time (2.3 GHz Xeon E7-4870
        v2 in the paper's NF server).
    framework:
        NF framework profile (OpenNetVM / NetBricks).
    per_hop_latency_ns:
        Fixed pipeline latency added per framework hop (polling and
        batching delay between rings); containers cost more than
        function calls.
    explicit_drop:
        The framework runs the Explicit Drop modification of §6.2.4:
        the server sends a notification back to the switch for each
        parked packet its chain drops.  The one declaration of the
        setting; a scenario's ``explicit_drop`` feeds it.
    service_jitter:
        Coefficient of variation applied to per-packet service times by
        the discrete-event host (models cache misses, batching and
        scheduling noise).
    nf_instances:
        How many cores each NF of the chain is scaled across (OpenNetVM
        and NetBricks both support running multiple instances of an NF;
        the paper's 60-core server has cores to spare).  The RX and TX
        threads are not scaled.
    """

    cpu_ghz: float = 2.3
    framework: NfFramework = field(default_factory=lambda: OPENNETVM)
    per_hop_latency_ns: int = 2_000
    explicit_drop: bool = False
    service_jitter: float = 0.3
    nf_instances: int = 2


class NfServerModel:
    """Derives timing and capacity figures for one NF server + chain."""

    def __init__(self, chain: NfChain, config: Optional[NfServerConfig] = None,
                 name: str = "nf-server") -> None:
        self.chain = chain
        self.config = config or NfServerConfig()
        self.name = name

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def stage_service_times_ns(self) -> List[float]:
        """Per-packet service time of each pipeline stage, in nanoseconds.

        The pipeline is: RX thread, one stage per NF (each including the
        framework's per-hop overhead), TX thread.  In OpenNetVM each of
        these runs on its own core, so the *throughput* of the chain is
        set by the slowest stage while every stage adds to latency.
        """
        ghz = self.config.cpu_ghz
        framework = self.config.framework
        instances = max(1, self.config.nf_instances)
        stages = [framework.rx_cycles / ghz]
        for nf_cycles in self.chain.stage_cycle_estimates():
            stages.append((nf_cycles + framework.per_nf_overhead_cycles) / ghz / instances)
        stages.append(framework.tx_cycles / ghz)
        return stages

    def bottleneck_service_ns(self) -> float:
        """Service time of the slowest pipeline stage (sets max pps)."""
        return max(self.stage_service_times_ns())

    def pipeline_latency_ns(self) -> float:
        """Zero-queueing latency through the whole framework pipeline."""
        stage_time = sum(self.stage_service_times_ns())
        hops = len(self.chain) + 1  # NIC→NF rings plus NF→TX ring
        return stage_time + hops * self.config.per_hop_latency_ns

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #

    def process_packet(self, packet: Packet) -> NfResult:
        """Run the packet through the NF chain (header rewrites, drops)."""
        return self.chain.process(packet)
