"""Generative workloads: arrival process × flow model × size law × schedule.

A :class:`GenerativeWorkload` composes the four orthogonal ingredients
into one named traffic model: a :class:`~repro.workloads.base.TrafficModel`
whose packet source and arrival sampler plug into
:class:`~repro.netsim.trafficgen_node.TrafficGenNode`.  The simulator,
campaigns (by name, through the scenario registry) and ``repro workload
preview`` (which runs that node alone) all consume that one model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadSpecError
from repro.packet.packet import Packet
from repro.packet.pool import FramePool
from repro.traffic.distributions import PacketSizeDistribution
from repro.traffic.pktgen import blacklisted_source, build_udp_frame
from repro.traffic.workload import Workload
from repro.workloads.arrivals import ArrivalModel, UniformArrivals
from repro.workloads.base import TrafficModel, WorkloadSpec
from repro.workloads.flowmodels import FlowModel, FlowSampler, RoundRobinFlows
from repro.workloads.schedule import TraceSchedule


class GenerativePacketSource:
    """Builds frames from a size distribution and a flow sampler.

    The drop-in generalization of
    :class:`~repro.traffic.pktgen.PacketFactory`: same payload pattern,
    same blacklist steering, but the flow policy is pluggable.
    """

    def __init__(
        self,
        sizes: PacketSizeDistribution,
        flow_sampler: FlowSampler,
        rng: random.Random,
        src_mac: str = "02:00:00:00:00:01",
        dst_mac: str = "02:00:00:00:00:02",
        blacklisted_fraction: float = 0.0,
        pooled: bool = False,
    ) -> None:
        self.sizes = sizes
        self.flow_sampler = flow_sampler
        self._rng = rng
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.blacklisted_fraction = blacklisted_fraction
        #: Fast-path flag: build frames through a FramePool.
        #: May be flipped until the first packet is built (the topology
        #: sets it together with the generator MACs).
        self.pooled = pooled
        self._pool: Optional[FramePool] = None
        self.packets_built = 0

    def next_packet(self) -> Packet:
        """Build the next frame deterministically from the bound RNG.

        Pooled and reference paths draw from the RNG identically and
        produce byte-identical frames, so ``pooled`` cannot change
        simulation results.
        """
        size = self.sizes.sample(self._rng)
        flow = self.flow_sampler.next_flow()
        blacklisted = (
            self.blacklisted_fraction > 0
            and self._rng.random() < self.blacklisted_fraction
        )
        if self.pooled:
            pool = self._pool
            if pool is None:
                pool = self._pool = FramePool(self.src_mac, self.dst_mac)
            packet = pool.frame(
                size,
                flow,
                src_ip=blacklisted_source(self.packets_built) if blacklisted else None,
            )
        else:
            packet = build_udp_frame(
                size,
                flow,
                src_mac=self.src_mac,
                dst_mac=self.dst_mac,
                src_ip=str(blacklisted_source(self.packets_built)) if blacklisted else None,
            )
        self.packets_built += 1
        return packet


@dataclass
class GenerativeWorkload(WorkloadSpec):
    """A named, fully generative traffic model."""

    name: str = "generative"
    description: str = ""
    sizes: PacketSizeDistribution = None  # type: ignore[assignment]
    flows: FlowModel = field(default_factory=RoundRobinFlows)
    arrivals: ArrivalModel = field(default_factory=UniformArrivals)
    schedule: Optional[TraceSchedule] = None
    rate_gbps: float = 8.0
    blacklisted_fraction: float = 0.0
    burst_size: int = 32
    kind: str = "generative"

    def __post_init__(self) -> None:
        if self.sizes is None:
            raise WorkloadSpecError("a generative workload needs a size distribution")
        if self.rate_gbps <= 0:
            raise WorkloadSpecError("rate_gbps must be positive")
        if not 0.0 <= self.blacklisted_fraction <= 1.0:
            raise WorkloadSpecError("blacklisted_fraction must lie in [0, 1]")

    # ------------------------------------------------------------------ #
    # WorkloadSpec interface
    # ------------------------------------------------------------------ #

    def nominal_rate_gbps(self) -> float:
        if self.schedule is not None:
            return self.schedule.mean_gbps()
        return self.rate_gbps

    def workload(self) -> Workload:
        # Static view for mean-size/pps arithmetic and reports; the live
        # flow policy comes from ``flows`` via the packet source, so the
        # population here is only nominal (and capped for memory).
        from repro.packet.flows import FlowGenerator

        return Workload(
            name=self.name,
            sizes=self.sizes,
            flows=FlowGenerator(flow_count=min(self.flows.nominal_flow_count(), 4096)),
            blacklisted_fraction=self.blacklisted_fraction,
        )

    def packet_source(self, seed: int) -> GenerativePacketSource:
        """A fresh deterministic packet source for *seed*."""
        rng = random.Random(seed)
        return GenerativePacketSource(
            sizes=self.sizes,
            flow_sampler=self.flows.sampler(rng),
            rng=rng,
            blacklisted_fraction=self.blacklisted_fraction,
        )

    def traffic_model(self, rate_gbps: Optional[float] = None) -> TrafficModel:
        schedule = self.schedule
        if schedule is not None and rate_gbps is not None:
            schedule = schedule.with_mean(rate_gbps)

        def source_factory(config) -> GenerativePacketSource:
            source = self.packet_source(config.seed)
            source.src_mac = config.src_mac
            source.dst_mac = config.dst_mac
            source.pooled = getattr(config, "pooled", False)
            return source

        return TrafficModel(
            schedule=schedule,
            arrivals=self.arrivals,
            source_factory=source_factory,
            rescale=self.traffic_model,
        )

    def describe(self) -> dict:
        info = super().describe()
        info["sizes"] = type(self.sizes).__name__
        info["mean_frame_bytes"] = f"{self.sizes.mean():.1f}"
        info["flows"] = self.flows.label()
        info["arrivals"] = self.arrivals.label()
        if self.blacklisted_fraction:
            info["blacklisted_fraction"] = f"{self.blacklisted_fraction:g}"
        if self.schedule is not None:
            info["schedule"] = "; ".join(self.schedule.describe())
        else:
            info["schedule"] = "constant"
        return info
