"""Common workload abstractions shared by generative models and replay.

A *workload* hands the simulator a :class:`TrafficModel` — the bundle of
schedule, arrival process, packet source, timed replay stream and/or
closed-loop transport the traffic generator node consumes.  Its preview
trace (:meth:`WorkloadSpec.trace`) is not a second model of that
traffic: it runs the workload's own generator node and records what
leaves it.  The concrete families are
:class:`~repro.workloads.generative.GenerativeWorkload`,
:class:`~repro.workloads.replay.PcapReplayWorkload` and
:class:`~repro.workloads.transport.ClosedLoopWorkload`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadSpecError
from repro.traffic.workload import Workload

if TYPE_CHECKING:
    from repro.workloads.arrivals import ArrivalModel
    from repro.workloads.schedule import TraceSchedule
    from repro.workloads.stats import TracedPacket, WorkloadSummary

#: A replay stream yields ``(relative_time_ns, frame_bytes)`` pairs; the
#: traffic generator rebuilds a fresh Packet per frame so loop iterations
#: never share mutable packet state.
TimedFrame = Tuple[int, bytes]
StreamFactory = Callable[[int], Iterator[TimedFrame]]


def derived_rng(seed: int, salt: int) -> random.Random:
    """A deterministic RNG for (*seed*, *salt*) independent of hash salting."""
    return random.Random((seed * 1_000_003 + salt) & 0xFFFFFFFFFFFFFFFF)


#: Salt of the arrival-gap RNG, apart from the packet-content RNG so
#: pacing noise never perturbs generated frames.
ARRIVALS_SALT = 1

#: The ideal round trip after which a closed-loop preview hands each
#: frame back to its sender (the live run measures its RTT instead).
PREVIEW_RTT_NS = 20_000


@dataclass
class TrafficModel:
    """Everything a traffic generator needs beyond the legacy constant path.

    A replay stream always loops: when it runs dry before the run ends,
    the generator restarts it from the same seed (an empty stream stops
    the generator instead).

    Attributes
    ----------
    schedule:
        Time-varying offered load; ``None`` keeps the config's constant
        rate.
    arrivals:
        Arrival-process description; ``None`` keeps deterministic pacing.
    source_factory:
        Builds a packet source (``next_packet() -> Packet``) from the
        generator's :class:`~repro.traffic.pktgen.PktGenConfig`; ``None``
        keeps the legacy :class:`~repro.traffic.pktgen.PacketFactory`.
    stream_factory:
        Builds a timed replay stream from a seed.  When set, the
        generator plays the stream verbatim instead of pacing bursts.
    transport_factory:
        Builds a closed-loop transport engine
        (:class:`~repro.workloads.transport.ClosedLoopTransport`) from
        the generator's config and the node itself.  When set, the node
        does not pace from the schedule at all — the transport's ACK
        clock decides every transmission — so ``schedule``, ``arrivals``
        and ``stream_factory`` are ignored.
    rescale:
        Rebuilds this model at a different mean offered rate (Gbps).
        Rate-probing callers (:meth:`ScenarioConfig.with_rate`, the peak
        goodput search) use it so schedules and replay speedups follow
        the probed rate instead of staying frozen at the nominal one.
        Closed-loop models return themselves unchanged: their offered
        load is emergent, not configured.
    """

    schedule: Optional[TraceSchedule] = None
    arrivals: Optional[ArrivalModel] = None
    source_factory: Optional[Callable[[Any], Any]] = None
    stream_factory: Optional[StreamFactory] = None
    transport_factory: Optional[Callable[[Any, Any], Any]] = None
    rescale: Optional[Callable[[float], "TrafficModel"]] = None


class WorkloadSpec:
    """Base class for named workloads.

    Subclasses set ``name``/``description``/``kind`` and implement
    :meth:`traffic_model`, :meth:`workload` and :meth:`nominal_rate_gbps`.
    """

    name: str = ""
    description: str = ""
    kind: str = "generative"
    #: Packets per generation event; fine-grained workloads (incast)
    #: lower this so epoch structure survives burst aggregation.
    burst_size: int = 32

    def nominal_rate_gbps(self) -> float:
        """Default offered rate when a scenario does not override it."""
        raise NotImplementedError

    def workload(self) -> Workload:
        """The classic static workload view (sizes + a nominal flow population)."""
        raise NotImplementedError

    def traffic_model(self, rate_gbps: Optional[float] = None) -> TrafficModel:
        """The dynamic traffic bundle, rescaled to a mean of *rate_gbps*."""
        raise NotImplementedError

    def trace(
        self,
        seed: int,
        max_packets: int,
        rate_gbps: Optional[float] = None,
    ) -> List[TracedPacket]:
        """The first *max_packets* frames this workload's generator emits.

        Runs the workload's own :class:`~repro.netsim.trafficgen_node.TrafficGenNode`
        exactly as generator 0 of a ``workload`` scenario seeded *seed*
        builds it, with its one TX port wired to a capture instead of
        the switch.  ``rate_gbps`` rescales the mean offered rate (the
        CLI's ``--rate``); ``None`` keeps the nominal rate.  A
        closed-loop transport gets each frame back after
        :data:`PREVIEW_RTT_NS`, so its rows equal the run's until the
        testbed's first delivery.
        """
        from repro.netsim.eventloop import FastEventLoop
        from repro.netsim.trafficgen_node import TrafficGenNode
        from repro.traffic.pktgen import PktGenConfig
        from repro.workloads.stats import TraceCapture

        if max_packets <= 0:
            raise WorkloadSpecError("max_packets must be positive")
        rate = rate_gbps if rate_gbps is not None else self.nominal_rate_gbps()
        model = self.traffic_model(rate)
        node = TrafficGenNode(
            FastEventLoop(),
            PktGenConfig(rate, self.workload(), self.burst_size, seed, pooled=True),
            tx_ports=[0],
            traffic_model=model,
        )
        closed_loop = model.transport_factory is not None
        capture = TraceCapture(node, max_packets, PREVIEW_RTT_NS if closed_loop else None)
        node.attach_link(0, capture)
        # No horizon, however slow the rate: the capture stops the node.
        node.start(math.inf)
        node.env.run_all()
        return capture.rows

    def describe(self) -> Dict[str, str]:
        """Key → human-readable value pairs for ``repro workload describe``."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "nominal_rate_gbps": f"{self.nominal_rate_gbps():g}",
        }
