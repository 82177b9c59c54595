"""Common workload abstractions shared by generative models and replay.

A *workload* is anything that can (a) materialize its first N packets as
a deterministic trace for previews and determinism tests, and (b) hand
the simulator a :class:`TrafficModel` — the bundle of schedule, arrival
process, packet source and/or timed replay stream the traffic generator
node consumes.  The two concrete families are
:class:`~repro.workloads.generative.GenerativeWorkload` and
:class:`~repro.workloads.replay.PcapReplayWorkload`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

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
#: pacing noise never perturbs generated frames.  The generator's live
#: pacing and the workload preview trace both draw from it, which is
#: what makes the preview equal the run.
ARRIVALS_SALT = 1


@dataclass
class TrafficModel:
    """Everything a traffic generator needs beyond the legacy constant path.

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
    loop_stream:
        Restart the replay stream when it runs dry (until the run ends).
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
    loop_stream: bool = True
    transport_factory: Optional[Callable[[Any, Any], Any]] = None
    rescale: Optional[Callable[[float], "TrafficModel"]] = None


class WorkloadSpec:
    """Base class for named workloads.

    Subclasses set ``name``/``description``/``kind`` and implement
    :meth:`trace`, :meth:`traffic_model`, :meth:`workload` and
    :meth:`nominal_rate_gbps`.
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
        """Materialize the first *max_packets* packets deterministically.

        ``rate_gbps`` rescales the workload's mean offered rate for this
        trace (the CLI's ``--rate`` flag); ``None`` keeps the nominal rate.
        """
        raise NotImplementedError

    def summary(self, seed: int = 42, max_packets: int = 2000) -> WorkloadSummary:
        """Summary statistics of the first *max_packets* packets."""
        from repro.workloads.stats import summarize

        return summarize(self.trace(seed, max_packets))

    def describe(self) -> Dict[str, str]:
        """Key → human-readable value pairs for ``repro workload describe``."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "nominal_rate_gbps": f"{self.nominal_rate_gbps():g}",
        }
