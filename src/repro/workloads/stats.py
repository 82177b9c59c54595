"""Trace capture and summary statistics for workloads.

``repro workload preview`` characterizes a workload by running its
traffic generator alone: :class:`TraceCapture` sits on the generator's
TX port and records the first N frames as :class:`TracedPacket` rows
(timestamp, size and 5-tuple), and :func:`summarize` condenses such a
trace into the headline numbers — mean offered rate, burstiness,
small-packet fraction — that predict how hard the workload will push
PayloadPark's parking slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import WorkloadSpecError
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES

#: Frames whose payload is below the paper's 160-byte minimum split
#: payload are never parked; their fraction is the key small-packet metric.
SMALL_FRAME_THRESHOLD_BYTES = ETHERNET_UDP_HEADER_BYTES + 160


@dataclass(frozen=True)
class TracedPacket:
    """One packet of a materialized workload trace."""

    time_ns: int
    size_bytes: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int

    @classmethod
    def of(cls, time_ns: int, packet) -> "TracedPacket":
        """The row of *packet* sent at *time_ns* (zeros for a non-UDP/IP frame)."""
        ip, l4 = packet.ip, packet.l4
        if ip is None or l4 is None:
            return cls(time_ns, packet.wire_length, "0.0.0.0", "0.0.0.0", 0, 0)
        return cls(
            time_ns, packet.wire_length, str(ip.src), str(ip.dst), l4.src_port, l4.dst_port
        )

    def flow_key(self) -> tuple:
        """Hashable flow identity for distinct-flow counting."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port)

    def as_tuple(self) -> tuple:
        """Canonical comparable form (used by determinism tests)."""
        return (
            self.time_ns,
            self.size_bytes,
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
        )


class TraceCapture:
    """A link-shaped sink on a preview generator's TX port.

    Records each frame *node* sends and stops the node at
    *max_packets*.  With *hand_back_ns* set it returns every frame to
    the node that much later, a closed-loop transport's ideal
    acknowledgment.
    """

    def __init__(self, node, max_packets: int, hand_back_ns: Optional[int]) -> None:
        self.node = node
        self.max_packets = max_packets
        self.hand_back_ns = hand_back_ns
        self.rows: List[TracedPacket] = []

    def transmit(self, packet, sender) -> None:
        rows = self.rows
        if len(rows) == self.max_packets:
            return  # the rest of the burst that reached the limit
        rows.append(TracedPacket.of(self.node.env.now, packet))
        if len(rows) == self.max_packets:
            self.node.stop()
        elif self.hand_back_ns is not None:
            self.node.env.schedule_in(self.hand_back_ns, self._deliver, packet)

    def _deliver(self, packet) -> None:
        self.node.handle_packet(packet, 0)


@dataclass(frozen=True)
class WorkloadSummary:
    """Headline statistics of one workload trace."""

    packets: int
    duration_us: float
    mean_rate_gbps: float
    mean_frame_bytes: float
    small_packet_fraction: float
    distinct_flows: int
    burstiness_cv: float
    peak_to_mean: float

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for table rendering / JSON output."""
        return {
            "packets": self.packets,
            "duration_us": round(self.duration_us, 2),
            "mean_rate_gbps": round(self.mean_rate_gbps, 3),
            "mean_frame_bytes": round(self.mean_frame_bytes, 1),
            "small_packet_fraction": round(self.small_packet_fraction, 3),
            "distinct_flows": self.distinct_flows,
            "burstiness_cv": round(self.burstiness_cv, 3),
            "peak_to_mean": round(self.peak_to_mean, 3),
        }


def summarize(trace: Sequence[TracedPacket], buckets: int = 50) -> WorkloadSummary:
    """Condense *trace* into a :class:`WorkloadSummary`.

    Burstiness is reported two ways: the coefficient of variation of the
    inter-frame gaps, and the peak-to-mean ratio of the rate across
    *buckets* equal time bins (sensitive to ramps and incast).  A
    generator paces bursts, and the frames of one burst leave at the
    same nanosecond, so the CV is of the frame gaps, not the burst gaps:
    uniform pacing of *b*-frame bursts reads √(b − 1) (≈ 5.6 at the
    default 32), and Poisson or on/off burst gaps read more.
    """
    if not trace:
        raise WorkloadSpecError("cannot summarize an empty trace")
    total_bytes = sum(packet.size_bytes for packet in trace)
    duration_ns = max(trace[-1].time_ns - trace[0].time_ns, 1)
    gaps = [
        later.time_ns - earlier.time_ns
        for earlier, later in zip(trace, trace[1:])
    ]
    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
    if mean_gap > 0:
        # Squares of gap / mean_gap, not of raw gaps: at a tiny rate the
        # gaps are ~1e300 ns and their squares would overflow.
        cv = math.sqrt(sum((gap / mean_gap - 1.0) ** 2 for gap in gaps) / len(gaps))
    else:
        cv = 0.0

    bucket_bytes = [0] * buckets
    for packet in trace:
        index = min(
            (packet.time_ns - trace[0].time_ns) * buckets // duration_ns,
            buckets - 1,
        )
        bucket_bytes[index] += packet.size_bytes
    mean_bucket = total_bytes / buckets
    peak_to_mean = max(bucket_bytes) / mean_bucket if mean_bucket > 0 else 0.0

    small = sum(1 for packet in trace if packet.size_bytes < SMALL_FRAME_THRESHOLD_BYTES)
    return WorkloadSummary(
        packets=len(trace),
        duration_us=duration_ns / 1_000.0,
        mean_rate_gbps=total_bytes * 8.0 / duration_ns,
        mean_frame_bytes=total_bytes / len(trace),
        small_packet_fraction=small / len(trace),
        distinct_flows=len({packet.flow_key() for packet in trace}),
        burstiness_cv=cv,
        peak_to_mean=peak_to_mean,
    )
