"""PCAP replay: feed real captures through the simulator.

The paper replays a PCAP reproducing the Benson et al. enterprise
distribution; :class:`PcapReplayWorkload` generalizes that into a
first-class workload.  It ingests a capture via
:mod:`repro.packet.pcap`, re-times the frames onto the event loop's
nanosecond clock (optionally sped up or slowed down so campaign sweeps
over ``send_rate_gbps`` rescale the replay), and loops the capture until
the run ends.  Because replay streams carry raw frame bytes, the traffic
generator rebuilds a fresh :class:`~repro.packet.packet.Packet` per
transmission — loop iterations never share mutable packet state.

Without an external capture on disk, :func:`synthetic_enterprise_capture`
builds a small deterministic in-memory capture so the registered
``pcap-replay`` workload runs end-to-end with zero setup.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.errors import WorkloadSpecError
from repro.packet.flows import FlowGenerator
from repro.packet.pcap import PcapRecord, read_pcap
from repro.traffic.workload import Workload
from repro.workloads.base import TimedFrame, TrafficModel, WorkloadSpec


def synthetic_enterprise_capture(
    packet_count: int = 512,
    seed: int = 20,
    rate_gbps: float = 8.0,
    flow_count: int = 128,
) -> List[PcapRecord]:
    """A deterministic in-memory capture with the enterprise size mix."""
    return Workload.enterprise(flow_count=flow_count).capture(packet_count, seed, rate_gbps)


class PcapReplayWorkload(WorkloadSpec):
    """Replay a capture's frames with their original (re-timed) spacing."""

    kind = "pcap-replay"

    def __init__(
        self,
        records: List[PcapRecord],
        name: str = "pcap-replay",
        description: str = "",
        speedup: float = 1.0,
    ) -> None:
        if not records:
            raise WorkloadSpecError("a replay workload needs at least one captured frame")
        if speedup <= 0:
            raise WorkloadSpecError("speedup must be positive")
        self.records = records
        self.name = name
        self.description = description or f"replay of {len(records)} captured frames"
        self.speedup = speedup
        self._offsets_ns = self._compute_offsets(records)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_file(
        cls,
        path: Union[str, Path],
        name: Optional[str] = None,
        speedup: float = 1.0,
    ) -> "PcapReplayWorkload":
        """Load a capture from disk (classic pcap, either byte order)."""
        records = read_pcap(path)
        if not records:
            raise WorkloadSpecError(f"PCAP {path} contains no packets")
        return cls(
            records,
            name=name or f"pcap:{Path(path).name}",
            description=f"replay of {Path(path).name} ({len(records)} frames)",
            speedup=speedup,
        )

    @classmethod
    def synthetic(
        cls,
        packet_count: int = 512,
        seed: int = 20,
        rate_gbps: float = 8.0,
    ) -> "PcapReplayWorkload":
        """The built-in zero-setup capture (enterprise mix, deterministic)."""
        return cls(
            synthetic_enterprise_capture(packet_count, seed=seed, rate_gbps=rate_gbps),
            name="pcap-replay",
            description=(
                f"synthetic enterprise capture ({packet_count} frames) replayed "
                "with original spacing"
            ),
        )

    @staticmethod
    def _compute_offsets(records: List[PcapRecord]) -> List[int]:
        """Per-record offsets (ns) from the first frame, forced monotonic."""
        base = records[0].timestamp
        offsets = []
        previous = 0
        for record in records:
            offset = int(round((record.timestamp - base) * 1e9))
            offset = max(offset, previous)
            offsets.append(offset)
            previous = offset
        return offsets

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def total_bytes(self) -> int:
        """Sum of captured frame lengths."""
        return sum(len(record.data) for record in self.records)

    def native_rate_gbps(self) -> float:
        """Mean rate of the capture as recorded (before any speedup).

        Captures whose timestamps do not advance (all-zero or truncated
        clocks) fall back to back-to-back transmission at 10 Gbps.
        """
        duration_ns = self._offsets_ns[-1]
        if duration_ns <= 0:
            return 10.0
        return self.total_bytes() * 8.0 / duration_ns

    def nominal_rate_gbps(self) -> float:
        return self.native_rate_gbps() * self.speedup

    def mean_frame_bytes(self) -> float:
        """Average captured frame length."""
        return self.total_bytes() / len(self.records)

    def workload(self) -> Workload:
        """Static size-distribution view (what :meth:`Workload.from_pcap` builds)."""
        counts = {}
        for record in self.records:
            size = min(max(len(record.data), 64), 1514)
            counts[size] = counts.get(size, 0) + 1
        total = sum(counts.values())
        from repro.traffic.distributions import EmpiricalDistribution

        return Workload(
            name=self.name,
            sizes=EmpiricalDistribution(
                [(size, count / total) for size, count in sorted(counts.items())]
            ),
            flows=FlowGenerator(flow_count=min(len(self.records), 4096)),
        )

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #

    def _stream(self, speedup: float) -> Iterator[TimedFrame]:
        for offset, record in zip(self._offsets_ns, self.records):
            yield int(offset / speedup), record.data

    def traffic_model(self, rate_gbps: Optional[float] = None) -> TrafficModel:
        speedup = self.speedup
        if rate_gbps is not None:
            speedup = rate_gbps / self.native_rate_gbps()

        def stream_factory(seed: int) -> Iterator[TimedFrame]:
            return self._stream(speedup)

        return TrafficModel(
            stream_factory=stream_factory,
            rescale=self.traffic_model,
        )

    def describe(self) -> dict:
        info = super().describe()
        info["frames"] = str(len(self.records))
        info["mean_frame_bytes"] = f"{self.mean_frame_bytes():.1f}"
        info["native_rate_gbps"] = f"{self.native_rate_gbps():.3f}"
        info["speedup"] = f"{self.speedup:g}"
        return info
