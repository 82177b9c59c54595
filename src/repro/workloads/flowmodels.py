"""Flow-population models: which 5-tuple each generated packet belongs to.

The legacy :class:`~repro.traffic.pktgen.PacketFactory` cycles a fixed
flow population round-robin.  The models here generalize that into a
pluggable policy; heavy-tailed mixes concentrate traffic on a few
elephant flows, while churn models synthesize a fresh 5-tuple for
(almost) every packet — the adversarial case for PayloadPark, whose
parking slots are keyed per packet and recycled as flows come and go.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadSpecError
from repro.packet.flows import FiveTuple, FlowGenerator, check_flow_count
from repro.packet.ipv4 import PROTO_UDP, IPv4Address


class FlowSampler:
    """Stateful per-generator flow chooser."""

    def next_flow(self) -> FiveTuple:
        """The 5-tuple of the next generated packet."""
        raise NotImplementedError


@dataclass(frozen=True)
class FlowModel:
    """Immutable flow-population description."""

    def sampler(self, rng: random.Random) -> FlowSampler:
        """Bind this model to *rng* and return a fresh sampler."""
        raise NotImplementedError

    def nominal_flow_count(self) -> int:
        """Population size reported by ``describe`` (approximate for churn)."""
        raise NotImplementedError

    def label(self) -> str:
        """Short name used in ``repro workload describe`` output."""
        return type(self).__name__


# ---------------------------------------------------------------------- #
# Round-robin over a fixed population (the legacy behavior)
# ---------------------------------------------------------------------- #


class _RoundRobinSampler(FlowSampler):
    def __init__(self, flows) -> None:
        self._flows = flows
        self._count = len(flows)
        self._cursor = 0

    def next_flow(self) -> FiveTuple:
        flow = self._flows[self._cursor]
        self._cursor = (self._cursor + 1) % self._count
        return flow


@dataclass(frozen=True)
class RoundRobinFlows(FlowModel):
    """Cycle a fixed deterministic population, one packet per flow per turn."""

    flow_count: int = 1024

    def __post_init__(self) -> None:
        check_flow_count(self.flow_count)

    def sampler(self, rng: random.Random) -> FlowSampler:
        return _RoundRobinSampler(FlowGenerator(flow_count=self.flow_count).flows())

    def nominal_flow_count(self) -> int:
        return self.flow_count

    def label(self) -> str:
        return f"round-robin({self.flow_count} flows)"


# ---------------------------------------------------------------------- #
# Elephant/mice heavy-tailed mixes
# ---------------------------------------------------------------------- #


class _HeavyTailSampler(FlowSampler):
    def __init__(self, model: "HeavyTailFlows", rng: random.Random) -> None:
        flows = FlowGenerator(flow_count=model.flow_count).flows()
        elephants = max(1, int(round(model.flow_count * model.elephant_fraction)))
        self._elephants = flows[:elephants]
        self._mice = flows[elephants:] or flows
        self._weight = model.elephant_weight
        self._rng = rng

    def next_flow(self) -> FiveTuple:
        if self._rng.random() < self._weight:
            return self._rng.choice(self._elephants)
        return self._rng.choice(self._mice)


@dataclass(frozen=True)
class HeavyTailFlows(FlowModel):
    """A few elephant flows carry most packets; the mice share the rest."""

    flow_count: int = 4096
    elephant_fraction: float = 0.05
    elephant_weight: float = 0.80

    def __post_init__(self) -> None:
        check_flow_count(self.flow_count)
        if not 0.0 < self.elephant_fraction < 1.0:
            raise WorkloadSpecError("elephant_fraction must lie in (0, 1)")
        if not 0.0 < self.elephant_weight < 1.0:
            raise WorkloadSpecError("elephant_weight must lie in (0, 1)")

    def sampler(self, rng: random.Random) -> FlowSampler:
        return _HeavyTailSampler(self, rng)

    def nominal_flow_count(self) -> int:
        return self.flow_count

    def label(self) -> str:
        return (
            f"heavy-tail({self.flow_count} flows, "
            f"{self.elephant_fraction:.0%} elephants carry {self.elephant_weight:.0%})"
        )


# ---------------------------------------------------------------------- #
# Flow churn (SYN-flood style)
# ---------------------------------------------------------------------- #


class _ChurnSampler(FlowSampler):
    def __init__(self, model: "ChurnFlows", rng: random.Random) -> None:
        self._model = model
        self._rng = rng
        self._index = 0
        self._emitted = model.packets_per_flow  # force a fresh flow first
        self._src_base = IPv4Address.from_string(model.src_subnet).value
        self._dst_base = IPv4Address.from_string(model.dst_subnet).value
        self._current: FiveTuple = None  # type: ignore[assignment]

    def _fresh_flow(self) -> FiveTuple:
        # A counter guarantees distinctness; the RNG scatters ports so the
        # sequence does not look like a linear scan to hash-based NFs.
        index = self._index
        self._index += 1
        src_ip = IPv4Address((self._src_base + index % 16_000_000 + 1) & 0xFFFFFFFF)
        dst_ip = IPv4Address((self._dst_base + index % 250 + 1) & 0xFFFFFFFF)
        return FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=PROTO_UDP,
            src_port=1024 + self._rng.randrange(60_000),
            dst_port=80,
        )

    def next_flow(self) -> FiveTuple:
        if self._emitted >= self._model.packets_per_flow:
            self._current = self._fresh_flow()
            self._emitted = 0
        self._emitted += 1
        return self._current


@dataclass(frozen=True)
class ChurnFlows(FlowModel):
    """Every packet (or tiny flowlet) is a brand-new flow.

    This is the SYN-flood-shaped workload that maximizes parking-slot
    turnover: no 5-tuple ever repeats within the source subnet's period,
    so caches and flow tables never get a hit.
    """

    packets_per_flow: int = 1
    src_subnet: str = "10.9.0.0"
    dst_subnet: str = "10.2.0.0"

    def __post_init__(self) -> None:
        if self.packets_per_flow < 1:
            raise WorkloadSpecError("packets_per_flow must be >= 1")

    def sampler(self, rng: random.Random) -> FlowSampler:
        return _ChurnSampler(self, rng)

    def nominal_flow_count(self) -> int:
        return 16_000_000

    def label(self) -> str:
        return f"churn({self.packets_per_flow} pkt/flow)"
