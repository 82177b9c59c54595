"""Packet-size distributions.

Fig. 6 of the paper shows the CDF of the packet sizes used to simulate
an enterprise datacenter traffic pattern, reproduced from Benson et
al.'s IMC'10 measurement study: a bimodal distribution with an average
packet size of 882 bytes in which roughly 30 % of packets carry fewer
than 160 payload bytes (and therefore are not split by PayloadPark).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import WorkloadSpecError
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES

#: Smallest Ethernet frame we generate (headers only would be 42 bytes,
#: but the classic minimum frame size is 64).
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1514


class PacketSizeDistribution:
    """Base class: sample frame sizes (Ethernet through payload, in bytes)."""

    def sample(self, rng: random.Random) -> int:
        """Draw one frame size."""
        raise NotImplementedError

    def mean(self) -> float:
        """Expected frame size (used for rate → pps conversions and reports)."""
        raise NotImplementedError

    def cdf_points(self) -> List[Tuple[int, float]]:
        """Return ``(size, cumulative probability)`` pairs for plotting (Fig. 6)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSizeDistribution(PacketSizeDistribution):
    """Every frame has the same size (the fixed-size experiments of §6.2.2)."""

    size: int

    def __post_init__(self) -> None:
        if not MIN_FRAME_BYTES <= self.size <= MAX_FRAME_BYTES:
            raise WorkloadSpecError(
                f"frame size must be within [{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}], "
                f"got {self.size}"
            )

    def sample(self, rng: random.Random) -> int:
        return self.size

    def mean(self) -> float:
        return float(self.size)


class EmpiricalDistribution(PacketSizeDistribution):
    """A discrete mixture described by ``(size, probability)`` pairs."""

    def __init__(self, points: Sequence[Tuple[int, float]]) -> None:
        if not points:
            raise WorkloadSpecError("an empirical distribution needs at least one point")
        for _size, weight in points:
            if weight < 0:
                raise WorkloadSpecError("probabilities cannot be negative")
            if not math.isfinite(weight):
                raise WorkloadSpecError(f"probability {weight!r} is not finite")
        total = sum(weight for _size, weight in points)
        if total <= 0:
            raise WorkloadSpecError("probabilities must sum to a positive value")
        self._sizes: List[int] = []
        self._cumulative: List[float] = []
        running = 0.0
        for size, weight in sorted(points):
            if not MIN_FRAME_BYTES <= size <= MAX_FRAME_BYTES:
                raise WorkloadSpecError(f"size {size} outside [{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}]")
            if self._sizes and size == self._sizes[-1]:
                raise WorkloadSpecError(f"duplicate size {size}; merge its probability mass first")
            running += weight / total
            self._sizes.append(size)
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        position = rng.random()
        index = bisect.bisect_left(self._cumulative, position)
        index = min(index, len(self._sizes) - 1)
        return self._sizes[index]

    def mean(self) -> float:
        previous = 0.0
        expectation = 0.0
        for size, cumulative in zip(self._sizes, self._cumulative):
            expectation += size * (cumulative - previous)
            previous = cumulative
        return expectation

    def cdf_points(self) -> List[Tuple[int, float]]:
        return list(zip(self._sizes, self._cumulative))


def _clamped_numeric_mean(cdf: Callable[[float], float]) -> float:
    """Mean of a size law clamped to the legal frame range.

    Uses the tail-sum identity ``E[X] = min + Σ P(X > s)`` over the
    integer frame sizes, which is exact for the integer-truncated samples
    the ``sample`` implementations return (up to truncation rounding).
    """
    return MIN_FRAME_BYTES + sum(
        1.0 - cdf(size) for size in range(MIN_FRAME_BYTES, MAX_FRAME_BYTES)
    )


def _analytic_cdf_points(cdf: Callable[[float], float]) -> List[Tuple[int, float]]:
    """A plotting-density grid of ``(size, cumulative)`` pairs."""
    sizes = list(range(MIN_FRAME_BYTES, MAX_FRAME_BYTES, 50)) + [MAX_FRAME_BYTES]
    return [(size, cdf(size) if size < MAX_FRAME_BYTES else 1.0) for size in sizes]


class ParetoSizeDistribution(PacketSizeDistribution):
    """Heavy-tailed (Pareto) frame sizes, clamped to the legal frame range.

    Most frames are small; a power-law tail reaches the MTU, mimicking
    mice-dominated datacenter traffic with elephant transfers.
    """

    def __init__(self, shape: float = 1.3, scale: float = 120.0) -> None:
        if shape <= 0:
            raise WorkloadSpecError("shape must be positive")
        if scale <= 0:
            raise WorkloadSpecError("scale must be positive")
        self.shape = shape
        self.scale = scale
        self._mean: float = None  # type: ignore[assignment]

    def _cdf(self, size: float) -> float:
        if size <= self.scale:
            return 0.0
        return 1.0 - (self.scale / size) ** self.shape

    def sample(self, rng: random.Random) -> int:
        size = int(rng.paretovariate(self.shape) * self.scale)
        return min(max(size, MIN_FRAME_BYTES), MAX_FRAME_BYTES)

    def mean(self) -> float:
        if self._mean is None:
            self._mean = _clamped_numeric_mean(self._cdf)
        return self._mean

    def cdf_points(self) -> List[Tuple[int, float]]:
        return _analytic_cdf_points(self._cdf)


def enterprise_datacenter_distribution() -> EmpiricalDistribution:
    """The Benson-style enterprise datacenter packet-size mix (Fig. 6).

    The mixture is bimodal: a cluster of small control-sized frames
    (64–200 bytes, ≈ 30 % of packets — these have payloads under 160
    bytes and are not split), a thin band of mid-sized frames, and a
    heavy cluster of near-MTU frames.  The mean is ≈ 882 bytes, matching
    the paper's reported average.
    """
    points: List[Tuple[int, float]] = []
    # Small frames: 30 % of packets spread over 64..198 bytes.
    small_sizes = [64, 90, 120, 150, 180, 198]
    for size in small_sizes:
        points.append((size, 0.30 / len(small_sizes)))
    # Mid-sized frames: 17 % spread over 250..1000 bytes.
    mid_sizes = [250, 400, 550, 700, 850, 1000]
    for size in mid_sizes:
        points.append((size, 0.17 / len(mid_sizes)))
    # Large frames: 53 % concentrated near the MTU.
    large_sizes = [(1340, 0.23), (1400, 0.20), (1500, 0.10)]
    for size, weight in large_sizes:
        points.append((size, weight))
    return EmpiricalDistribution(points)


def split_eligible_fraction(distribution: PacketSizeDistribution,
                            min_split_payload: int = 160) -> float:
    """Fraction of frames whose payload is large enough to be split."""
    threshold = ETHERNET_UDP_HEADER_BYTES + min_split_payload
    points = distribution.cdf_points()
    previous = 0.0
    eligible = 0.0
    for size, cumulative in points:
        weight = cumulative - previous
        if size >= threshold:
            eligible += weight
        previous = cumulative
    return eligible
