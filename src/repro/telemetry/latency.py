"""End-to-end latency recording."""

from __future__ import annotations

import math
from typing import List


class LatencyRecorder:
    """Collects per-packet latencies (in nanoseconds) and summarizes them."""

    def __init__(self) -> None:
        self._samples_ns: List[int] = []

    def record(self, latency_ns: int) -> None:
        """Add one sample."""
        if latency_ns < 0:
            raise ValueError("latency cannot be negative")
        self._samples_ns.append(latency_ns)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples_ns)

    def mean_us(self) -> float:
        """Average latency in microseconds (0 when empty)."""
        if not self._samples_ns:
            return 0.0
        return sum(self._samples_ns) / len(self._samples_ns) / 1_000.0

    def max_us(self) -> float:
        """Worst-case latency in microseconds (0 when empty)."""
        if not self._samples_ns:
            return 0.0
        return max(self._samples_ns) / 1_000.0

    def percentile_us(self, percentile: float) -> float:
        """Latency percentile in microseconds (nearest-rank method)."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self._samples_ns:
            return 0.0
        ordered = sorted(self._samples_ns)
        rank = math.ceil(percentile / 100.0 * len(ordered))
        return ordered[max(rank - 1, 0)] / 1_000.0

    def jitter_us(self) -> float:
        """Difference between peak and average latency (the paper's jitter metric)."""
        if not self._samples_ns:
            return 0.0
        return self.max_us() - self.mean_us()

    def since(self, sample_index: int) -> "LatencyRecorder":
        """A recorder view containing only samples recorded after *sample_index*.

        Used to exclude the warm-up window from reported statistics.
        """
        view = LatencyRecorder()
        view._samples_ns = self._samples_ns[sample_index:]
        return view
