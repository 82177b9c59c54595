"""A stopwatch that knows how fast the host was while it ran.

The container this ledger was built on shares its cores: a fixed
interpreter loop takes either ~8.2 ms or ~10.5 ms there, the host holds
either state for 1-30 s (sometimes minutes), and the simulator slows
down with it.  No statistic over the rounds of a 20 s pass is steady
against that — best round, median and quartiles each spread 15-20 %
between passes in one host regime or another (README.md has the
traces).  What is steady is the ratio of a round to the same loop run
just before and just after it.  So every timed region here is
bracketed by two spins of that loop, and its *corrected* time is the
wall time scaled to the speed of the reference host in its fast state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: What :func:`spin` takes on the reference container in its fast state.
REFERENCE_SPIN_S = 0.0082


def spin() -> float:
    """Seconds this host needs for a fixed piece of interpreter work."""
    started = time.perf_counter()
    total = 0
    for index in range(200_000):
        total += index * index % 7
    return time.perf_counter() - started


class Stopwatch:
    """Result of one :func:`stopwatch` block."""

    wall_s = 0.0
    #: Reference spin ÷ the mean of the two bracketing spins: 1.0 is the
    #: reference host's fast state, ~0.78 its slow one.
    host_speed = 1.0

    @property
    def corrected_s(self) -> float:
        """Wall seconds the block would have taken at host speed 1.0."""
        return self.wall_s * self.host_speed


@contextmanager
def stopwatch() -> Iterator[Stopwatch]:
    """Time the body, and the host on either side of it."""
    watch = Stopwatch()
    before = spin()
    started = time.perf_counter()
    yield watch
    watch.wall_s = time.perf_counter() - started
    watch.host_speed = REFERENCE_SPIN_S / ((before + spin()) / 2)
