"""The ambient observation sink: where finished runs deliver their exports.

Mirrors the runner's ambient contexts (``run_options``,
``run_observer``): installing a sink is orthogonal to enabling
observability on a scenario, so the CLI can say "observe *and* give me
the exports" while a campaign worker collects summaries without the
runner knowing who is listening.  With no sink installed, finished
observations are simply discarded — enabling observability never
obligates a caller to consume it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional


class ObservationSink:
    """Collects :class:`~repro.obs.plane.RunObservation` objects."""

    def __init__(self) -> None:
        self.observations: List[Any] = []

    def add(self, observation: Any) -> None:
        self.observations.append(observation)


#: Active sink installed by :func:`observation_sink` (None = discard).
_SINK: Optional[ObservationSink] = None


def current_observation_sink() -> Optional[ObservationSink]:
    """The sink finished runs should deliver to (None when absent)."""
    return _SINK


@contextmanager
def observation_sink(
    sink: Optional[ObservationSink] = None,
) -> Iterator[ObservationSink]:
    """Install *sink* (or a fresh one) for the duration of the block."""
    global _SINK
    if sink is None:
        sink = ObservationSink()
    previous = _SINK
    _SINK = sink
    try:
        yield sink
    finally:
        _SINK = previous
