"""Discrete-event simulation loops: the reference heap and the fast calendar.

Time is an integer number of nanoseconds.  Events are callbacks ordered
by (time, scheduling order); ties preserve scheduling order so the
simulation is fully deterministic for a given seed.

An event is a ``(callback, arg)`` record: ``schedule_at(when, callback,
arg)`` runs ``callback(arg)``, and leaving *arg* out runs ``callback()``
(``None`` is an ordinary argument).  The per-frame hops — link
arrival, switch egress, NF completion, and a link's serialization end
when it is an event at all — therefore schedule a method bound once at
wiring time plus the packet, not a closure per frame.

A link's serialization end only releases egress-buffer bytes, which
nothing but the next transmit on that link direction reads.  When the
calendar has no event pending at a frame's future ``tx_done``, that
event would be the first of its nanosecond, ahead of every event
scheduled there later, so :class:`~repro.netsim.link.Link` drains it
lazily on the next transmit instead of scheduling it.
The calendar's map (:func:`calendar_of`) answers the question; on the
reference loop the link keeps every such event.  On the perf ledger's
``fig07_sat`` workload that removes a third of all events.

Two interchangeable implementations are provided:

* :class:`EventLoop` — the reference implementation: one ``heapq``
  push/pop per event, exactly as the seed simulator behaved.  This is
  the loop the golden-figure regression suite treats as ground truth.
* :class:`FastEventLoop` — the fast path: a calendar that keeps every
  event scheduled for the same nanosecond in one FIFO list of
  ``(callback, arg)`` pairs, keyed by the nanosecond in a map, so the
  heap only orders *distinct timestamps*.  Most events share their
  nanosecond with another (on the perf ledger's ``multi8_macswap``
  nine in ten scheduling calls land in a nanosecond that already holds
  an event), and those cost one list append instead of a heap push and
  pop each.

The calendar keeps no per-event bookkeeping.  To run a nanosecond it
pops that nanosecond's list off the map and drains it with one ``for``;
an event scheduled for the current nanosecond meanwhile starts a fresh
bucket that the heap serves next.  :attr:`FastEventLoop.pending_events`
is counted from the map when asked — the validation drain is its one
reader on the run path — and does not see the draining bucket
mid-drain.  The per-frame hop sites skip ``schedule_at`` altogether and
insert into the map and heap that :func:`calendar_of` hands them.

Both loops execute identical event sequences for identical scheduling
calls (the property suite in ``tests/property`` asserts this).  The
experiment runner uses the calendar loop; the heap loop runs only under
``run_options(reference=True)``, where the golden suite and the
``fast_slow`` relation diff the two engines.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

Callback = Callable[..., None]

#: Default *arg* of an event scheduled without one: dispatch calls
#: ``callback()``.  Any other value, ``None`` included, is passed through.
_NO_ARG: Any = object()


def _check_horizon(horizon_ns: int) -> None:
    """Refuse a non-finite ``run_until`` horizon."""
    if not -math.inf < horizon_ns < math.inf:
        raise ValueError(f"horizon must be finite, got {horizon_ns}")


class EventLoop:
    """Priority-queue based discrete-event scheduler (reference path)."""

    __slots__ = ("_queue", "_sequence", "now", "events_executed", "monitor")

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callback, Any]] = []
        self._sequence = itertools.count()
        self.now: int = 0
        self.events_executed = 0
        #: Optional per-event observer ``monitor(when_ns)`` invoked as each
        #: event's timestamp becomes current.  Installed by the validation
        #: subsystem to assert event-time monotonicity; ``None`` (the
        #: default) keeps the dispatch loops branch-cheap.
        self.monitor: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(self, when_ns: int, callback: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule ``callback(arg)`` — ``callback()`` when *arg* is left
        out — to run at absolute time *when_ns*."""
        if not when_ns >= self.now:  # written so that NaN fails too
            raise ValueError(
                f"cannot schedule an event in the past or at NaN "
                f"({when_ns}, now={self.now})"
            )
        heapq.heappush(self._queue, (when_ns, next(self._sequence), callback, arg))

    def schedule_in(self, delay_ns: int, callback: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule *callback* to run *delay_ns* nanoseconds from now."""
        if not delay_ns >= 0:  # written so that NaN fails too
            raise ValueError(f"delay must be non-negative, got {delay_ns}")
        self.schedule_at(self.now + delay_ns, callback, arg)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_until(self, horizon_ns: int) -> None:
        """Execute events in order until the queue is empty or the next
        event lies *beyond* ``horizon_ns``.

        The horizon is inclusive: events scheduled exactly at
        ``horizon_ns`` execute (and ``monitor`` fires for each executed
        callback).  ``FastEventLoop.run_until`` honours the identical
        contract — `tests/unit/test_eventloop_edges.py` pins the two
        loops to the same executed-event and monitor-fire counts at the
        boundary.  ``now`` never moves backwards: a horizon earlier than
        the current time executes nothing and leaves ``now`` unchanged.
        A non-finite horizon is a :class:`ValueError`: NaN would compare
        false against every event time and run the whole calendar.
        """
        _check_horizon(horizon_ns)
        monitor = self.monitor
        while self._queue:
            when_ns, _seq, callback, arg = self._queue[0]
            if when_ns > horizon_ns:
                break
            heapq.heappop(self._queue)
            self.now = when_ns
            if monitor is not None:
                monitor(when_ns)
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            self.events_executed += 1
        # Leave ``now`` at the horizon so rate calculations use the full
        # window; clamp so an earlier horizon cannot rewind time.
        if self.now < horizon_ns:
            self.now = horizon_ns

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Drain the queue completely (or up to *max_events* events)."""
        executed = 0
        monitor = self.monitor
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            when_ns, _seq, callback, arg = heapq.heappop(self._queue)
            self.now = when_ns
            if monitor is not None:
                monitor(when_ns)
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            self.events_executed += 1
            executed += 1

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)


class FastEventLoop(EventLoop):
    """Calendar-bucket scheduler: heap of distinct times, FIFO buckets.

    Events scheduled for the same nanosecond share one list of
    ``(callback, arg)`` pairs, kept in a map keyed by the nanosecond;
    the heap orders only the distinct timestamps.  Appending to a bucket
    is O(1) and preserves scheduling order, which reproduces the
    reference loop's ``(time, sequence)`` tie-breaking.

    :meth:`run_until` pops the earliest bucket *off* the map and drains
    it with one ``for`` over its pairs — no drain cursor and nothing
    written per event.  A callback that schedules for the current
    nanosecond finds no bucket there, so it starts a fresh one and
    pushes the time again; the heap serves that bucket right after the
    one draining, which is where the reference loop's larger sequence
    numbers put those events.  If a callback raises, or
    ``run_all(max_events)`` stops mid-bucket, the undrained tail goes
    back on the map *ahead* of any such same-time successors, so the
    next run resumes exactly where this one stopped.

    Mid-drain, the draining bucket is off the map: the map lacks the
    current nanosecond unless a callback scheduled into it again, and
    :attr:`pending_events` does not count the draining bucket's tail.
    Both are exact between runs.
    """

    __slots__ = ("_buckets", "_times")

    def __init__(self) -> None:
        self.now = 0
        self.events_executed = 0
        self.monitor = None
        #: timestamp -> FIFO list of that timestamp's ``(callback, arg)``.
        self._buckets: Dict[int, List[Tuple[Callback, Any]]] = {}
        #: heap of distinct timestamps present in ``_buckets``.
        self._times: List[int] = []

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(self, when_ns: int, callback: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule the event at *when_ns* (same semantics as the reference)."""
        if not when_ns >= self.now:  # written so that NaN fails too
            raise ValueError(
                f"cannot schedule an event in the past or at NaN "
                f"({when_ns}, now={self.now})"
            )
        bucket = self._buckets.get(when_ns)
        if bucket is None:
            self._buckets[when_ns] = [(callback, arg)]
            heapq.heappush(self._times, when_ns)
        else:
            bucket.append((callback, arg))

    def _requeue(self, when_ns: int, tail: list) -> None:
        """Put a stopped bucket's undrained *tail* back at *when_ns*,
        ahead of any events scheduled there while it drained."""
        if not tail:
            return
        successors = self._buckets.get(when_ns)
        if successors is None:
            self._buckets[when_ns] = tail
            heapq.heappush(self._times, when_ns)
        else:
            successors[:0] = tail

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_until(self, horizon_ns: int) -> None:
        """Execute events in order until the next event lies *beyond*
        ``horizon_ns``.

        Same inclusive-horizon contract as :meth:`EventLoop.run_until`:
        events scheduled exactly at ``horizon_ns`` execute, ``monitor``
        fires once per executed callback, and ``now`` is left clamped to
        the horizon afterwards.  A raising callback is consumed but not
        counted, as on the reference loop; the rest of its bucket is
        requeued.
        """
        _check_horizon(horizon_ns)
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        monitor = self.monitor
        no_arg = _NO_ARG
        executed = 0
        try:
            while times and times[0] <= horizon_ns:
                when_ns = pop(times)
                bucket = buckets.pop(when_ns)
                self.now = when_ns
                events = iter(bucket)
                try:
                    for callback, arg in events:
                        if monitor is not None:
                            monitor(when_ns)
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                except BaseException:
                    tail = list(events)
                    executed += len(bucket) - len(tail) - 1
                    self._requeue(when_ns, tail)
                    raise
                executed += len(bucket)
        finally:
            self.events_executed += executed
        if self.now < horizon_ns:
            self.now = horizon_ns

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Drain the calendar completely (or up to *max_events* events)."""
        times = self._times
        buckets = self._buckets
        monitor = self.monitor
        remaining = math.inf if max_events is None else max_events
        executed = 0
        try:
            while times and remaining > 0:
                when_ns = heapq.heappop(times)
                events = iter(buckets.pop(when_ns))
                self.now = when_ns
                try:
                    for callback, arg in events:
                        if monitor is not None:
                            monitor(when_ns)
                        if arg is _NO_ARG:
                            callback()
                        else:
                            callback(arg)
                        executed += 1
                        remaining -= 1
                        if remaining <= 0:
                            break
                finally:
                    self._requeue(when_ns, list(events))
        finally:
            self.events_executed += executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued, counted from the buckets when
        asked (no per-event counter is kept).  Exact between runs; a
        callback asking during a drain does not see the rest of its own
        nanosecond's bucket."""
        return sum(map(len, self._buckets.values()))


def calendar_of(env: EventLoop) -> Tuple[Optional[Dict[int, list]], Optional[List[int]]]:
    """The ``(map, heap)`` of *env*'s calendar, or ``(None, None)`` when
    *env* is not a :class:`FastEventLoop`.

    The per-frame hop sites (link arrival, switch egress, NF completion
    and NIC-tx) insert their ``(callback, arg)`` pair straight into the
    calendar — ``map.get(when)``, then an append or a new bucket plus a
    heap push — instead of calling :meth:`FastEventLoop.schedule_at`.
    Their times are never in the past by construction.  On any other
    loop they call ``schedule_at``.
    """
    if isinstance(env, FastEventLoop):
        return env._buckets, env._times
    return None, None
