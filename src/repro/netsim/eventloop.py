"""Discrete-event simulation loops: the reference heap and the fast calendar.

Time is an integer number of nanoseconds.  Events are callbacks ordered
by (time, scheduling order); ties preserve scheduling order so the
simulation is fully deterministic for a given seed.

An event is a ``(callback, arg)`` record: ``schedule_at(when, callback,
arg)`` runs ``callback(arg)``, and leaving *arg* out runs ``callback()``
(``None`` is an ordinary argument).  The per-frame hops — link
serialization end and arrival, switch egress, NF completion — therefore
schedule a method bound once at wiring time plus the packet, not a
closure per frame.

Two interchangeable implementations are provided:

* :class:`EventLoop` — the reference implementation: one ``heapq``
  push/pop per event, exactly as the seed simulator behaved.  This is
  the loop the golden-figure regression suite treats as ground truth.
* :class:`FastEventLoop` — the fast path: a timer-wheel-style calendar
  that buckets every event scheduled for the same nanosecond into one
  FIFO list, so the heap only orders *distinct timestamps*.  Paced
  traffic generators and burst transmissions produce long runs of
  same-time events, which the calendar executes with one list append
  and one cursor advance instead of a heap push and pop each.

Both loops execute identical event sequences for identical scheduling
calls (the property suite in ``tests/property`` asserts this).  The
experiment runner uses the calendar loop; the heap loop runs only under
``run_options(reference=True)``, where the golden suite and the
``fast_slow`` relation diff the two engines.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

Callback = Callable[..., None]

#: Default *arg* of an event scheduled without one: dispatch calls
#: ``callback()``.  Any other value, ``None`` included, is passed through.
_NO_ARG: Any = object()


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
        if when_ns < self.now:
            raise ValueError(
                f"cannot schedule an event in the past ({when_ns} < now={self.now})"
            )
        heapq.heappush(self._queue, (when_ns, next(self._sequence), callback, arg))

    def schedule_in(self, delay_ns: int, callback: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule *callback* to run *delay_ns* nanoseconds from now."""
        if delay_ns < 0:
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
        """
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

    Events scheduled for the same nanosecond share one flat list,
    ``[callback, arg, callback, arg, ...]``; the heap orders only the
    distinct timestamps.  Appending to a bucket is O(1), allocates
    nothing per event and preserves scheduling order, which reproduces
    the reference loop's ``(time, sequence)`` tie-breaking exactly —
    including events scheduled *for the current timestamp while it is
    being drained*, which land at the tail of the active bucket and run
    after every already-queued tie.
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_pending",
        "_active_time",
        "_active_bucket",
        "_active_index",
    )

    def __init__(self) -> None:
        self.now = 0
        self.events_executed = 0
        self.monitor = None
        #: timestamp -> FIFO list of that timestamp's events, two slots
        #: (callback, arg) per event.
        self._buckets: Dict[int, list] = {}
        #: heap of distinct timestamps present in ``_buckets``.
        self._times: List[int] = []
        self._pending = 0
        # Drain cursor (a slot index into the active bucket), kept as
        # instance state so ``run_all(max_events)`` can stop mid-bucket
        # and a later run resumes exactly where it left off.
        self._active_time = -1
        self._active_bucket: Optional[list] = None
        self._active_index = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(self, when_ns: int, callback: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule the event at *when_ns* (same semantics as the reference)."""
        if when_ns < self.now:
            raise ValueError(
                f"cannot schedule an event in the past ({when_ns} < now={self.now})"
            )
        bucket = self._buckets.get(when_ns)
        if bucket is None:
            self._buckets[when_ns] = [callback, arg]
            heapq.heappush(self._times, when_ns)
        else:
            bucket.append(callback)
            bucket.append(arg)
        self._pending += 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_until(self, horizon_ns: int) -> None:
        """Execute events in order until the next event lies *beyond*
        ``horizon_ns``.

        Same inclusive-horizon contract as :meth:`EventLoop.run_until`:
        events scheduled exactly at ``horizon_ns`` execute, ``monitor``
        fires once per executed callback, and ``now`` is left clamped to
        the horizon afterwards.
        """
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        monitor = self.monitor
        no_arg = _NO_ARG
        # ``consumed`` counts events taken off the calendar, ``executed``
        # events whose callback completed; they differ only when a
        # callback raises, and keeping both mirrors the reference loop
        # (the heap entry is popped even if the callback then raises).
        consumed = 0
        executed = 0
        try:
            while True:
                if self._active_bucket is None:
                    if not times or times[0] > horizon_ns:
                        break
                    when_ns = pop(times)
                    bucket = buckets[when_ns]
                    if len(bucket) == 2:
                        # Singleton bucket: skip the drain-cursor
                        # bookkeeping.  The bucket is removed first, so a
                        # callback scheduling at ``now`` creates a fresh
                        # bucket that the heap serves next — the same
                        # order the reference loop produces.
                        del buckets[when_ns]
                        self.now = when_ns
                        if monitor is not None:
                            monitor(when_ns)
                        consumed += 1
                        callback, arg = bucket
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                        executed += 1
                        continue
                    self._active_time = when_ns
                    self._active_bucket = bucket
                    self._active_index = 0
                elif self._active_time > horizon_ns:
                    break
                self.now = self._active_time
                bucket = self._active_bucket
                index = self._active_index
                # Callbacks may append same-time events to this bucket;
                # re-reading the length each iteration runs them in FIFO
                # order, matching the reference loop's sequence numbers.
                while index < len(bucket):
                    callback = bucket[index]
                    arg = bucket[index + 1]
                    index += 2
                    self._active_index = index
                    if monitor is not None:
                        monitor(self._active_time)
                    consumed += 1
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    executed += 1
                del buckets[self._active_time]
                self._active_bucket = None
                self._active_time = -1
        finally:
            self.events_executed += executed
            self._pending -= consumed
        if self.now < horizon_ns:
            self.now = horizon_ns

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Drain the calendar completely (or up to *max_events* events)."""
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        monitor = self.monitor
        remaining = float("inf") if max_events is None else max_events
        consumed = 0
        executed = 0
        try:
            while remaining > 0:
                if self._active_bucket is None:
                    if not times:
                        break
                    when_ns = pop(times)
                    self._active_time = when_ns
                    self._active_bucket = buckets[when_ns]
                    self._active_index = 0
                self.now = self._active_time
                bucket = self._active_bucket
                index = self._active_index
                while index < len(bucket) and remaining > 0:
                    callback = bucket[index]
                    arg = bucket[index + 1]
                    index += 2
                    self._active_index = index
                    if monitor is not None:
                        monitor(self._active_time)
                    consumed += 1
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                    executed += 1
                    remaining -= 1
                if self._active_index >= len(bucket):
                    del buckets[self._active_time]
                    self._active_bucket = None
                    self._active_time = -1
        finally:
            self.events_executed += executed
            self._pending -= consumed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return self._pending
