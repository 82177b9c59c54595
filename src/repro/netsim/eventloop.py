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
:attr:`FastEventLoop.pending_times` answers the question; the reference
loop answers ``None`` and keeps every such event.  On the perf ledger's
``fig07_sat`` workload that removes a third of all events.

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

The calendar keeps no per-event bookkeeping.  An event alone at its
nanosecond costs a dict lookup, a dict insert and a heap push to
schedule, and a heap pop and a ``dict.pop`` to run; no counter moves
either way.
:attr:`FastEventLoop.pending_events` is counted from the buckets and the
drain cursor when asked — the validation drain is its one reader on
the run path.

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
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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

    @property
    def pending_times(self) -> Optional[Mapping[int, Any]]:
        """Read-only view keyed by every timestamp with a pending event,
        or ``None`` when the loop cannot tell cheaply (this one).

        :class:`~repro.netsim.link.Link` elides a serialization-end
        event only when this answers that nothing is pending at its
        time, so the reference loop runs every such event.
        """
        return None


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

    A singleton event — the common case — is scheduled with one dict
    lookup, one insert and one heap push, and run with one heap pop and
    one ``dict.pop``; nothing else is written per event.  No pending
    count is kept: :attr:`pending_events` adds up the buckets when
    asked.
    """

    __slots__ = (
        "_buckets",
        "_pending_view",
        "_times",
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
        self._pending_view = MappingProxyType(self._buckets)
        #: heap of distinct timestamps present in ``_buckets``.
        self._times: List[int] = []
        # Drain cursor (a slot index into the active bucket) of a bucket
        # left half drained between runs — by ``run_all(max_events)``
        # or a raising callback — so the next run resumes exactly where
        # it left off.
        self._active_time = -1
        self._active_bucket: Optional[list] = None
        self._active_index = 0

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
            self._buckets[when_ns] = [callback, arg]
            heapq.heappush(self._times, when_ns)
        else:
            bucket.append(callback)
            bucket.append(arg)

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

        The drain cursor lives in locals: it is stored on the loop only
        when a callback raises, so the next run resumes the interrupted
        bucket after the raising event (the reference loop has popped
        that event too).
        """
        _check_horizon(horizon_ns)
        if self._active_bucket is not None and self._active_time > horizon_ns:
            return  # ``now`` is the stopped bucket's time, past the horizon
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        monitor = self.monitor
        no_arg = _NO_ARG
        # A bucket ``run_all(max_events)`` or a raising callback left
        # half drained is resumed first.
        active = self._active_bucket
        when_ns = self._active_time
        index = self._active_index
        self._active_bucket = None
        executed = 0
        try:
            while True:
                if active is None:
                    if not times or times[0] > horizon_ns:
                        break
                    when_ns = pop(times)
                    bucket = buckets.pop(when_ns)
                    if len(bucket) == 2:
                        # Singleton bucket: no drain cursor.  It is off
                        # the map before it runs, so a callback
                        # scheduling at ``now`` creates a fresh bucket
                        # that the heap serves next — the same order the
                        # reference loop produces.
                        self.now = when_ns
                        if monitor is not None:
                            monitor(when_ns)
                        callback, arg = bucket
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                        executed += 1
                        continue
                    # Back on the map while it drains, so same-time
                    # events join its tail and ``pending_times`` sees it.
                    buckets[when_ns] = active = bucket
                    index = 0
                self.now = when_ns
                # Callbacks may append same-time events to this bucket;
                # re-reading the length each iteration runs them in FIFO
                # order, matching the reference loop's sequence numbers.
                while index < len(active):
                    callback = active[index]
                    arg = active[index + 1]
                    index += 2
                    if monitor is not None:
                        monitor(when_ns)
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    executed += 1
                del buckets[when_ns]
                active = None
        except BaseException:
            if active is not None:
                self._active_time = when_ns
                self._active_bucket = active
                self._active_index = index
            raise
        finally:
            self.events_executed += executed
        if self.now < horizon_ns:
            self.now = horizon_ns

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Drain the calendar completely (or up to *max_events* events)."""
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        monitor = self.monitor
        remaining = float("inf") if max_events is None else max_events
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

    @property
    def pending_events(self) -> int:
        """Number of events still queued, counted from the buckets and
        the drain cursor when asked (no per-event counter is kept).
        Exact between runs; a callback asking during :meth:`run_until`
        also counts the already-run events of its own nanosecond."""
        pending = sum(map(len, self._buckets.values())) // 2
        if self._active_bucket is not None:
            pending -= self._active_index // 2
        return pending

    @property
    def pending_times(self) -> Mapping[int, Any]:
        """Live read-only view of the calendar: timestamp -> that
        timestamp's bucket, for every timestamp with a pending event
        (the bucket being drained included).  ``when in pending_times``
        is one C-level lookup, and the view stays valid for the loop's
        lifetime, so callers may capture it once."""
        return self._pending_view
