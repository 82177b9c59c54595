"""Full-duplex point-to-point links with finite egress buffers.

A link direction models three things: serialization delay (frame bytes
over the link rate), propagation delay, and an egress buffer of finite
byte capacity.  When the buffer is full the frame is dropped — this is
where the baseline deployment loses packets once the switch → NF-server
link saturates (§6.2.1), and it is the buffer whose occupancy produces
the latency cliff visible in Fig. 7 and Fig. 16.

The transmit path is deliberately lean: links move every frame of every
simulated hop, so a frame crossing a link is normally one event — its
arrival — and three Python frames: the sending node's per-port sender
(:meth:`Node.port_sender`), :meth:`Link.transmit` and the direction's
arrival callback.  ``Link.transmit`` is the one transmit body: it picks
the sender's direction and does that direction's work itself, and it
puts the arrival straight into the calendar's map and heap
(:func:`~repro.netsim.eventloop.calendar_of`) rather than calling
``schedule_at``.  The per-direction object keeps the state (queue,
serialization cursor, counters, fault windows) and binds its callbacks
once at wiring time; they are scheduled with the byte count or the
packet as the event argument.  The byte count is the frame's stored
``wire_length``, read once.  Serialization time is one subscript of a
per-size table that fills a size on its first lookup (the link rate is
fixed after construction), and arrival calls the receiving node's
``handle_packet`` directly.

Faults and hooks stay off that path behind one per-direction flag,
``impaired``.  While it is clear, ``transmit`` runs no down, loss,
jitter, arrival-clamp or profiler branch.  Every fault or hook setter
(:meth:`Link.set_up`, :meth:`~Link.set_loss`, :meth:`~Link.set_jitter`,
:meth:`~Link.set_observability`) sets it, and on the reference loop it
is set for good.  Only ``transmit`` clears it, on a frame that finds the
direction up, no loss or jitter window open, no hook installed and its
un-jittered arrival no earlier than the last jittered one — so after a
jitter window closes, arrivals stay clamped until they pass the last
jittered arrival.  The flag only adds drops and jitter to the frame's
arithmetic, which is the same code either way.

Serialization end is drained lazily.  Its only effect is to take the
frame's bytes out of ``queued_bytes``, and only :meth:`Link.transmit`
reads ``queued_bytes``, so instead of an event the frame's
``(tx_done, wire_bytes)`` joins the direction's in-flight FIFO, and
every later transmit on the direction first subtracts the entries with
``tx_done <= now``.  That is exact when the elided event would have
been the *first* event of its nanosecond: it would then have run before
anything else at ``tx_done`` — before any transmit an event there
triggers — and the drain at ``now == tx_done`` counts it, as the event
would have.  The first-in-bucket condition holds whenever the calendar
has nothing pending at ``tx_done`` when the frame is sent (events
scheduled later at that nanosecond queue behind it), so
``Link.transmit`` looks ``tx_done`` up in the calendar's map and elides
only then.  A frame whose ``tx_done`` already has an event
or is the current instant (a 0 ns serialization, which would queue
behind the running event), or any frame on a loop that cannot tell (the
reference :class:`EventLoop`), gets its serialization-end event as
before.  Arrivals never precede their
frame's ``tx_done`` (the propagation delay is checked non-negative at
construction).

``Link.transmit`` and every ``handle_packet`` are looked up per frame,
never captured bound: the perf ledger's tracer and
``tests/integration/test_hop_seams.py`` wrap them at class level after
the testbed is wired.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Optional, Tuple

from repro.compat import SLOTTED
from repro.errors import LinkSpecError, require_integer, require_positive_finite
from repro.netsim.eventloop import EventLoop, calendar_of
from repro.netsim.node import Node
from repro.packet.packet import Packet


@dataclass(**SLOTTED)
class LinkDirectionStats:
    """Counters for one direction of a link, each kept because a
    reader under ``src/`` reads it:

    * ``frames_sent`` / ``frames_delivered`` — the validation
      subsystem's link-conservation invariant checks them equal after
      the drain.
    * ``frames_dropped`` — egress-buffer overflows (the organic drop
      mechanism), read through :meth:`Link.buffer_drops` by that
      invariant, the runner's drop breakdown and the observability
      plane.
    * ``frames_dropped_down`` / ``frames_dropped_loss`` — frames lost to
      injected faults (a downed link, an active random-loss window),
      summed by :attr:`fault_drops` so the drop-aware
      packet-conservation invariant accounts every loss to its
      mechanism.
    * ``peak_queue_bytes`` — the runner's ``peak_queue_bytes`` report
      field.

    Add a counter together with its reader: these are written on the
    per-frame path of every hop.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    peak_queue_bytes: int = 0
    frames_dropped_down: int = 0
    frames_dropped_loss: int = 0

    @property
    def fault_drops(self) -> int:
        """Frames lost to injected faults (link down + loss windows)."""
        return self.frames_dropped_down + self.frames_dropped_loss


class _SerializationTable(dict):
    """Wire bytes -> serialization ns at one link rate, filled on a
    size's first lookup (the rate is fixed after construction)."""

    __slots__ = ("bandwidth_gbps",)

    def __init__(self, bandwidth_gbps: float) -> None:
        super().__init__()
        self.bandwidth_gbps = bandwidth_gbps

    def __missing__(self, nbytes: int) -> int:
        ns = self[nbytes] = int(round(nbytes * 8 / self.bandwidth_gbps))
        return ns


class _LinkDirection:
    """One direction of a full-duplex link: its state, counters and the
    per-frame event callbacks.  :meth:`Link.transmit` drives it."""

    __slots__ = (
        "env",
        "name",
        "propagation_delay_ns",
        "buffer_bytes",
        "next_free_ns",
        "queued_bytes",
        "in_flight",
        "stats",
        "_node",
        "_port",
        "serialization",
        "_on_finish",
        "_on_arrive",
        "impaired",
        "up",
        "loss_probability",
        "jitter_ns",
        "_loss_rng",
        "_jitter_rng",
        "last_arrival_ns",
        "obs_recorder",
        "obs_profiler",
    )

    def __init__(
        self,
        env: EventLoop,
        name: str,
        bandwidth_gbps: float,
        propagation_delay_ns: int,
        buffer_bytes: int,
        node: Node,
        port: int,
    ) -> None:
        self.env = env
        self.name = name
        self.propagation_delay_ns = propagation_delay_ns
        self.buffer_bytes = buffer_bytes
        self.next_free_ns = 0
        #: Bytes in the egress buffer as of the last transmit's drain:
        #: frames in ``in_flight`` are still counted here until a
        #: transmit at or after their ``tx_done`` subtracts them.
        self.queued_bytes = 0
        #: ``(tx_done, wire_bytes)`` of frames whose serialization end
        #: is drained lazily, in ``tx_done`` order.
        self.in_flight: deque = deque()
        self.stats = LinkDirectionStats()
        #: Receiving endpoint: arriving frames go to ``node.handle_packet``
        #: on *port*, looked up per frame so a wrapped or overridden
        #: method is honoured.
        self._node = node
        self._port = port
        #: wire bytes -> serialization ns, filled on first use of a size.
        self.serialization = _SerializationTable(bandwidth_gbps)
        # The per-frame event callbacks, bound once.
        self._on_finish = self._finish
        self._on_arrive = self._arrive
        #: True while ``transmit`` must run its fault, loss, jitter,
        #: clamp and profiler branches (see the module docstring).  Set
        #: by every fault or hook setter and, on a loop without a
        #: calendar, for good; only ``transmit`` clears it.
        self.impaired = calendar_of(env)[0] is None
        # Fault-injection state (see repro.faults): a downed direction
        # drops every offered frame; an active loss window drops each
        # frame with ``loss_probability``; an active jitter window adds a
        # uniform extra in [0, jitter_ns) to the propagation delay.
        self.up = True
        self.loss_probability = 0.0
        self.jitter_ns = 0
        self._loss_rng = None
        self._jitter_rng = None
        #: Latest arrival time scheduled on this direction while
        #: impaired.  A wire is FIFO: jitter delays frames but can never
        #: reorder them, so jittered arrivals are clamped to be monotone.
        #: Without jitter arrivals never decrease (serialization is
        #: serialized through ``next_free_ns``), so the clamp is a no-op
        #: once an un-jittered arrival has caught up with this, and an
        #: unimpaired transmit need not write it.
        self.last_arrival_ns = 0
        # Observability hooks (repro.obs), installed through
        # ``Link.set_observability``.
        self.obs_recorder = None
        self.obs_profiler = None

    def _finish(self, wire_bytes: int) -> None:
        """Serialization ended: the frame's bytes leave the egress buffer."""
        self.queued_bytes -= wire_bytes

    def _arrive(self, packet: Packet) -> None:
        """The frame reached the far end: hand it to the receiving node."""
        self.stats.frames_delivered += 1
        self._node.handle_packet(packet, self._port)

    def _record_drop(self, packet: Packet, reason: str) -> None:
        """Flight-recorder drop hook (drop branches only, never the fast case)."""
        recorder = self.obs_recorder
        if recorder is not None:
            pkt_id = packet.meta.get("obs_pkt")
            if pkt_id is not None:
                recorder.packet_dropped(pkt_id, self.env.now, self.name, reason)


class Link:
    """A full-duplex link between two node ports."""

    def __init__(
        self,
        env: EventLoop,
        node_a: Node,
        port_a: int,
        node_b: Node,
        port_b: int,
        bandwidth_gbps: float = 10.0,
        propagation_delay_ns: int = 500,
        buffer_bytes: int = 512 * 1024,
        name: Optional[str] = None,
    ) -> None:
        require_positive_finite("bandwidth_gbps", bandwidth_gbps, LinkSpecError)
        require_integer("propagation_delay_ns", propagation_delay_ns, 0, LinkSpecError)
        require_integer("buffer_bytes", buffer_bytes, 1, LinkSpecError)
        self.env = env
        #: The calendar's map and heap the arrival is inserted into
        #: (``None`` on the reference loop, which is scheduled through
        #: and keeps every serialization-end event).
        self._buckets, self._times = calendar_of(env)
        self.name = name or f"{node_a.name}:{port_a}<->{node_b.name}:{port_b}"
        self.node_a, self.node_b = node_a, node_b
        shape = (bandwidth_gbps, propagation_delay_ns, buffer_bytes)
        self._a_to_b = _LinkDirection(env, f"{self.name}[a->b]", *shape, node_b, port_b)
        self._b_to_a = _LinkDirection(env, f"{self.name}[b->a]", *shape, node_a, port_a)
        node_a.attach_link(port_a, self)
        node_b.attach_link(port_b, self)

    def transmit(self, packet: Packet, sender: Node) -> None:
        """Send *packet* from *sender* toward the other end of the link.

        Queues the frame on *sender*'s direction and schedules its
        arrival (and its serialization end, unless that is drained
        lazily — see the module docstring); a downed direction, an
        active loss window or a full egress buffer drops it instead.
        """
        if sender is self.node_a:
            direction = self._a_to_b
        elif sender is self.node_b:
            direction = self._b_to_a
        else:
            raise ValueError(f"{sender.name} is not attached to link {self.name}")
        stats = direction.stats
        impaired = direction.impaired
        if impaired:
            if not direction.up:
                stats.frames_dropped_down += 1
                direction._record_drop(packet, "link-down")
                return
            if (
                direction.loss_probability > 0.0
                and direction._loss_rng.random() < direction.loss_probability
            ):
                stats.frames_dropped_loss += 1
                direction._record_drop(packet, "link-loss")
                return
        wire_bytes = packet.wire_length
        now = self.env.now
        in_flight = direction.in_flight
        while in_flight and in_flight[0][0] <= now:
            direction.queued_bytes -= in_flight.popleft()[1]
        queued = direction.queued_bytes + wire_bytes
        if queued > direction.buffer_bytes:
            stats.frames_dropped += 1
            direction._record_drop(packet, "link-buffer-overflow")
            return
        if impaired:
            profiler = direction.obs_profiler
            if profiler is not None:
                profiler.enter("link_transmit")
        next_free = direction.next_free_ns
        tx_done = (now if now > next_free else next_free) + direction.serialization[wire_bytes]
        direction.next_free_ns = tx_done
        direction.queued_bytes = queued
        stats.frames_sent += 1
        if queued > stats.peak_queue_bytes:
            stats.peak_queue_bytes = queued
        arrival = tx_done + direction.propagation_delay_ns
        buckets = self._buckets
        if impaired:
            jitter = direction.jitter_ns
            if jitter:
                arrival += int(direction._jitter_rng.random() * jitter)
            if arrival < direction.last_arrival_ns:
                arrival = direction.last_arrival_ns
            elif not (
                jitter
                or direction.loss_probability > 0.0
                or profiler is not None
                or direction.obs_recorder is not None
                or buckets is None
            ):
                # Up, no window open, no hook, and the clamp has caught
                # up: later frames need none of these branches.
                direction.impaired = False
            direction.last_arrival_ns = arrival

        # Serialization end first: on a tie it must run before the
        # arrival.  Elided when it would be first at its nanosecond.
        if buckets is None or tx_done <= now or tx_done in buckets:
            self.env.schedule_at(tx_done, direction._on_finish, wire_bytes)
        else:
            in_flight.append((tx_done, wire_bytes))
        if buckets is None:
            self.env.schedule_at(arrival, direction._on_arrive, packet)
        else:
            bucket = buckets.get(arrival)
            if bucket is None:
                buckets[arrival] = [(direction._on_arrive, packet)]
                heappush(self._times, arrival)
            else:
                bucket.append((direction._on_arrive, packet))
        if impaired and profiler is not None:
            profiler.exit()

    # ------------------------------------------------------------------ #
    # Fault injection (control plane; see repro.faults)
    # ------------------------------------------------------------------ #

    def set_up(self, up: bool) -> None:
        """Bring both directions of the link up or down.

        While down, every frame offered to either direction is dropped
        and counted as a fault drop; frames already serialized or
        propagating still arrive (the outage severs new transmissions,
        not photons already in flight).
        """
        for direction in (self._a_to_b, self._b_to_a):
            direction.up = up
            direction.impaired = True

    @property
    def is_up(self) -> bool:
        """True when both directions accept frames."""
        return self._a_to_b.up and self._b_to_a.up

    def set_loss(self, probability: float, seed: int = 0) -> None:
        """Open (or with 0.0, close) a random-loss window on both directions.

        Each direction draws from its own RNG derived from *seed*, so
        the drop pattern is reproducible for a given scenario seed and
        identical across the fast and reference simulation paths.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must lie in [0, 1], got {probability}")
        for salt, direction in enumerate((self._a_to_b, self._b_to_a)):
            direction.loss_probability = probability
            direction.impaired = True
            if probability > 0.0:
                direction._loss_rng = random.Random((seed * 2 + salt) & 0xFFFFFFFFFFFFFFFF)
            else:
                direction._loss_rng = None

    def set_jitter(self, jitter_ns: int, seed: int = 0) -> None:
        """Open (or with 0, close) a latency-jitter window on both directions.

        While active, each frame's propagation delay gains a uniform
        extra in ``[0, jitter_ns)`` drawn from a seed-derived RNG.
        """
        if jitter_ns < 0:
            raise ValueError(f"jitter_ns must be non-negative, got {jitter_ns}")
        for salt, direction in enumerate((self._a_to_b, self._b_to_a)):
            direction.jitter_ns = jitter_ns
            direction.impaired = True
            if jitter_ns > 0:
                direction._jitter_rng = random.Random((seed * 2 + salt + 1) & 0xFFFFFFFFFFFFFFFF)
            else:
                direction._jitter_rng = None

    def set_observability(self, recorder=None, profiler=None) -> None:
        """Install observability hooks on both directions (repro.obs)."""
        for direction in (self._a_to_b, self._b_to_a):
            direction.obs_recorder = recorder
            direction.obs_profiler = profiler
            direction.impaired = True

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def direction_counters(self) -> "Tuple[LinkDirectionStats, LinkDirectionStats]":
        """Both directions' counters, ``(a->b, b->a)`` (control-plane view).

        The public surface the validation subsystem iterates for
        per-direction accounting identities, so invariants do not couple
        to the private direction layout.
        """
        return (self._a_to_b.stats, self._b_to_a.stats)

    def direction_stats(self, sender: Node) -> LinkDirectionStats:
        """Stats of the direction whose transmitter is *sender*."""
        if sender is self.node_a:
            return self._a_to_b.stats
        if sender is self.node_b:
            return self._b_to_a.stats
        raise ValueError(f"{sender.name} is not attached to link {self.name}")

    def total_drops(self) -> int:
        """Frames dropped in both directions (buffer overflows + faults)."""
        a, b = self._a_to_b.stats, self._b_to_a.stats
        return a.frames_dropped + a.fault_drops + b.frames_dropped + b.fault_drops

    def buffer_drops(self) -> int:
        """Frames lost to egress-buffer overflows in both directions."""
        return self._a_to_b.stats.frames_dropped + self._b_to_a.stats.frames_dropped

    def fault_drops(self) -> int:
        """Frames lost to injected faults (down/loss) in both directions."""
        return self._a_to_b.stats.fault_drops + self._b_to_a.stats.fault_drops
