"""Closed-loop transport: TCP-style congestion-controlled senders.

Every other workload in this package is *open-loop*: a rate schedule or
arrival process decides when the next packet is offered, no matter what
the network did to the previous one.  That cannot exhibit the failure
modes the paper's §6 goodput/latency story is really about — what
happens to end-to-end transfers when payloads sit in switch SRAM.  A
parked payload delays the packet's round trip, which (for a real
transport) inflates the RTT estimate, stalls the ACK clock and can fire
spurious retransmissions; a drain-eviction *loses* the payload, which
costs a retransmission and a cwnd collapse.  Open-loop senders shrug;
closed-loop senders back off, and aggregate goodput moves.

:class:`ClosedLoopFlows` is the flow-model half: an immutable
description of a population of congestion-controlled flows (window
sizes, RTO bounds, transfer sizes, epoch synchronization).  It plugs
into the same :class:`~repro.workloads.flowmodels.FlowModel` slot the
open-loop models use, so ``repro workload describe`` and campaign grids
treat it like any other population.

:class:`ClosedLoopTransport` is the engine: per-flow connection state
driven by the simulated network itself.  The testbed loops every frame
``pktgen -> switch -> NF server -> switch -> pktgen``, so a frame
arriving back at the generator doubles as its acknowledgment — loss is
inferred exactly the way a real receiver infers it, from the holes.

The congestion control is NewReno-shaped:

* slow start (cwnd += 1 per new ACK) below ``ssthresh``, congestion
  avoidance (cwnd += 1/cwnd) above it;
* out-of-order deliveries count as duplicate ACKs; the third triggers a
  fast retransmit of the hole, halves cwnd and enters recovery (partial
  ACKs retransmit the next hole immediately, NewReno-style);
* an RTO (EWMA SRTT + 4·RTTVAR, Karn-ambiguity-safe sampling,
  exponential backoff) collapses cwnd to one segment and slow-starts;
* sequence numbers delivered twice (an original that was only *parked*,
  not lost, racing its retransmission) are classified as duplicates —
  throughput, never goodput.

:class:`ClosedLoopWorkload` wraps both into a registry-ready
:class:`~repro.workloads.base.WorkloadSpec`; ``incast-collapse`` and
``rpc-fanout`` in :mod:`repro.workloads.registry` are its two named
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import WorkloadSpecError
from repro.packet.flows import FlowGenerator, check_flow_count
from repro.packet.pool import FramePool
from repro.traffic.distributions import FixedSizeDistribution
from repro.traffic.pktgen import build_udp_frame
from repro.traffic.workload import Workload
from repro.workloads.base import TrafficModel, WorkloadSpec, derived_rng
from repro.workloads.flowmodels import FlowModel

#: RNG salt for transport randomness (start jitter, think times), kept
#: distinct from packet-content and arrival-gap sampling.
_TRANSPORT_SALT = 2

#: Minimum wire bytes per segment (Ethernet+IPv4+UDP header).
_MIN_SEGMENT_BYTES = 64


# ---------------------------------------------------------------------- #
# The flow model (immutable description)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClosedLoopFlows(FlowModel):
    """A population of TCP-style congestion-controlled flows.

    Attributes
    ----------
    flow_count:
        Concurrent connections (the incast fan-in).
    segments_per_transfer:
        Segments each flow sends per request/response epoch.
    mss_bytes:
        Wire bytes per segment (at least the 64-byte frame minimum).
    initial_cwnd_segments / initial_ssthresh_segments:
        Slow-start entry state of every fresh transfer.
    max_cwnd_segments:
        Hard cap on the congestion window.
    dupack_threshold:
        Out-of-order deliveries that trigger a fast retransmit.
    min_rto_ns / max_rto_ns:
        RTO clamp; the minimum is the knob that decides how expensive a
        timeout is relative to the (microsecond-scale) simulated RTT —
        the classic incast-collapse ingredient.
    sync_epochs:
        ``True`` barriers every flow: the next epoch starts only when
        *all* transfers completed (synchronized incast / RPC fan-out).
        ``False`` lets each flow restart independently.
    think_time_ns:
        Idle time between a flow's transfer completing and its next one
        starting (sampled uniformly in ``[0.5x, 1.5x]`` per epoch).
    start_jitter_ns:
        Per-flow uniform jitter on epoch start times, so "synchronized"
        means microseconds apart, not literally the same event tick.
    """

    flow_count: int = 32
    segments_per_transfer: int = 32
    mss_bytes: int = 1068
    initial_cwnd_segments: int = 2
    initial_ssthresh_segments: int = 64
    max_cwnd_segments: int = 256
    dupack_threshold: int = 3
    min_rto_ns: int = 1_000_000
    max_rto_ns: int = 64_000_000
    sync_epochs: bool = True
    think_time_ns: int = 0
    start_jitter_ns: int = 2_000

    def __post_init__(self) -> None:
        check_flow_count(self.flow_count)
        if self.segments_per_transfer < 1:
            raise WorkloadSpecError("segments_per_transfer must be >= 1")
        if self.mss_bytes < _MIN_SEGMENT_BYTES:
            raise WorkloadSpecError(
                f"mss_bytes must be >= {_MIN_SEGMENT_BYTES} (minimum frame)"
            )
        if self.initial_cwnd_segments < 1:
            raise WorkloadSpecError("initial_cwnd_segments must be >= 1")
        if self.initial_ssthresh_segments < 2:
            raise WorkloadSpecError("initial_ssthresh_segments must be >= 2")
        if self.max_cwnd_segments < self.initial_cwnd_segments:
            raise WorkloadSpecError("max_cwnd_segments must cover the initial cwnd")
        if self.dupack_threshold < 1:
            raise WorkloadSpecError("dupack_threshold must be >= 1")
        if self.min_rto_ns <= 0 or self.max_rto_ns < self.min_rto_ns:
            raise WorkloadSpecError("need 0 < min_rto_ns <= max_rto_ns")
        if self.think_time_ns < 0 or self.start_jitter_ns < 0:
            raise WorkloadSpecError("think/jitter times cannot be negative")

    def nominal_flow_count(self) -> int:
        return self.flow_count

    def label(self) -> str:
        mode = "sync" if self.sync_epochs else "async"
        return (
            f"closed-loop({self.flow_count} flows, "
            f"{self.segments_per_transfer}x{self.mss_bytes}B/{mode})"
        )


# ---------------------------------------------------------------------- #
# Per-connection state
# ---------------------------------------------------------------------- #


class _Connection:
    """Mutable sender state of one closed-loop flow."""

    __slots__ = (
        "flow_id", "cwnd", "ssthresh", "next_seq", "cum",
        "sacked", "outstanding", "retx_seqs", "dup_acks", "in_recovery",
        "recovery_point", "srtt_ns", "rttvar_ns", "rto_ns", "timer_gen",
        "timer_armed", "transfer_end", "epoch_done", "five_tuple",
    )

    def __init__(self, flow_id: int, model: ClosedLoopFlows) -> None:
        self.flow_id = flow_id
        self.cwnd = float(model.initial_cwnd_segments)
        self.ssthresh = float(model.initial_ssthresh_segments)
        self.next_seq = 0            # next fresh sequence number
        self.cum = 0                 # every seq < cum has been delivered
        self.sacked: set = set()     # delivered seqs >= cum
        self.outstanding: Dict[int, int] = {}  # seq -> last transmit time (ns)
        self.retx_seqs: set = set()  # seqs ever retransmitted (Karn)
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = 0
        self.srtt_ns: Optional[float] = None
        self.rttvar_ns = 0.0
        self.rto_ns = float(model.min_rto_ns)
        self.timer_gen = 0
        self.timer_armed = False
        self.transfer_end = 0        # current transfer sends seqs < this
        self.epoch_done = True
        #: This flow's five-tuple, resolved on its first segment.
        self.five_tuple = None


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


class ClosedLoopTransport:
    """ACK-clocked sender bank driving one traffic-generator node.

    The node calls :meth:`start` / :meth:`stop` around the run and
    :meth:`on_delivery` for every frame that completes the round trip;
    the engine calls back into ``node.transmit_segment`` to put frames
    on the wire and schedules its RTO timers on ``node.env``.  After
    ``stop`` (or the node's stop horizon) no new transmission or timer
    is ever scheduled, so a post-horizon drain always terminates.
    """

    def __init__(self, model: ClosedLoopFlows, config, node) -> None:
        self.model = model
        self.config = config
        self.node = node
        self._rng = derived_rng(config.seed, _TRANSPORT_SALT)
        # Same choice of builder as the open-loop sources: pooled on the
        # default engine, parsed on the reference one.
        self._pool = (
            FramePool(config.src_mac, config.dst_mac) if config.pooled else None
        )
        # Connection *i* sends flow *i* of the population (built on its
        # first segment, like every other reader's).
        self._tuples = FlowGenerator(flow_count=model.flow_count).flows()
        #: Wire bytes of every segment (the model checks the minimum frame).
        self._segment_len = model.mss_bytes
        self.flows: List[_Connection] = [
            _Connection(index, model) for index in range(model.flow_count)
        ]
        self._stop_at_ns: Optional[int] = None
        self._stopped = False
        self._remaining_in_epoch = 0
        # Engine counters (the retransmit-accounting invariant checks
        # these against the node's sends, retransmissions — count and
        # wire bytes — and deliveries).
        self.segments_sent = 0           # every transmit, fresh + retx
        self.distinct_segments_sent = 0  # first transmissions only
        self.retx_segments = 0
        self.retx_bytes = 0
        self.unique_delivered_segments = 0
        self.unique_delivered_useful_bytes = 0
        self.duplicate_segments = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.epochs_completed = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self, stop_at_ns: int) -> None:
        """Arm every flow's first transfer (jittered epoch start)."""
        self._stop_at_ns = stop_at_ns
        self._stopped = False
        self._start_epoch()

    def stop(self) -> None:
        """Stop launching segments and timers (in-flight frames drain)."""
        self._stopped = True

    def _active(self) -> bool:
        if self._stopped:
            return False
        if self._stop_at_ns is not None and self.node.env.now >= self._stop_at_ns:
            self._stopped = True
            return False
        return True

    # ------------------------------------------------------------------ #
    # Epochs
    # ------------------------------------------------------------------ #

    def _start_epoch(self) -> None:
        if not self._active():
            return
        self._remaining_in_epoch = len(self.flows)
        for conn in self.flows:
            self._arm_transfer(conn)

    def _arm_transfer(self, conn: _Connection) -> None:
        """Reset *conn* for a fresh request/response and schedule its start."""
        conn.transfer_end = conn.next_seq + self.model.segments_per_transfer
        conn.cwnd = float(self.model.initial_cwnd_segments)
        conn.ssthresh = float(self.model.initial_ssthresh_segments)
        conn.dup_acks = 0
        conn.in_recovery = False
        conn.epoch_done = False
        jitter = self._rng.randrange(self.model.start_jitter_ns + 1)
        self.node.env.schedule_in(max(1, jitter), self._open_window, conn)

    def _open_window(self, conn: _Connection) -> None:
        if not self._active():
            return
        self._send_allowed(conn)

    def _transfer_completed(self, conn: _Connection) -> None:
        conn.epoch_done = True
        if self.model.sync_epochs:
            self._remaining_in_epoch -= 1
            if self._remaining_in_epoch == 0:
                self.epochs_completed += 1
                self.node.env.schedule_in(
                    max(1, self._think_time()), self._start_epoch
                )
        else:
            self.epochs_completed += 1
            delay = max(1, self._think_time())
            self.node.env.schedule_in(delay, self._restart_flow, conn)

    def _restart_flow(self, conn: _Connection) -> None:
        if not self._active():
            return
        self._arm_transfer(conn)

    def _think_time(self) -> int:
        think = self.model.think_time_ns
        if think <= 0:
            return 1
        return int(think * (0.5 + self._rng.random()))

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #

    def _send_allowed(self, conn: _Connection) -> None:
        """Send as many fresh segments as the window currently allows."""
        if not self._active():
            return
        window = min(int(conn.cwnd), self.model.max_cwnd_segments)
        outstanding = conn.outstanding
        while len(outstanding) < window and conn.next_seq < conn.transfer_end:
            seq = conn.next_seq
            conn.next_seq += 1
            self.distinct_segments_sent += 1
            self._put_on_wire(conn, seq, retransmission=False)

    def _retransmit(self, conn: _Connection, seq: int) -> None:
        conn.retx_seqs.add(seq)
        self.retx_segments += 1
        self.retx_bytes += self._segment_len
        self._put_on_wire(conn, seq, retransmission=True)

    def _put_on_wire(self, conn: _Connection, seq: int, retransmission: bool) -> None:
        five_tuple = conn.five_tuple
        if five_tuple is None:
            five_tuple = conn.five_tuple = self._tuples[conn.flow_id]
        if self._pool is not None:
            packet = self._pool.frame(self._segment_len, five_tuple)
        else:
            packet = build_udp_frame(
                self._segment_len,
                five_tuple,
                src_mac=self.config.src_mac,
                dst_mac=self.config.dst_mac,
            )
        packet.meta["cl_flow"] = conn.flow_id
        packet.meta["cl_seq"] = seq
        if retransmission:
            packet.meta["cl_retx"] = True
        conn.outstanding[seq] = self.node.env.now
        self.segments_sent += 1
        self.node.transmit_segment(packet, retransmission)
        self._arm_timer(conn)

    # ------------------------------------------------------------------ #
    # Delivery (the ACK path)
    # ------------------------------------------------------------------ #

    def on_delivery(self, packet) -> bool:
        """Process one frame back from the network.

        Returns ``True`` when the frame is a *duplicate* delivery of a
        sequence number already delivered once (throughput, not
        goodput) — the caller keeps its goodput counters on that
        verdict, so the split is decided in exactly one place.
        """
        conn = self.flows[packet.meta["cl_flow"]]
        seq = packet.meta["cl_seq"]
        now = self.node.env.now
        sent_ns = conn.outstanding.pop(seq, None)

        if seq < conn.cum or seq in conn.sacked:
            self.duplicate_segments += 1
            return True

        # First delivery of this sequence number.
        self.unique_delivered_segments += 1
        self.unique_delivered_useful_bytes += packet.useful_bytes
        if sent_ns is not None and seq not in conn.retx_seqs:
            self._sample_rtt(conn, now - sent_ns)

        advanced = 0
        if seq == conn.cum:
            conn.cum += 1
            advanced = 1
            while conn.cum in conn.sacked:
                conn.sacked.discard(conn.cum)
                conn.cum += 1
                advanced += 1
        else:
            conn.sacked.add(seq)

        if advanced:
            self._on_cumulative_advance(conn, advanced)
        else:
            self._on_out_of_order(conn)

        if not conn.epoch_done and conn.cum >= conn.transfer_end:
            self._transfer_completed(conn)
        else:
            self._send_allowed(conn)
        self._arm_timer(conn)
        return False

    def _on_cumulative_advance(self, conn: _Connection, acked: int) -> None:
        conn.dup_acks = 0
        if conn.in_recovery:
            if conn.cum >= conn.recovery_point:
                conn.in_recovery = False
                conn.cwnd = max(conn.ssthresh, 1.0)
            elif conn.cum in conn.outstanding and self._active():
                # NewReno partial ACK: the next hole is lost too.
                self._retransmit(conn, conn.cum)
            return
        for _ in range(acked):
            if conn.cwnd < conn.ssthresh:
                conn.cwnd += 1.0
            else:
                conn.cwnd += 1.0 / conn.cwnd
        conn.cwnd = min(conn.cwnd, float(self.model.max_cwnd_segments))

    def _on_out_of_order(self, conn: _Connection) -> None:
        conn.dup_acks += 1
        if (
            conn.dup_acks >= self.model.dupack_threshold
            and not conn.in_recovery
            and conn.cum in conn.outstanding
            and self._active()
        ):
            conn.ssthresh = max(len(conn.outstanding) / 2.0, 2.0)
            conn.cwnd = conn.ssthresh + self.model.dupack_threshold
            conn.in_recovery = True
            conn.recovery_point = conn.next_seq
            self.fast_retransmits += 1
            self._retransmit(conn, conn.cum)

    def _sample_rtt(self, conn: _Connection, sample_ns: float) -> None:
        if conn.srtt_ns is None:
            conn.srtt_ns = float(sample_ns)
            conn.rttvar_ns = sample_ns / 2.0
        else:
            conn.rttvar_ns = 0.75 * conn.rttvar_ns + 0.25 * abs(conn.srtt_ns - sample_ns)
            conn.srtt_ns = 0.875 * conn.srtt_ns + 0.125 * sample_ns
        conn.rto_ns = min(
            max(conn.srtt_ns + 4.0 * conn.rttvar_ns, float(self.model.min_rto_ns)),
            float(self.model.max_rto_ns),
        )

    # ------------------------------------------------------------------ #
    # Retransmission timer
    # ------------------------------------------------------------------ #

    def _arm_timer(self, conn: _Connection) -> None:
        if conn.timer_armed or not conn.outstanding or not self._active():
            return
        deadline = min(conn.outstanding.values()) + int(conn.rto_ns)
        conn.timer_armed = True
        conn.timer_gen += 1
        now = self.node.env.now
        self.node.env.schedule_at(
            max(deadline, now + 1), self._on_timer, (conn, conn.timer_gen)
        )

    def _on_timer(self, timer) -> None:
        """RTO timer *timer* = ``(conn, generation)`` fired; a re-armed
        connection's older generations are stale and do nothing."""
        conn, generation = timer
        if generation != conn.timer_gen:
            return
        conn.timer_armed = False
        if not conn.outstanding or not self._active():
            return
        now = self.node.env.now
        oldest = min(conn.outstanding.values())
        if now - oldest >= conn.rto_ns:
            self._timeout(conn)
        self._arm_timer(conn)

    def _timeout(self, conn: _Connection) -> None:
        seq = min(conn.outstanding)
        conn.ssthresh = max(len(conn.outstanding) / 2.0, 2.0)
        conn.cwnd = 1.0
        conn.dup_acks = 0
        conn.in_recovery = False
        conn.rto_ns = min(conn.rto_ns * 2.0, float(self.model.max_rto_ns))
        self.timeouts += 1
        self._retransmit(conn, seq)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def state_summary(self) -> Dict[str, Any]:
        """Connection-state snapshot for CLI rendering and debugging."""
        cwnds = [conn.cwnd for conn in self.flows]
        rtos = [conn.rto_ns for conn in self.flows]
        srtts = [conn.srtt_ns for conn in self.flows if conn.srtt_ns is not None]
        return {
            "flows": len(self.flows),
            "segments_sent": self.segments_sent,
            "distinct_segments_sent": self.distinct_segments_sent,
            "retransmitted_segments": self.retx_segments,
            "fast_retransmits": self.fast_retransmits,
            "timeouts": self.timeouts,
            "duplicate_deliveries": self.duplicate_segments,
            "epochs_completed": self.epochs_completed,
            "mean_cwnd_segments": sum(cwnds) / len(cwnds),
            "mean_rto_us": sum(rtos) / len(rtos) / 1_000.0,
            "mean_srtt_us": (sum(srtts) / len(srtts) / 1_000.0) if srtts else 0.0,
            "flows_in_flight": sum(1 for conn in self.flows if conn.outstanding),
        }


# ---------------------------------------------------------------------- #
# The workload spec
# ---------------------------------------------------------------------- #


@dataclass
class ClosedLoopWorkload(WorkloadSpec):
    """A named closed-loop workload: a :class:`ClosedLoopFlows` population.

    ``rate_gbps`` is only a *nominal* figure (used to seed PktGen config
    and reports); the actual offered load is emergent — that is the
    point of a closed loop.  Rescaling via ``traffic_model(rate)`` keeps
    the transport untouched for the same reason.
    """

    name: str = "closed-loop"
    description: str = ""
    flows: ClosedLoopFlows = field(default_factory=ClosedLoopFlows)
    rate_gbps: float = 6.0
    burst_size: int = 4
    kind: str = "closed-loop"

    def __post_init__(self) -> None:
        if not isinstance(self.flows, ClosedLoopFlows):
            raise WorkloadSpecError("a closed-loop workload needs ClosedLoopFlows")
        if self.rate_gbps <= 0:
            raise WorkloadSpecError("rate_gbps must be positive")

    # ------------------------------------------------------------------ #
    # WorkloadSpec interface
    # ------------------------------------------------------------------ #

    def nominal_rate_gbps(self) -> float:
        return self.rate_gbps

    def workload(self) -> Workload:
        return Workload(
            name=self.name,
            sizes=FixedSizeDistribution(self.flows.mss_bytes),
            flows=FlowGenerator(flow_count=min(self.flows.flow_count, 4096)),
        )

    def traffic_model(self, rate_gbps: Optional[float] = None) -> TrafficModel:
        model = self.flows

        def transport_factory(config, node) -> ClosedLoopTransport:
            return ClosedLoopTransport(model, config, node)

        return TrafficModel(
            transport_factory=transport_factory,
            rescale=self.traffic_model,
        )

    def describe(self) -> dict:
        info = super().describe()
        info["flows"] = self.flows.label()
        info["transport"] = "closed-loop NewReno (dup-ACK fast retransmit, RTO)"
        info["segments_per_transfer"] = f"{self.flows.segments_per_transfer}"
        info["mss_bytes"] = f"{self.flows.mss_bytes}"
        info["initial_cwnd"] = f"{self.flows.initial_cwnd_segments} segments"
        info["ssthresh"] = f"{self.flows.initial_ssthresh_segments} segments"
        info["min_rto_us"] = f"{self.flows.min_rto_ns / 1_000.0:g}"
        info["epochs"] = (
            "synchronized barrier" if self.flows.sync_epochs else "independent"
        )
        return info
