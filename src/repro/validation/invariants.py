"""Pluggable run invariants: machine-checked correctness conditions.

An :class:`Invariant` inspects one finished deployment run — the wired
topology, the switch program and the computed reports — and emits
structured :class:`Violation` records for anything that can never
legitimately happen in a correct simulation:

* packets must be conserved end to end (every generated frame is either
  delivered back, dropped by an accounted mechanism, or still parked);
* goodput can never exceed offered load;
* latency statistics must be causal (non-negative, ordered, bounded by
  the run horizon) and event time must never flow backwards;
* register/lookup-table state must stay inside its declared bounds; and
* parking slots must not leak (the dataplane counters and the
  control-plane occupancy view must agree).

Invariants run against a :class:`RunObservation` assembled by the
:mod:`repro.validation.engine` observer after the event loop has been
drained, so "in flight" is never an excuse for missing packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.program import PayloadParkProgram
from repro.packet.flows import FiveTuple, flow_hash
from repro.packet.ipv4 import IPv4Address
from repro.telemetry.report import DeploymentReport

#: Relative slack for floating-point rate comparisons.
_RATE_EPS = 1e-9


@dataclass
class Violation:
    """One broken invariant or metamorphic relation, with evidence."""

    check: str
    message: str
    scenario: str = ""
    deployment: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (corpus entries, campaign records)."""
        return {
            "check": self.check,
            "message": self.message,
            "scenario": self.scenario,
            "deployment": self.deployment,
            "details": {key: value for key, value in self.details.items()},
        }

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.check}] {self.scenario}/{self.deployment}: {self.message}"


@dataclass
class RunObservation:
    """Everything an invariant may inspect about one deployment run.

    Built by the validation observer after the run's horizon: the event
    loop has been drained (traffic generation stops at the horizon, so
    the residual events are exactly the packets that were in flight),
    which turns packet conservation into an exact identity.
    """

    scenario: Any  # ScenarioConfig (untyped to avoid an import cycle)
    deployment: str
    topology: Any
    program: Any
    reports: List[DeploymentReport]
    horizon_ns: int
    drained: bool = True
    residual_events: int = 0
    time_violations: int = 0

    @property
    def scenario_name(self) -> str:
        return getattr(self.scenario, "name", str(self.scenario))


class Invariant:
    """Base class: one machine-checked condition over a finished run."""

    name: str = ""

    def check(self, obs: RunObservation) -> List[Violation]:
        """Return violations (empty when the invariant holds)."""
        raise NotImplementedError

    def _violation(self, obs: RunObservation, message: str, **details: Any) -> Violation:
        return Violation(
            check=self.name,
            message=message,
            scenario=obs.scenario_name,
            deployment=obs.deployment,
            details=details,
        )


class PacketConservation(Invariant):
    """Every generated frame is delivered or dropped by an accounted path.

    After the drain:
    ``sent == received + link_buffer_drops + link_fault_drops +
    switch_drops + server_overflow +
    (chain_dropped - explicit_drop_notifications)`` — chain drops that
    produced an Explicit-Drop notification come back to the generator
    and are counted as received.  Link losses are split by mechanism:
    egress-buffer overflows (the organic path) versus injected faults
    (downed links and loss windows, attributed by the fault counters the
    chaos engine maintains), so a fault schedule can never be used to
    explain away an unaccounted loss.

    Per-direction consistency is also asserted: every frame a direction
    accepted must have been delivered once the loop is drained.
    """

    name = "packet-conservation"

    def check(self, obs: RunObservation) -> List[Violation]:
        if not obs.drained:
            # A bounded drain that did not finish leaves genuinely
            # in-flight packets; conservation cannot be asserted exactly.
            return [
                self._violation(
                    obs,
                    f"event loop not drained ({obs.residual_events} residual events); "
                    "conservation unverifiable — raise the drain budget",
                    residual_events=obs.residual_events,
                )
            ]
        topology = obs.topology
        violations: List[Violation] = []
        sent = received = buffer_drops = fault_drops = 0
        overflow = vanished = in_server = 0
        for attachment in topology.attachments:
            sent += attachment.pktgen.packets_sent
            received += attachment.pktgen.packets_received
            for link in [attachment.server_link] + list(attachment.gen_links):
                buffer_drops += link.buffer_drops()
                fault_drops += link.fault_drops()
                for stats in link.direction_counters():
                    if stats.frames_sent != stats.frames_delivered:
                        violations.append(
                            self._violation(
                                obs,
                                f"link {link.name!r}: {stats.frames_sent} frames "
                                f"accepted but {stats.frames_delivered} delivered "
                                "after the drain",
                                link=link.name,
                                frames_sent=stats.frames_sent,
                                frames_delivered=stats.frames_delivered,
                            )
                        )
            overflow += attachment.server.overflow_drops
            vanished += (
                attachment.server.chain_dropped_packets
                - attachment.server.explicit_drop_notifications
            )
            in_server += attachment.server.queue_occupancy
        switch_drops = topology.switch.packets_dropped
        accounted = (
            received + buffer_drops + fault_drops + switch_drops
            + overflow + vanished + in_server
        )
        if sent != accounted:
            violations.append(
                self._violation(
                    obs,
                    f"{sent} packets sent but {accounted} accounted for "
                    f"(delta {sent - accounted})",
                    sent=sent,
                    received=received,
                    link_buffer_drops=buffer_drops,
                    link_fault_drops=fault_drops,
                    switch_drops=switch_drops,
                    server_overflow=overflow,
                    chain_vanished=vanished,
                    in_server=in_server,
                )
            )
        return violations


class GoodputBound(Invariant):
    """Goodput can never exceed offered load.

    Checked on exact whole-run byte/packet counters (always valid) and,
    for constant-rate scenarios, on the measurement-window rates in the
    reports (schedules and replay streams legitimately deliver a
    warm-up backlog during low-rate windows, so they are exempt from
    the window-level check).
    """

    name = "goodput-bound"

    #: Window-rate slack: service jitter lets a queue built in the
    #: warm-up drain inside the window, slightly exceeding offered load.
    WINDOW_SLACK = 0.02

    def check(self, obs: RunObservation) -> List[Violation]:
        violations: List[Violation] = []
        for attachment in obs.topology.attachments:
            gen = attachment.pktgen
            if gen.packets_received > gen.packets_sent:
                violations.append(
                    self._violation(
                        obs,
                        f"{gen.name}: received {gen.packets_received} packets "
                        f"but only {gen.packets_sent} were sent",
                        packets_sent=gen.packets_sent,
                        packets_received=gen.packets_received,
                    )
                )
            if gen.useful_bytes_received > gen.bytes_sent:
                violations.append(
                    self._violation(
                        obs,
                        f"{gen.name}: useful bytes received "
                        f"({gen.useful_bytes_received}) exceed bytes sent "
                        f"({gen.bytes_sent})",
                        bytes_sent=gen.bytes_sent,
                        useful_bytes_received=gen.useful_bytes_received,
                    )
                )
        traffic_model = getattr(obs.scenario, "traffic_model", None)
        # Closed-loop transports are exempt from the window-level check
        # too: their offered load is emergent (ACK-clocked), so a window
        # can legitimately drain a backlog built before it opened.
        constant_rate = traffic_model is None or (
            traffic_model.schedule is None
            and traffic_model.stream_factory is None
            and getattr(traffic_model, "transport_factory", None) is None
        )
        for report in obs.reports:
            if not 0.0 <= report.drop_rate <= 1.0:
                violations.append(
                    self._violation(
                        obs,
                        f"drop rate {report.drop_rate} outside [0, 1]",
                        drop_rate=report.drop_rate,
                    )
                )
            if constant_rate and report.delivered_goodput_gbps > (
                report.offered_gbps * (1.0 + self.WINDOW_SLACK) + 0.01
            ):
                violations.append(
                    self._violation(
                        obs,
                        f"delivered goodput {report.delivered_goodput_gbps:.4f} Gbps "
                        f"exceeds offered load {report.offered_gbps:.4f} Gbps",
                        delivered_goodput_gbps=report.delivered_goodput_gbps,
                        offered_gbps=report.offered_gbps,
                    )
                )
        return violations


class RetransmitAccounting(Invariant):
    """Retransmitted bytes reconcile throughput against goodput exactly.

    Once a closed-loop transport retransmits, "delivered" splits into
    goodput (the first copy of each sequence number) and duplicates
    (later copies of the same data).  This invariant pins the split with
    exact counter identities between the generator node and its
    transport engine, checked after the drain:

    * every frame on the wire is a first transmission or a counted
      retransmission (``packets_sent == distinct + retransmitted``);
    * the node and the transport count the same retransmissions, and
      the same retransmitted wire bytes;
    * every delivery is a counted unique or a counted duplicate
      (``packets_received == unique + duplicate``);
    * goodput bytes equal the unique deliveries' useful bytes — the
      identity that catches a duplicate double-counted into goodput;
    * no more unique sequence numbers delivered than were ever sent.

    Open-loop runs assert the degenerate form: both retransmission
    counters must be exactly zero.
    """

    name = "retransmit-accounting"

    def check(self, obs: RunObservation) -> List[Violation]:
        violations: List[Violation] = []
        for attachment in obs.topology.attachments:
            gen = attachment.pktgen
            transport = getattr(gen, "transport", None)
            if transport is None:
                for counter in ("retransmitted_packets", "duplicate_packets_received"):
                    value = getattr(gen, counter, 0)
                    if value:
                        violations.append(
                            self._violation(
                                obs,
                                f"{gen.name}: open-loop generator reports "
                                f"{counter} = {value} (must be 0)",
                                counter=counter,
                                value=value,
                            )
                        )
                continue
            identities = [
                ("wire frames vs transport sends",
                 gen.packets_sent, transport.segments_sent),
                ("sends split into first+retx",
                 transport.segments_sent,
                 transport.distinct_segments_sent + transport.retx_segments),
                ("node vs transport retransmit count",
                 gen.retransmitted_packets, transport.retx_segments),
                ("node vs transport retransmit bytes",
                 gen.retransmitted_bytes, transport.retx_bytes),
                ("deliveries split into unique+duplicate",
                 gen.packets_received,
                 transport.unique_delivered_segments + transport.duplicate_segments),
                ("node vs transport duplicate count",
                 gen.duplicate_packets_received, transport.duplicate_segments),
                ("goodput bytes vs unique deliveries",
                 gen.useful_bytes_received,
                 transport.unique_delivered_useful_bytes),
            ]
            for label, left, right in identities:
                if left != right:
                    violations.append(
                        self._violation(
                            obs,
                            f"{gen.name}: {label}: {left} != {right} "
                            f"(delta {left - right})",
                            identity=label,
                            left=left,
                            right=right,
                        )
                    )
            if transport.unique_delivered_segments > transport.distinct_segments_sent:
                violations.append(
                    self._violation(
                        obs,
                        f"{gen.name}: {transport.unique_delivered_segments} unique "
                        f"sequence numbers delivered but only "
                        f"{transport.distinct_segments_sent} were ever sent",
                        unique_delivered=transport.unique_delivered_segments,
                        distinct_sent=transport.distinct_segments_sent,
                    )
                )
        return violations


class LatencyCausality(Invariant):
    """Latency statistics must be causal and event time monotonic."""

    name = "latency-causality"

    def check(self, obs: RunObservation) -> List[Violation]:
        violations: List[Violation] = []
        if obs.time_violations:
            violations.append(
                self._violation(
                    obs,
                    f"event time moved backwards {obs.time_violations} time(s)",
                    time_violations=obs.time_violations,
                )
            )
        horizon_us = obs.horizon_ns / 1_000.0
        for report in obs.reports:
            stats = {
                "avg": report.avg_latency_us,
                "p99": report.p99_latency_us,
                "max": report.max_latency_us,
                "jitter": report.jitter_us,
            }
            if any(value < 0 for value in stats.values()):
                violations.append(
                    self._violation(obs, f"negative latency statistic: {stats}", **stats)
                )
                continue
            # Nearest-rank p99 and the mean are both bounded by the max.
            if report.avg_latency_us > report.max_latency_us * (1 + _RATE_EPS) + 1e-9:
                violations.append(
                    self._violation(
                        obs,
                        f"mean latency {report.avg_latency_us:.3f} us exceeds "
                        f"max {report.max_latency_us:.3f} us",
                        **stats,
                    )
                )
            if report.p99_latency_us > report.max_latency_us * (1 + _RATE_EPS) + 1e-9:
                violations.append(
                    self._violation(
                        obs,
                        f"p99 latency {report.p99_latency_us:.3f} us exceeds "
                        f"max {report.max_latency_us:.3f} us",
                        **stats,
                    )
                )
            if report.max_latency_us > horizon_us:
                violations.append(
                    self._violation(
                        obs,
                        f"max latency {report.max_latency_us:.3f} us exceeds the "
                        f"run horizon {horizon_us:.3f} us (acausal sample)",
                        max_latency_us=report.max_latency_us,
                        horizon_us=horizon_us,
                    )
                )
        return violations


class RegisterBounds(Invariant):
    """Lookup tables and switch resources stay inside their declared bounds."""

    name = "register-bounds"

    def check(self, obs: RunObservation) -> List[Violation]:
        violations: List[Violation] = []
        program = obs.program
        if isinstance(program, PayloadParkProgram):
            for name, table in program.lookup_tables.items():
                occupied = table.occupancy()
                if not 0 <= occupied <= table.entries:
                    violations.append(
                        self._violation(
                            obs,
                            f"lookup table {name!r}: occupancy {occupied} outside "
                            f"[0, {table.entries}]",
                            binding=name,
                            occupied=occupied,
                            entries=table.entries,
                        )
                    )
        for pipe_index in range(len(program.asic.pipes)):
            report = program.resource_report(pipe_index)
            for metric in ("sram_peak_percent", "tcam_percent", "vliw_percent",
                           "phv_percent"):
                value = getattr(report, metric)
                if value > 100.0 + _RATE_EPS:
                    violations.append(
                        self._violation(
                            obs,
                            f"pipe {pipe_index}: {metric} = {value:.2f}% exceeds "
                            "the hardware budget",
                            pipe=pipe_index,
                            metric=metric,
                            value=value,
                        )
                    )
        return violations


class ParkingSlotLeak(Invariant):
    """Parked payloads are merged, dropped or evicted — never leaked.

    After the drain, the dataplane counters' outstanding-payload
    arithmetic (``splits - merges - explicit_drops - evictions``) must
    equal the control plane's occupied-slot count for every binding.  A
    mismatch means a slot was freed without accounting (tag leak) or a
    payload overwritten without an eviction (slot leak).
    """

    name = "parking-slot-leak"

    def check(self, obs: RunObservation) -> List[Violation]:
        program = obs.program
        if not isinstance(program, PayloadParkProgram):
            return []
        if not obs.drained:
            return []
        violations: List[Violation] = []
        for name, table in program.lookup_tables.items():
            counters = program.counters_for(name)
            outstanding = counters.outstanding_payloads
            occupied = table.occupancy()
            if outstanding != occupied:
                violations.append(
                    self._violation(
                        obs,
                        f"binding {name!r}: counters say {outstanding} payloads "
                        f"outstanding but {occupied} slots are occupied",
                        binding=name,
                        outstanding=outstanding,
                        occupied=occupied,
                        counters=counters.as_dict(),
                    )
                )
        return violations


class NoOrphanedPayload(Invariant):
    """Churn may drain parking slots, but never orphan a payload.

    Two ways a churn event can orphan a payload, both checked after the
    drain:

    * **vanished payload** — a metadata slot still *occupied* whose
      payload blocks are all empty: the owner's bytes disappeared while
      the slot claims to hold them (a drain that cleared registers but
      forgot the metadata, or vice versa).  The reverse state — stale
      bytes under a *free* slot — is legitimate dataplane residue: an
      Explicit Drop reclaims the metadata slot without spending stateful
      accesses on registers the next claim overwrites anyway.
    * **unaccounted drain** — a fault-injection ``park_drain`` freed
      slots without recording them as evictions, silently shrinking the
      ``splits - merges - explicit_drops - evictions`` identity (the
      packet whose payload was drained would then fail the Merge with
      nobody owning the loss).

    The first check scans every slot of every binding's table; the
    second compares the injector's drained-slot counts against the
    dataplane eviction counters.
    """

    name = "no-orphaned-payload"

    def check(self, obs: RunObservation) -> List[Violation]:
        program = obs.program
        if not isinstance(program, PayloadParkProgram) or not obs.drained:
            return []
        violations: List[Violation] = []
        for name, table in program.lookup_tables.items():
            for index in range(table.entries):
                if not table.peek_metadata(index).occupied:
                    continue
                if not any(array.peek(index) for array in table.block_arrays):
                    violations.append(
                        self._violation(
                            obs,
                            f"binding {name!r} slot {index}: metadata says occupied "
                            "but every payload block is empty (payload vanished "
                            "under its owner)",
                            binding=name,
                            slot=index,
                        )
                    )
        injector = getattr(obs.topology, "fault_injector", None)
        if injector is not None:
            for name, drained in getattr(injector, "slots_drained", {}).items():
                evictions = program.counters_for(name).evictions
                if evictions < drained:
                    violations.append(
                        self._violation(
                            obs,
                            f"binding {name!r}: control plane drained {drained} "
                            f"slot(s) but only {evictions} eviction(s) were "
                            "accounted",
                            binding=name,
                            slots_drained=drained,
                            evictions=evictions,
                        )
                    )
        return violations


def _flow_name(key) -> str:
    """A Maglev memo key (five plain ints) as a readable flow."""
    return str(FiveTuple(IPv4Address(key[0]), IPv4Address(key[1]), *key[2:]))


class NfStateConsistency(Invariant):
    """Fast-path NF state must agree with the NFs' live configuration.

    Control-plane churn (backend drains, rule bursts) invalidates the
    Maglev per-flow memo and the firewall's compiled classifier; a
    missed invalidation silently pins flows to removed backends or keeps
    classifying against a rule list that no longer exists.  After the
    run, every cached Maglev entry must map to a backend still in the
    pool *and* match a fresh walk of the current lookup table, and a
    firewall's live classifier must equal a fresh compile of its current
    rule list.  (This is the invariant that catches a `remove_backend`
    that forgets to drop the flow cache, or an `add_rule` that skips
    `_invalidate`.)
    """

    name = "nf-state-consistency"

    #: Bound on re-derived Maglev memo entries per NF (cost control).
    SAMPLE = 512

    def check(self, obs: RunObservation) -> List[Violation]:
        violations: List[Violation] = []
        for attachment in obs.topology.attachments:
            for nf in attachment.server.model.chain:
                violations.extend(self._check_maglev(obs, nf))
                violations.extend(self._check_firewall(obs, nf))
        return violations

    def _check_maglev(self, obs: RunObservation, nf) -> List[Violation]:
        cache = getattr(nf, "_backend_cache", None)
        if not cache or not hasattr(nf, "lookup_table"):
            return []
        current = {id(backend) for backend in nf.backends}
        violations: List[Violation] = []
        for key, backend in list(cache.items())[: self.SAMPLE]:
            if id(backend) not in current:
                violations.append(
                    self._violation(
                        obs,
                        f"{nf.name}: cached flow {_flow_name(key)} is pinned to backend "
                        f"{backend.name!r}, which left the pool (stale cache "
                        "after churn)",
                        nf=nf.name,
                        backend=backend.name,
                    )
                )
                continue
            fresh = nf.backends[nf.lookup_table[flow_hash(key) % nf.table_size]]
            if fresh is not backend:
                violations.append(
                    self._violation(
                        obs,
                        f"{nf.name}: cached flow {_flow_name(key)} maps to {backend.name!r} "
                        f"but the current Maglev table chooses {fresh.name!r}",
                        nf=nf.name,
                        cached=backend.name,
                        fresh=fresh.name,
                    )
                )
        return violations

    def _check_firewall(self, obs: RunObservation, nf) -> List[Violation]:
        live = getattr(nf, "_classifier", None)
        if live is None or live == nf._compile():
            return []
        return [
            self._violation(
                obs,
                f"{nf.name}: the live classifier was compiled from "
                f"{len(live[1]) - 1} rule(s) and no longer equals a fresh "
                f"compile of the current {len(nf.rules)}-rule ACL (stale "
                "classifier after rule churn)",
                nf=nf.name,
                compiled_rules=len(live[1]) - 1,
                rules=len(nf.rules),
            )
        ]


#: The invariants every validated run checks unless overridden.
DEFAULT_INVARIANTS = (
    PacketConservation(),
    GoodputBound(),
    RetransmitAccounting(),
    LatencyCausality(),
    RegisterBounds(),
    ParkingSlotLeak(),
    NoOrphanedPayload(),
    NfStateConsistency(),
)
