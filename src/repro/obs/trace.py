"""The flight recorder: sampled packet-lifecycle spans and fault windows.

The recorder follows every N-th packet each traffic generator emits
(deterministic 1-in-N sampling decided at generation time, so the fast
and reference simulation paths sample the *same* packets) through its
whole life: generate → park → evict/merge/drain → NF chain →
deliver/drop.  Park events open a span keyed by ``(binding, slot)``
that the matching evict/merge/drain closes, which is how a
parked-then-evicted payload becomes one visible span in the export.

The recorder attaches from outside the engine, as the phase profiler
does: :data:`EVENTS` maps each trace event to the seams it is read
from, and :meth:`FlightRecorder.wrap` wraps those seams on the run's
instances.  A sampled packet carries its id in
``packet.meta["obs_pkt"]``, set where the generator hands it to a link.

Two export formats:

* JSONL (``repro.trace/v1``): a header line followed by one
  sorted-key JSON record per line — byte-identical for identical
  simulations, which the determinism suite pins.
* Chrome trace-event JSON: loadable in ``chrome://tracing`` / Perfetto.
  Packet lifetimes, park spans and fault windows render as complete
  ("X") events on separate tracks; point events render as instants.

Timestamps are simulated nanoseconds (microseconds in the Chrome
export, per that format's convention).
"""

from __future__ import annotations

import json
from functools import partial
from operator import attrgetter, ne
from typing import Any, Callable, Dict, List, Optional, Tuple

#: JSONL schema identifier; bump on incompatible layout changes.
TRACE_SCHEMA = "repro.trace/v1"

#: Trace event -> the seams it is read from, as ``(role, method)`` pairs
#: (roles as in :func:`~repro.obs.plane.seam_owners`).  A generator's
#: link samples the frames the generator offers it; the program's
#: ``process`` tells Split and Merge outcomes from the binding's counter
#: deltas across the call, the PayloadPark header before and after it,
#: and the decision it returns; ``drain_parked`` returns the slots it
#: drained; drops are counter deltas, or the decision's drop reason.
_PROCESS = ("program", "process")
EVENTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "generate": (("link", "transmit"),),
    "drop": (("link", "transmit"), _PROCESS, ("server", "handle_packet"),
             ("server", "_on_complete")),
    **dict.fromkeys(
        ("park", "evict", "merge", "premature_eviction", "explicit_drop"), (_PROCESS,)
    ),
    "drain": (("payloadpark", "drain_parked"),),
    "nf_process": (("server", "_on_complete"),),
    "deliver": (("pktgen", "handle_packet"),),
    "fault": (("fault_injector", "_apply"),),
}

#: A link direction's drop counters, and the reason each one records.
_LINK_DROPS = attrgetter("frames_dropped_down", "frames_dropped_loss", "frames_dropped")
_LINK_DROP_REASONS = ("link-down", "link-loss", "link-buffer-overflow")
#: A binding's counters that tell what one switch pass did to a slot.
_SLOT_COUNTS = attrgetter(
    "evictions", "splits", "premature_evictions", "explicit_drops", "merges"
)

#: Chrome trace track (tid) assignments.
_TID_PACKETS = 1
_TID_SLOTS = 2
_TID_FAULTS = 3


class FlightRecorder:
    """Collects sampled lifecycle events during one deployment run."""

    def __init__(self, sample_every: int = 1, max_events: int = 200_000) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >=1, got {sample_every}")
        if max_events < 1:
            raise ValueError(f"max_events must be >=1, got {max_events}")
        self.sample_every = sample_every
        self.max_events = max_events
        #: Simulation clock bound by the plane: it stamps every record.
        self._clock = None
        #: Flat record list in execution order (events, closed spans, faults).
        self.records: List[Dict[str, Any]] = []
        #: Records rejected by the ``max_events`` cap (never silent).
        self.dropped_records = 0
        #: Open park spans: (binding, slot) -> (pkt_id, clk, start_ns).
        self._open_parks: Dict[Tuple[str, int], Tuple[str, int, int]] = {}
        self.spans_closed = 0
        #: Generator (None: a link no generator sends on) -> its
        #: emission index, shared by its links' wrappers.
        self._emitted: Dict[Any, List[int]] = {}

    # ------------------------------------------------------------------ #
    # Seams
    # ------------------------------------------------------------------ #

    def wrap(self, patches: Any, owners: Dict[str, Tuple[Any, ...]]) -> None:
        """Record every seam of :data:`EVENTS` on *owners* until *patches*
        are restored; ``_trace_<role>_<method>`` builds a seam's wrapper."""
        for role, name in dict.fromkeys(s for seams in EVENTS.values() for s in seams):
            trace = getattr(self, f"_trace_{role}_{name.strip('_')}")
            for owner in owners[role]:
                patches.patch(owner, name, partial(trace, owners, owner))

    def _trace_link_transmit(self, owners: Dict, link: Any, transmit: Callable) -> Callable:
        """Drops from the sender's direction counters.  On a generator's
        link, also the generator's 1-in-N sample: its emission index
        counts the frames it offers all its links, so the fast and
        reference paths follow identical packets."""
        directions = {
            link.node_a: (link.direction_stats(link.node_a), f"{link.name}[a->b]"),
            link.node_b: (link.direction_stats(link.node_b), f"{link.name}[b->a]"),
        }
        pktgen, port = next(
            ((gen, p) for gen in owners["pktgen"] for p, gen_link in gen.links.items()
             if gen_link is link),
            (None, None),
        )
        emitted = self._emitted.setdefault(pktgen, [0])

        def traced(packet, sender) -> None:
            meta = packet.meta
            if sender is pktgen:
                emitted[0] += 1
                if emitted[0] % self.sample_every == 0:
                    pkt_id = meta["obs_pkt"] = f"{pktgen.name}#{emitted[0]}"
                    self.event("generate", pkt_id, port=port, bytes=packet.wire_length)
            pkt_id, direction = meta.get("obs_pkt"), directions.get(sender)
            if pkt_id is None or direction is None:
                return transmit(packet, sender)
            stats, where = direction
            before = _LINK_DROPS(stats)
            transmit(packet, sender)
            after = _LINK_DROPS(stats)
            if after != before:  # one frame, one drop counter at most
                reason = _LINK_DROP_REASONS[[*map(ne, after, before)].index(True)]
                self.event("drop", pkt_id, where=where, reason=reason)
            return None

        return traced

    def _trace_program_process(self, owners: Dict, program: Any, process: Callable) -> Callable:
        """Slot events from the binding's counters around one switch
        pass, and a switch drop from the decision's reason."""
        (switch,), parking = owners["switch"], getattr(program, "lookup_tables", ())
        paths = {
            port: (binding.name, program.counters_for(binding.name))
            for binding in program.bindings if binding.name in parking
            for port in (*binding.ingress_ports, binding.nf_port)
        }

        def traced(packet, ingress_port):
            pkt_id, path = packet.meta.get("obs_pkt"), paths.get(ingress_port)
            if path is None:
                decision = process(packet, ingress_port)
            else:
                name, counters = path
                header, before = packet.pp, _SLOT_COUNTS(counters)
                decision = process(packet, ingress_port)
                evicted, parked, premature, explicit, merged = map(
                    ne, _SLOT_COUNTS(counters), before
                )
                if evicted:
                    self.slot_closed(name, packet.pp.tbl_idx, "evicted")
                if parked:
                    self.payload_parked(name, packet.pp.tbl_idx, packet.pp.clk, pkt_id)
                elif premature:
                    self.event("premature_eviction", pkt_id, binding=name, slot=header.tbl_idx)
                elif explicit or merged:
                    outcome = "explicit-drop" if explicit else "merged"
                    self.slot_closed(name, header.tbl_idx, outcome)
            if pkt_id is not None and decision[2] is not None:
                self.event("drop", pkt_id, where=switch.name, reason=decision[2])
            return decision

        return traced

    def _trace_payloadpark_drain_parked(self, owners, program, drain_parked) -> Callable:
        def traced(*args, **kwargs):
            drained = drain_parked(*args, **kwargs)
            for name, indices in drained.items():
                for index in indices:
                    self.slot_closed(name, index, "drained")
            return drained

        return traced

    def _trace_server_handle_packet(self, owners, server, handle_packet) -> Callable:
        def traced(packet, port) -> None:
            overflows = server.overflow_drops
            handle_packet(packet, port)
            pkt_id = packet.meta.get("obs_pkt")
            if pkt_id is not None and server.overflow_drops != overflows:
                self.event(
                    "drop", pkt_id, where=server.name, reason="server-buffer-overflow"
                )

        return traced

    def _trace_server_on_complete(self, owners, server, complete) -> Callable:
        def traced(packet) -> None:
            chain_drops = server.chain_dropped_packets
            complete(packet)
            pkt_id = packet.meta.get("obs_pkt")
            if pkt_id is not None:
                forwarded = server.chain_dropped_packets == chain_drops
                self.event("nf_process", pkt_id, server=server.name, forwarded=forwarded)
                if not forwarded:
                    self.event("drop", pkt_id, where=server.name, reason="nf-chain-drop")

        return traced

    def _trace_pktgen_handle_packet(self, owners, pktgen, handle_packet) -> Callable:
        def traced(packet, port) -> None:
            handle_packet(packet, port)
            pkt_id, tx_ns = packet.meta.get("obs_pkt"), packet.meta.get("tx_ns")
            if pkt_id is not None:
                latency_ns = None if tx_ns is None else self.now() - tx_ns
                self.event("deliver", pkt_id, latency_ns=latency_ns)

        return traced

    def _trace_fault_injector_apply(self, owners, injector, apply) -> Callable:
        def traced(event) -> None:
            apply(event)
            self.fault_applied(event.kind, event.duration_ns, event.params)

        return traced

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def bind_clock(self, env: Any) -> None:
        """Attach the event loop whose ``now`` stamps the records."""
        self._clock = env

    def now(self) -> int:
        """Current simulated time (0 before a clock is bound)."""
        return self._clock.now if self._clock is not None else 0

    def _append(self, record: Dict[str, Any]) -> None:
        if len(self.records) >= self.max_events:
            self.dropped_records += 1
            return
        self.records.append(record)

    def event(self, ev: str, pkt_id: Optional[str], **fields: Any) -> None:
        """Record packet event *ev* (``generate``, ``deliver``, ``drop``, ...) now."""
        self._append({"type": "event", "ev": ev, "ts": self.now(), "pkt": pkt_id, **fields})

    def payload_parked(
        self, binding: str, slot: int, clk: int, pkt_id: Optional[str]
    ) -> None:
        """Open a park span (sampled packets only: ``pkt_id`` may be None)."""
        if pkt_id is None:
            return
        t_ns = self.now()
        self._open_parks[(binding, slot)] = (pkt_id, clk, t_ns)
        self._append(
            {"type": "event", "ev": "park", "ts": t_ns, "pkt": pkt_id,
             "binding": binding, "slot": slot, "clk": clk}
        )

    def slot_closed(self, binding: str, slot: int, outcome: str) -> None:
        """Close the slot's park span, if one is open, with *outcome*."""
        opened = self._open_parks.pop((binding, slot), None)
        if opened is None:
            return
        pkt_id, clk, start_ns = opened
        self.spans_closed += 1
        self._append(
            {"type": "span", "span": "park", "binding": binding, "slot": slot,
             "clk": clk, "pkt": pkt_id, "start_ns": start_ns, "end_ns": self.now(),
             "outcome": outcome}
        )

    def fault_applied(self, kind: str, duration_ns: int, params: Dict[str, Any]) -> None:
        """Annotate the trace with a fault window (or instant event)."""
        clean = {
            key: value
            for key, value in params.items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
        self._append(
            {"type": "fault", "kind": kind, "ts": self.now(),
             "duration_ns": duration_ns, "params": clean}
        )

    # ------------------------------------------------------------------ #
    # Finalization / export
    # ------------------------------------------------------------------ #

    def finalize(self) -> None:
        """Close every still-open park span with the ``open`` outcome."""
        for (binding, slot) in sorted(self._open_parks):
            self.slot_closed(binding, slot, "open")

    def _summary_record(self) -> Dict[str, Any]:
        return {
            "type": "summary",
            "records": len(self.records),
            "spans_closed": self.spans_closed,
            "dropped_records": self.dropped_records,
        }

    def to_jsonl(self) -> str:
        """Byte-deterministic JSONL export (header + records + summary)."""
        dumps = json.dumps
        header = {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "sample_every": self.sample_every,
            "max_events": self.max_events,
        }
        lines = [dumps(header, sort_keys=True, separators=(",", ":"))]
        for record in self.records:
            lines.append(dumps(record, sort_keys=True, separators=(",", ":")))
        lines.append(
            dumps(self._summary_record(), sort_keys=True, separators=(",", ":"))
        )
        return "\n".join(lines) + "\n"

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event export (``chrome://tracing`` / Perfetto)."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "repro-sim"}},
            {"ph": "M", "pid": 1, "tid": _TID_PACKETS, "name": "thread_name",
             "args": {"name": "packets"}},
            {"ph": "M", "pid": 1, "tid": _TID_SLOTS, "name": "thread_name",
             "args": {"name": "parked-payload-slots"}},
            {"ph": "M", "pid": 1, "tid": _TID_FAULTS, "name": "thread_name",
             "args": {"name": "fault-windows"}},
        ]
        # Derive one lifetime span per sampled packet: generate -> last
        # terminal event (deliver or drop); packets still in flight at
        # the end of the run render as instants only.
        born: Dict[str, int] = {}
        ended: Dict[str, Tuple[int, str]] = {}
        for record in self.records:
            if record["type"] == "event":
                pkt = record.get("pkt")
                ev = record["ev"]
                if pkt is None:
                    continue
                if ev == "generate":
                    born[pkt] = record["ts"]
                elif ev in ("deliver", "drop"):
                    ended[pkt] = (record["ts"], ev)
        for pkt, start_ns in born.items():
            end = ended.get(pkt)
            if end is None:
                continue
            end_ns, outcome = end
            events.append(
                {"ph": "X", "pid": 1, "tid": _TID_PACKETS,
                 "name": f"pkt:{outcome}", "cat": "packet",
                 "ts": start_ns / 1_000.0, "dur": max(end_ns - start_ns, 0) / 1_000.0,
                 "args": {"pkt": pkt}}
            )
        for record in self.records:
            kind = record["type"]
            if kind == "span":
                events.append(
                    {"ph": "X", "pid": 1, "tid": _TID_SLOTS,
                     "name": f"park[{record['binding']}/{record['slot']}]:{record['outcome']}",
                     "cat": "payloadpark",
                     "ts": record["start_ns"] / 1_000.0,
                     "dur": max(record["end_ns"] - record["start_ns"], 0) / 1_000.0,
                     "args": {"pkt": record["pkt"], "clk": record["clk"],
                              "outcome": record["outcome"]}}
                )
            elif kind == "fault":
                events.append(
                    {"ph": "X", "pid": 1, "tid": _TID_FAULTS,
                     "name": f"fault:{record['kind']}", "cat": "fault",
                     "ts": record["ts"] / 1_000.0,
                     "dur": max(record["duration_ns"], 1) / 1_000.0,
                     "args": dict(record["params"])}
                )
            elif kind == "event" and record["ev"] != "generate":
                events.append(
                    {"ph": "i", "pid": 1, "tid": _TID_PACKETS,
                     "name": record["ev"], "cat": "packet", "s": "t",
                     "ts": record["ts"] / 1_000.0,
                     "args": {key: value for key, value in record.items()
                              if key not in ("type", "ev", "ts")}}
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": self._summary_record(),
        }
