"""Outside-in span tracing for the perf ledger's traced pass.

Spans are recorded from this directory only: the recorder swaps
class-level wrappers around the public methods that mark each layer's
boundary, keeps every span (name, start, end, parent) in memory, and
restores the original methods afterwards.  Nothing under ``src/``
knows about it, and the end-to-end rounds never run with wrappers
installed.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the self times of one round add up to the round's top
level spans — the event-loop span (``BaseTopology.run_until``) keeps
whatever no other wrapper claims: dispatch plus the scheduled
callbacks that are not public layer boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core.program import SwitchProgram
from repro.experiments.runner import ExperimentRunner, RunObserver
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.topology import BaseTopology
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.nf.server import NfServerModel
from repro.orchestrator.executor import CampaignExecutor
from repro.orchestrator.store import ResultStore
from repro.traffic.pktgen import PacketFactory
from repro.validation.engine import ValidationObserver
from repro.workloads.generative import GenerativePacketSource
from repro.workloads.transport import ClosedLoopTransport

#: Span name -> the public methods whose calls open a span of that name.
ENGINE_SPANS: Dict[str, Tuple[Tuple[type, str], ...]] = {
    "netsim.eventloop": ((BaseTopology, "run_until"),),
    "netsim.switch_node": ((SwitchNode, "handle_packet"),),
    "core.program": ((SwitchProgram, "process"),),
    "netsim.server_node": ((NfServerNode, "handle_packet"),),
    "nf.process_packet": ((NfServerModel, "process_packet"),),
    "netsim.link": ((Link, "transmit"),),
    "netsim.trafficgen": ((TrafficGenNode, "handle_packet"),),
    "traffic.source": (
        (PacketFactory, "next_packet"),
        (GenerativePacketSource, "next_packet"),
    ),
    "workloads.transport": ((ClosedLoopTransport, "on_delivery"),),
    "runner.run_deployment": ((ExperimentRunner, "run_deployment"),),
}

ORCHESTRATOR_SPANS: Dict[str, Tuple[Tuple[type, str], ...]] = {
    "orchestrator.campaign": ((CampaignExecutor, "run_campaign"),),
    "orchestrator.store.append": ((ResultStore, "append"),),
    "orchestrator.store.refresh": ((ResultStore, "refresh"),),
}

#: Spans :class:`TraceObserver` records itself, inside the run's span.
SETUP_SPAN = "runner.setup"
VALIDATION_SPAN = "validation.check"


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = [-1]
        #: While true the wrappers pass calls straight through, so work
        #: done on behalf of the harness (the validation drain) is one
        #: leaf span instead of thousands of engine spans.
        self.paused = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> None:
        """Open a span the caller closes with :meth:`close`."""
        self.name_of.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(len(self.starts))
        self.starts.append(time.perf_counter())

    def close(self) -> None:
        """Close the innermost open span."""
        self.ends[self._stack.pop()] = time.perf_counter()

    def close_head(self, name: str) -> None:
        """Record *name* as a child of the innermost open span, covering
        that span from its start until now."""
        parent = self._stack[-1]
        self.name_of.append(self._name_id(name))
        self.parents.append(parent)
        self.starts.append(self.starts[parent])
        self.ends.append(time.perf_counter())

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        name_of, starts, ends = self.name_of, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self, spans: Dict[str, Tuple[Tuple[type, str], ...]]) -> Iterator[None]:
        """Swap the wrappers for *spans* in, and the originals back out."""
        originals = []
        try:
            for name, targets in spans.items():
                for cls, attr in targets:
                    original = cls.__dict__[attr]
                    originals.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
            yield
        finally:
            for cls, attr, original in reversed(originals):
                setattr(cls, attr, original)

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        count = len(self.starts)
        covered = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        table = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(count):
            row = table[self.names[self.name_of[index]]]
            duration = self.ends[index] - self.starts[index]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[index]
        return table

    def dump(self, path, header: Dict[str, object]) -> None:
        """Write every span once, as columns, with times relative to the first."""
        origin = self.starts[0] if self.starts else 0.0
        payload = dict(header)
        payload["names"] = self.names
        payload["spans"] = {
            "name": list(self.name_of),
            "start": [round(value - origin, 9) for value in self.starts],
            "end": [round(value - origin, 9) for value in self.ends],
            "parent": list(self.parents),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class TraceObserver(RunObserver):
    """Records the set-up span, reads layer counters, runs the invariants.

    The counters are read through the public surfaces the reports are
    built from, at the run's horizon and before the validation drain
    executes more events.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.validator = ValidationObserver()
        self.events_executed = 0
        self.link_frames_dropped = 0
        self.retransmits = 0
        self.rto_timeouts = 0

    def on_run_start(self, scenario, deployment, topology, program) -> None:
        self.recorder.close_head(SETUP_SPAN)  # run_deployment entry until here
        self.validator.on_run_start(scenario, deployment, topology, program)

    def on_run_end(self, scenario, deployment, topology, program, reports) -> None:
        self.events_executed += topology.env.events_executed
        for attachment in topology.attachments:
            for link in (*attachment.gen_links, attachment.server_link):
                self.link_frames_dropped += link.total_drops()
            transport = attachment.pktgen.transport
            if transport is not None:
                summary = transport.state_summary()
                self.retransmits += summary["retransmitted_segments"]
                self.rto_timeouts += summary["timeouts"]
        self.recorder.open(VALIDATION_SPAN)
        self.recorder.paused = True
        try:
            self.validator.on_run_end(scenario, deployment, topology, program, reports)
        finally:
            self.recorder.paused = False
            self.recorder.close()
