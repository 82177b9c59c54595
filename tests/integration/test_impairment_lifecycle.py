"""Link impairments open and close mid-run; both engines agree throughout.

``Link.transmit`` runs its down, loss, jitter, arrival-clamp and
profiler branches only while a direction's ``impaired`` flag is set
(``repro.netsim.link``).  Fault windows and observability hooks set it,
the reference loop keeps it set, and only a transmit that finds nothing
left to do clears it.  This run walks a flag through every transition on
the default engine — link down and back up, a loss window, a jitter
window, hooks installed and removed — and holds it to the reference
engine, whose flag never clears.

The jitter window is wide and closes while jittered arrivals are still
ahead of the un-jittered schedule.  The frames sent right after it must
stay clamped behind those arrivals: the wire is FIFO, so the server must
receive exactly the frames the switch's link accepted, in order.  A flag
cleared when the window closes (instead of when the clamp has caught up)
lets those frames overtake and fails here.
"""

from dataclasses import asdict, replace

import pytest

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    run_observer,
    run_options,
)
from repro.experiments.scenarios import multi_server_384b
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.obs.profiler import PhaseProfiler

#: Fault windows (simulated µs from traffic start), each closing mid-run.
FAULTS = {
    "name": "impairment-lifecycle",
    "events": [
        {"kind": "link_down", "at_us": 200, "duration_us": 30, "link": "server"},
        {"kind": "link_loss", "at_us": 400, "duration_us": 60, "probability": 0.3,
         "link": "all"},
        {"kind": "link_jitter", "at_us": 600, "duration_us": 60, "jitter_ns": 20_000,
         "link": "server"},
    ],
}

#: Observability hooks on the server link: installed, then removed.
HOOKS_ON_NS, HOOKS_OFF_NS = 150_000, 350_000


class _Lifecycle(RunObserver):
    """Installs and removes the server link's hooks mid-run and records,
    per run, the frames the switch's link accepted toward the server,
    the frames the server received, and the profiler's per-stage counts.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.runs = []
        self.pending_at_close = []

    def on_run_start(self, scenario, deployment, topology, program):
        link = topology.attachments[0].server_link
        switch = topology.switch
        run = {"accepted": [], "received": [], "profiler": PhaseProfiler()}
        self.runs.append(run)
        transmit = Link.transmit
        handle_packet = NfServerNode.handle_packet
        set_jitter = Link.set_jitter
        env = topology.env
        pending_at_close = self.pending_at_close

        def counted_transmit(self, packet, sender):
            if self is not link or sender is not switch:
                return transmit(self, packet, sender)
            stats = self.direction_stats(sender)
            sent = stats.frames_sent
            transmit(self, packet, sender)
            if stats.frames_sent > sent:
                run["accepted"].append(packet)

        def received(self, packet, port):
            run["received"].append(packet)
            return handle_packet(self, packet, port)

        def closing_set_jitter(self, jitter_ns, seed=0):
            if self is link and jitter_ns == 0:
                direction = link._a_to_b if link.node_a is switch else link._b_to_a
                unjittered = max(env.now, direction.next_free_ns) + direction.propagation_delay_ns
                pending_at_close.append(direction.last_arrival_ns - unjittered)
            return set_jitter(self, jitter_ns, seed)

        self._monkeypatch.setattr(Link, "transmit", counted_transmit)
        self._monkeypatch.setattr(NfServerNode, "handle_packet", received)
        self._monkeypatch.setattr(Link, "set_jitter", closing_set_jitter)
        env.schedule_at(HOOKS_ON_NS, lambda: link.set_observability(profiler=run["profiler"]))
        env.schedule_at(HOOKS_OFF_NS, link.set_observability)


def _run(reference, deployment, monkeypatch):
    scenario = replace(
        multi_server_384b(server_count=1, send_rate_gbps=9.5),
        duration_us=1_000.0,
        warmup_us=100.0,
        faults=FAULTS,
    )
    lifecycle = _Lifecycle(monkeypatch)
    with run_options(reference=reference):
        runner = ExperimentRunner()
    with run_observer(lifecycle):
        report = runner.run_deployment(scenario, deployment)
    monkeypatch.undo()
    (run,) = lifecycle.runs
    return asdict(report), run, lifecycle.pending_at_close


def _transmit_events(profiler):
    """How many frames the profiler's ``link_transmit`` stage timed."""
    (row,) = [row for row in profiler.report()["stages"] if row["name"] == "link_transmit"]
    return row["events"]


@pytest.mark.parametrize("deployment", list(DeploymentKind), ids=lambda kind: kind.value)
def test_impairment_windows_open_and_close_identically_on_both_engines(
    deployment, monkeypatch
):
    fast_report, fast, fast_pending = _run(False, deployment, monkeypatch)
    ref_report, ref, ref_pending = _run(True, deployment, monkeypatch)
    assert fast_report == ref_report
    assert fast_pending == ref_pending

    # The windows dropped frames, and the hooks saw the same frames on
    # both engines.
    assert fast_report["drop_breakdown"]["link_fault_drops"] > 0
    assert _transmit_events(fast["profiler"]) == _transmit_events(ref["profiler"]) > 0

    # The jitter window closed with jittered arrivals still ahead of the
    # un-jittered schedule, so the frames after it had to be clamped.
    assert fast_pending and max(fast_pending) > 0

    # FIFO wire: the server receives the accepted frames in order.
    for run in (fast, ref):
        received = run["received"]
        assert len(received) > 0
        assert all(a is b for a, b in zip(received, run["accepted"]))
        assert len(received) <= len(run["accepted"])
