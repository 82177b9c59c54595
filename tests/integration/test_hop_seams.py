"""The per-frame entries of a hop stay patchable at class level.

The perf ledger's tracer (``benchmarks/perf/spans.py``) swaps class-level
wrappers around ``Link.transmit`` and the three ``handle_packet``
methods.  The hop path schedules methods bound once at wiring time, so a
bound ``transmit`` or ``handle_packet`` captured there would run past a
wrapper installed later and the layer would drop out of the trace.  This
installs the wrappers *after* the testbed is wired and checks every
frame still goes through each of them — on a two-server run, and on a
single-server Explicit-Drop run, whose notifications leave the server
through ``_complete``'s transmit block → NIC-tx → the port's sender →
``Link.transmit``.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    run_observer,
)
from repro.experiments.scenarios import explicit_drop_scenario, multi_server_384b
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.trafficgen_node import TrafficGenNode

SEAMS = (
    (Link, "transmit"),
    (SwitchNode, "handle_packet"),
    (NfServerNode, "handle_packet"),
    (TrafficGenNode, "handle_packet"),
)


class _SeamCounter(RunObserver):
    """Wraps every seam once the topology is wired; counts calls per seam."""

    def __init__(self, monkeypatch):
        self.calls = {seam: 0 for seam in SEAMS}
        self._monkeypatch = monkeypatch
        self.topology = None

    def _wrap(self, seam, original):
        def wrapper(*args, **kwargs):
            self.calls[seam] += 1
            return original(*args, **kwargs)

        return wrapper

    def on_run_start(self, scenario, deployment, topology, program):
        for seam in SEAMS:
            owner, name = seam
            self._monkeypatch.setattr(owner, name, self._wrap(seam, owner.__dict__[name]))

    def on_run_end(self, scenario, deployment, topology, program, reports):
        self.topology = topology


SCENARIOS = {
    "two_servers": lambda: multi_server_384b(server_count=2, send_rate_gbps=10.5),
    "explicit_drop": lambda: explicit_drop_scenario(1, True),
}


@pytest.mark.parametrize("deployment", list(DeploymentKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_frame_crosses_the_class_level_seams(name, deployment, monkeypatch):
    scenario = replace(SCENARIOS[name](), duration_us=1_200.0, warmup_us=300.0)
    counter = _SeamCounter(monkeypatch)
    with run_observer(counter):
        ExperimentRunner().run_servers(scenario, deployment)

    topology = counter.topology
    directions = [
        stats
        for attachment in topology.attachments
        for link in (*attachment.gen_links, attachment.server_link)
        for stats in link.direction_counters()
    ]
    offered = sum(
        stats.frames_sent + stats.frames_dropped + stats.fault_drops for stats in directions
    )
    servers = [attachment.server for attachment in topology.attachments]
    pktgens = [attachment.pktgen for attachment in topology.attachments]
    # What the links delivered into the switch: each generator's
    # directions and the server's uplink.
    into_switch = sum(
        link.direction_stats(sender).frames_delivered
        for attachment in topology.attachments
        for link, sender in (
            *((gen_link, attachment.pktgen) for gen_link in attachment.gen_links),
            (attachment.server_link, attachment.server),
        )
    )
    expected = {
        (Link, "transmit"): offered,
        (SwitchNode, "handle_packet"): into_switch,
        (NfServerNode, "handle_packet"): sum(
            server.accepted_packets + server.overflow_drops for server in servers
        ),
        (TrafficGenNode, "handle_packet"): sum(gen.packets_received for gen in pktgens),
    }
    assert counter.calls == expected
    assert all(count > 0 for count in expected.values())
    # Every delivered frame entered exactly one of the three handlers.
    handled = sum(count for (owner, _), count in counter.calls.items() if owner is not Link)
    assert handled == sum(stats.frames_delivered for stats in directions)
    if name == "explicit_drop" and deployment is DeploymentKind.PAYLOADPARK:
        assert sum(server.explicit_drop_notifications for server in servers) > 0
