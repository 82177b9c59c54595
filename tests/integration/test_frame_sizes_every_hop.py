"""The stored frame size is the derived size, at every hop of real runs.

``Packet.wire_length`` / ``useful_bytes`` are stored integers that Split,
Merge, the Explicit-Drop truncation and header attach / detach move as
they go (see ``repro.packet.packet``).  This wraps every node's
``handle_packet`` once the testbed is wired — the same outside-in seam
``test_hop_seams.py`` uses, no hook under ``src/`` — and compares the
stored values against the frame's serialized length and its header
stack on every frame that arrives anywhere, in the four runs that
between them take every size-changing path: plain parking, eight-way
slicing's two-server case, the recirculating second pass, and the NF
server's Explicit-Drop notifications.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import (
    ExperimentRunner,
    RunObserver,
    run_observer,
    run_options,
)
from repro.experiments.scenarios import (
    explicit_drop_scenario,
    fw_nat_lb_10ge,
    fw_nat_lb_10ge_recirculation,
    multi_server_384b,
)
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES


class _SizeChecker(RunObserver):
    """Checks both equalities on every frame each node receives."""

    def __init__(self):
        self.frames_checked = 0
        self.parked_frames_seen = 0
        self.recirculated_packets = 0

    def _wrap(self, handle_packet):
        def checked(packet, port):
            assert packet.wire_length == len(packet.to_bytes())
            assert packet.useful_bytes == min(
                packet.header_length, ETHERNET_UDP_HEADER_BYTES
            )
            self.frames_checked += 1
            if packet.pp is not None and packet.pp.enb == 1:
                self.parked_frames_seen += 1
            return handle_packet(packet, port)

        return checked

    def _count_recirculations(self, process):
        def counted(packet, port):
            ctx = process(packet, port)
            self.recirculated_packets += ctx.recirculations
            return ctx

        return counted

    def on_run_start(self, scenario, deployment, topology, program):
        nodes = [topology.switch]
        for attachment in topology.attachments:
            nodes += [attachment.pktgen, attachment.server]
        for node in nodes:
            node.handle_packet = self._wrap(node.handle_packet)
        program.process = self._count_recirculations(program.process)


SCENARIOS = {
    "fw_nat_lb": lambda: fw_nat_lb_10ge(10.5),
    "two_servers": lambda: multi_server_384b(server_count=2, send_rate_gbps=10.5),
    "recirculation": lambda: fw_nat_lb_10ge_recirculation(),
    "explicit_drop": lambda: explicit_drop_scenario(1, True),
}


@pytest.mark.parametrize("reference", [False, True], ids=["default", "reference"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_stored_size_matches_the_frame_at_every_hop(name, reference):
    scenario = replace(SCENARIOS[name](), duration_us=1_200.0, warmup_us=300.0)
    checker = _SizeChecker()
    with run_options(reference=reference), run_observer(checker):
        result = ExperimentRunner().compare(scenario)

    baseline, payloadpark = result.comparison.baseline, result.comparison.payloadpark
    sent = baseline.packets_sent + payloadpark.packets_sent
    # Generator -> switch -> server -> switch -> generator: a delivered
    # packet is checked four times, and nearly all of them are delivered.
    assert checker.frames_checked > 3 * sent > 0
    assert checker.parked_frames_seen > 0
    if name == "recirculation":
        assert checker.recirculated_packets > 0
    if name == "explicit_drop":
        assert payloadpark.explicit_drops > 0
