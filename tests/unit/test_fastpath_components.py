"""Unit coverage for the fast-path building blocks.

Each optimization is admissible only if it is observationally identical
to the reference implementation; these tests pin that equivalence at
the component level (the golden-figure suite pins it end to end).
"""

from dataclasses import replace

import pytest

from repro.core.config import NfServerBinding
from repro.core.program import BaselineProgram
from repro.experiments.runner import DeploymentKind, ExperimentRunner, run_options
from repro.experiments.scenarios import fw_nat_lb_10ge, workload_scenario
from repro.nf.firewall import Firewall, FirewallRule
from repro.packet.ipv4 import IPv4Address
from repro.packet.packet import Packet
from repro.packet.pool import FramePool
from repro.traffic import pktgen
from repro.traffic.pktgen import (
    PacketFactory,
    PktGenConfig,
    blacklisted_source,
    build_udp_frame,
)
from repro.traffic.workload import Workload
from repro.workloads import generative, transport


def _state(obj, skip=()):
    """Every slot of a slotted object by name (``vars()`` for ``__slots__``)."""
    return {name: getattr(obj, name) for name in type(obj).__slots__ if name not in skip}


def _binding():
    return NfServerBinding(
        name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0
    )


class TestFramePool:
    def test_pooled_frame_is_byte_identical_to_reference(self):
        pool = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        flows = Workload.enterprise().flows.flows()
        for flow in flows[:16]:
            # 0 and 41 are below the 42-byte header stack: both builders clamp.
            for size in (0, 41, 42, 64, 342, 1514, 9000):
                reference = build_udp_frame(
                    size,
                    flow,
                    src_mac="02:00:00:00:00:01",
                    dst_mac="02:00:00:00:00:02",
                )
                pooled = pool.frame(size, flow)
                # Field by field first (to_bytes fills in the checksums),
                # which also pins the header defaults the pool restates.
                assert (pooled.eth, pooled.ip, pooled.l4, pooled.payload) == (
                    reference.eth, reference.ip, reference.l4, reference.payload
                )
                # The pool stores a frame's slots one by one, the
                # reference runs the constructor: neither may leave a
                # slot unset (an unset slot raises on read) and, the
                # packet id aside, every slot holds the same value —
                # the stored sizes included.
                assert _state(pooled, skip=("packet_id",)) == _state(
                    reference, skip=("packet_id",)
                )
                assert pooled.to_bytes() == reference.to_bytes()
                assert pooled.wire_length == reference.wire_length
                assert pooled.five_tuple() == reference.five_tuple()

    def test_blacklist_override_matches_reference(self):
        pool = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        flow = Workload.enterprise().flows.flows()[0]
        source = blacklisted_source(7)
        reference = build_udp_frame(
            500,
            flow,
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip=str(source),
        )
        pooled = pool.frame(500, flow, src_ip=source)
        assert pooled.to_bytes() == reference.to_bytes()

    def test_a_cold_flow_builds_the_same_frame_as_a_warm_one(self):
        # The pool keeps no per-flow state: building frames leaves it as
        # it was, so a frame cannot depend on the flows built before it.
        flows = Workload.enterprise().flows.flows()
        warm = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        for flow in flows[:64]:
            warm.frame(128, flow)
        cold = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        assert _state(cold) == _state(warm)
        cold_frame, warm_frame = cold.frame(700, flows[900]), warm.frame(700, flows[900])
        assert _state(cold_frame, skip=("packet_id",)) == _state(
            warm_frame, skip=("packet_id",)
        )
        assert cold_frame.to_bytes() == warm_frame.to_bytes()

    @pytest.mark.parametrize("field", ["src_port", "dst_port"])
    @pytest.mark.parametrize("port", [-1, 65_536])
    def test_out_of_range_port_raises_like_the_reference(self, field, port):
        flow = replace(Workload.enterprise().flows.flows()[0], **{field: port})
        pool = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        with pytest.raises(ValueError, match=f"{field} out of range: {port}"):
            pool.frame(128, flow)
        with pytest.raises(ValueError, match=f"{field} out of range: {port}"):
            build_udp_frame(
                128, flow, src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02"
            )

    def test_clones_are_independent(self):
        pool = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")
        flow = Workload.enterprise().flows.flows()[0]
        first = pool.frame(400, flow)
        second = pool.frame(400, flow)
        assert first.packet_id != second.packet_id
        first.ip.src = IPv4Address.from_string("1.2.3.4")
        first.meta["touched"] = True
        assert str(second.ip.src) != "1.2.3.4"
        assert second.meta == {}

    def test_pooled_factory_replays_reference_sequence(self):
        workload = Workload.enterprise(blacklisted_fraction=0.2)
        reference = PacketFactory(
            PktGenConfig(rate_gbps=8.0, workload=workload, seed=11)
        )
        pooled = PacketFactory(
            PktGenConfig(rate_gbps=8.0, workload=workload, seed=11, pooled=True)
        )
        for _ in range(256):
            assert pooled.next_packet().to_bytes() == reference.next_packet().to_bytes()


@pytest.mark.parametrize(
    "scenario",
    [fw_nat_lb_10ge(), workload_scenario("incast-collapse")],
    ids=["fw_nat_lb_10ge", "incast-collapse"],
)
def test_only_the_reference_engine_parses_frames(monkeypatch, scenario):
    # Every frame producer (factory, generative source, closed-loop
    # transport) must build through the pool on the default engine; a
    # producer that forgets `pooled` still passes every equivalence
    # check, only slower, so count the calls.
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (pktgen, generative, transport):
        monkeypatch.setattr(module, "build_udp_frame", counted(build_udp_frame))
    monkeypatch.setattr(Packet, "udp", counted(Packet.udp))

    def run():
        runner = ExperimentRunner(time_scale=0.05)
        return runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK).packets_sent

    assert run() > 0
    assert calls == []
    with run_options(reference=True):
        assert run() > 0
    assert {"build_udp_frame", "udp"} == set(calls)


class TestBaselinePlans:
    def _program(self):
        program = BaselineProgram([_binding()])
        program.add_l2_entry("02:00:00:00:00:02", 0)
        program.enable_fast_path()
        return program

    def test_cached_outcome_matches_live_walk(self):
        from repro.packet.packet import Packet

        program = self._program()
        reference = BaselineProgram([_binding()])
        reference.add_l2_entry("02:00:00:00:00:02", 0)
        for port in (0, 1, 2, 0, 1, 2, 0):
            packet = Packet.udp(total_size=200)
            expected = reference.process(Packet.udp(total_size=200), port)
            ctx = program.process(packet, port)
            assert (ctx.egress_port, ctx.dropped) == (
                expected.egress_port,
                expected.dropped,
            )

    def test_control_plane_update_invalidates_cache(self):
        from repro.packet.packet import Packet

        program = self._program()
        ctx = program.process(Packet.udp(total_size=200), 2)
        assert ctx.egress_port == 0
        # New L2 entry steers the sink MAC to port 1; port 2's plan must
        # show the control-plane write on the next packet.
        program.add_l2_entry("02:00:00:00:00:02", 1)
        ctx = program.process(Packet.udp(total_size=200), 2)
        assert ctx.egress_port == 1


class TestFirewallFastPath:
    def _firewall(self):
        return Firewall.with_rule_count(20)

    def test_cached_verdicts_match_reference(self):
        from repro.packet.packet import Packet

        reference = self._firewall()
        fast = self._firewall()
        fast.enable_fast_path()
        packets = [
            Packet.udp(src_ip="10.0.0.9", total_size=200),
            Packet.udp(src_ip="192.168.3.4", total_size=200),   # blacklisted
            Packet.udp(src_ip="172.30.5.1", total_size=200),    # rule 5-ish
            Packet.udp(src_ip="10.0.0.9", total_size=200),      # cache hit
        ]
        for packet in packets:
            expected = reference.process(packet)
            got = fast.process(packet)
            assert (got.verdict, got.cycles, got.reason) == (
                expected.verdict,
                expected.cycles,
                expected.reason,
            )

    def test_add_rule_invalidates_cache(self):
        from repro.packet.packet import Packet

        firewall = self._firewall()
        firewall.enable_fast_path()
        packet = Packet.udp(src_ip="10.9.9.9", total_size=128)
        assert firewall.process(packet).forwarded
        firewall.add_rule(FirewallRule.blacklist("10.9.9.9/32"))
        assert not firewall.process(packet).forwarded
