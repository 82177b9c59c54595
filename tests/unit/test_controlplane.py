"""Unit tests for the control plane: controller, adaptive policy, deployment specs."""

import pytest

from repro.controlplane.manager import (
    AdaptiveEvictionPolicy,
    ControlPlaneManager,
    PayloadParkController,
)
from repro.controlplane.rules import DeploymentSpec, build_chain
from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.nf.firewall import Firewall
from repro.nf.loadbalancer import MaglevLoadBalancer
from repro.nf.nat import Nat
from repro.packet.packet import Packet


def _program(**kwargs):
    binding = NfServerBinding(name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0)
    return PayloadParkProgram(PayloadParkConfig(**kwargs), bindings=[binding])


class TestController:
    def test_counters_and_occupancy_reflect_dataplane(self):
        program = _program()
        controller = PayloadParkController(program)
        program.process(Packet.udp(total_size=512), ingress_port=0)
        assert controller.counters()["splits"] == 1
        assert controller.occupancy()["srv0"] > 0
        assert controller.health() == {"srv0": True}

    def test_set_expiry_threshold_changes_future_splits(self):
        program = _program(table_entries=1, expiry_threshold=1)
        controller = PayloadParkController(program)
        controller.set_expiry_threshold(5)
        assert controller.expiry_threshold == 5
        first, second = Packet.udp(total_size=512), Packet.udp(total_size=512)
        program.process(first, ingress_port=0)
        program.process(second, ingress_port=0)
        # With the conservative threshold the wrap-around no longer evicts.
        assert program.counters_for().evictions == 0
        assert program.counters_for().split_disabled_table_occupied == 1

    def test_set_expiry_threshold_validates(self):
        controller = PayloadParkController(_program())
        with pytest.raises(ValueError):
            controller.set_expiry_threshold(0)

    def test_reset_clears_dataplane_state(self):
        program = _program()
        controller = PayloadParkController(program)
        program.process(Packet.udp(total_size=512), ingress_port=0)
        controller.reset()
        assert controller.counters()["splits"] == 0
        assert controller.occupancy()["srv0"] == 0

    @pytest.mark.parametrize("fast_path", [False, True])
    @pytest.mark.parametrize("parking", [False, True])
    def test_back_to_back_runs_start_from_zero_pipeline_counters(self, parking, fast_path):
        if parking:
            program = _program(parked_bytes=384, enable_recirculation=True)
        else:
            program = BaselineProgram(_program().bindings)
        program.enable_fast_path(fast_path)
        manager = ControlPlaneManager(program)
        pipe = program.asic.pipes[0]

        def run():
            for _ in range(5):
                packet = Packet.udp(total_size=800)
                program.process(packet, ingress_port=0)
                program.process(packet, ingress_port=2)
            program.process(Packet.udp(total_size=64), ingress_port=9)  # no egress
            return {
                "tables": [(t.name, t.hit_count, t.miss_count) for t in pipe.pipeline.tables()],
                "parsed": pipe.parser.parsed_packets,
                "deparsed": pipe.deparser.deparsed_packets,
                "recirculated": pipe.recirculated_packets,
                "processed": program.asic.processed_packets,
            }

        first = run()
        assert first["processed"] == 11
        assert first["recirculated"] == (10 if parking else 0)
        assert any(hits for _name, hits, _misses in first["tables"])
        manager.reset()
        assert pipe.parser.parsed_packets == pipe.deparser.deparsed_packets == 0
        assert pipe.recirculated_packets == program.asic.processed_packets == 0
        assert all(t.hit_count == t.miss_count == 0 for t in pipe.pipeline.tables())
        assert run() == first

    def test_install_l2_route(self):
        program = _program()
        controller = PayloadParkController(program)
        controller.install_l2_route("02:00:00:00:00:09", 1)
        packet = Packet.udp(total_size=128, dst_mac="02:00:00:00:00:09")
        ctx = program.process(packet, ingress_port=2)
        assert ctx.egress_port == 1


class TestAdaptiveEvictionPolicy:
    def test_starts_aggressive(self):
        controller = PayloadParkController(_program(expiry_threshold=5))
        AdaptiveEvictionPolicy(controller, aggressive_threshold=1, conservative_threshold=10)
        assert controller.expiry_threshold == 1

    def test_backs_off_on_premature_evictions(self):
        controller = PayloadParkController(_program())
        policy = AdaptiveEvictionPolicy(controller, aggressive_threshold=1)
        # Simulate the dataplane reporting new premature evictions.
        controller.program.counters_for("srv0").premature_evictions = 4
        assert policy.observe() == 2
        controller.program.counters_for("srv0").premature_evictions = 8
        assert policy.observe() == 3

    def test_recovers_after_clean_intervals(self):
        controller = PayloadParkController(_program())
        policy = AdaptiveEvictionPolicy(
            controller, aggressive_threshold=1, recovery_intervals=2
        )
        controller.program.counters_for("srv0").premature_evictions = 2
        assert policy.observe() == 2
        # Two clean intervals bring the threshold back down.
        assert policy.observe() == 2
        assert policy.observe() == 1

    def test_threshold_stays_within_bounds(self):
        controller = PayloadParkController(_program())
        policy = AdaptiveEvictionPolicy(
            controller, aggressive_threshold=1, conservative_threshold=3
        )
        for step in range(10):
            controller.program.counters_for("srv0").premature_evictions = (step + 1) * 5
            policy.observe()
        assert controller.expiry_threshold == 3

    def test_invalid_bounds_rejected(self):
        controller = PayloadParkController(_program())
        with pytest.raises(ValueError):
            AdaptiveEvictionPolicy(controller, aggressive_threshold=5, conservative_threshold=2)


class TestDeploymentSpec:
    def test_builds_paper_chain(self):
        spec = DeploymentSpec(
            name="fw-nat-lb",
            chain=[
                {"type": "firewall", "rule_count": 20},
                {"type": "nat", "external_ip": "198.51.100.1"},
                {"type": "loadbalancer", "backends": {"web-1": "10.100.0.1", "web-2": "10.100.0.2"}},
            ],
        )
        chain = spec.build()
        assert len(chain) == 3
        assert isinstance(chain.nfs[0], Firewall)
        assert isinstance(chain.nfs[1], Nat)
        assert isinstance(chain.nfs[2], MaglevLoadBalancer)

    def test_blacklist_rules_installed(self):
        chain = build_chain([{"type": "firewall", "blacklist": ["192.168.0.0/16"]}])
        packet = Packet.udp(src_ip="192.168.1.1", total_size=128)
        assert not chain.process(packet).forwarded

    def test_synthetic_and_macswap(self):
        chain = build_chain([{"type": "macswap"}, {"type": "synthetic", "cycles": 250}])
        assert len(chain) == 2

    def test_loadbalancer_backend_count_shorthand(self):
        chain = build_chain([{"type": "loadbalancer", "backends": 4}])
        assert isinstance(chain.nfs[0], MaglevLoadBalancer)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            build_chain([{"type": "dpi"}])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            build_chain([])

    @pytest.mark.parametrize(
        "description, key",
        [
            ({"type": "firewall", "rule_count": 0}, "rule_count"),
            ({"type": "firewall", "rule_count": -3}, "rule_count"),
            ({"type": "firewall", "rule_count": True}, "rule_count"),
            ({"type": "firewall", "rule_count": 5, "blacklist": ["10.0.0.0/8"]}, "blacklist"),
            ({"type": "synthetic"}, "cycles"),
            ({"type": "loadbalancer", "backends": True}, "backends"),
            ({"type": "loadbalancer", "backends": 0}, "backends"),
            ({"type": "loadbalancer", "backends": 256}, "backends"),
            ({"type": "nat", "extrnal_ip": "198.51.100.1"}, "extrnal_ip"),
            ({"type": "macswap", "cycles": 10}, "cycles"),
        ],
    )
    def test_bad_description_names_the_type_and_the_key(self, description, key):
        with pytest.raises(ValueError) as excinfo:
            build_chain([description])
        message = str(excinfo.value)
        assert description["type"] in message and key in message, message
