"""Unit tests for the network functions (firewall, NAT, Maglev LB, etc.)."""

import pytest

from repro.nf.base import NfVerdict
from repro.nf.chain import NfChain
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.loadbalancer import Backend, MaglevLoadBalancer, next_prime
from repro.nf.macswap import MacSwapper
import repro.nf.nat as nat_module
from repro.nf.nat import Nat, NatPortExhausted
from repro.nf.synthetic import SyntheticNf
from repro.packet.flows import FiveTuple
from repro.packet.ipv4 import PROTO_UDP, IPv4Address
from repro.packet.packet import Packet


def _packet(src_ip="10.1.0.1", dst_ip="10.2.0.1", src_port=1000, dst_port=80, size=256):
    return Packet.udp(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port, total_size=size
    )


class TestFirewall:
    def test_allows_unlisted_traffic(self):
        firewall = Firewall(rules=[FirewallRule.blacklist("192.168.0.0/16")])
        result = firewall(_packet(src_ip="10.1.0.1"))
        assert result.forwarded

    def test_drops_blacklisted_source(self):
        firewall = Firewall(rules=[FirewallRule.blacklist("192.168.0.0/16")])
        result = firewall(_packet(src_ip="192.168.5.5"))
        assert result.verdict is NfVerdict.DROP
        assert firewall.packets_dropped == 1

    @pytest.mark.parametrize("cidr", ["10.0.0.0/40", "10.0.0.0/-3", "10.0.0.0/33"])
    def test_bad_prefix_length_fails_when_the_rule_is_built(self, cidr):
        # Used to construct, then raise on the first packet ("/40":
        # negative shift on the default engine, "invalid prefix length"
        # on the reference) or compile to mask 0 and drop everything on
        # the default engine only ("/-3").  Neither engine may ever hold
        # such a rule, so no firewall can be built around one either.
        with pytest.raises(ValueError, match="invalid prefix length"):
            FirewallRule.blacklist(cidr)

    @pytest.mark.parametrize("port", [-1, 65_536])
    def test_bad_port_qualifier_fails_when_the_rule_is_built(self, port):
        with pytest.raises(ValueError, match="dst_port out of range"):
            FirewallRule(network=IPv4Address(0), dst_port=port)

    def test_rule_with_port_qualifier(self):
        rule = FirewallRule(
            network=IPv4Address.from_string("10.1.0.0"), prefix_len=16, dst_port=443
        )
        firewall = Firewall(rules=[rule])
        assert firewall(_packet(dst_port=80)).forwarded
        assert not firewall(_packet(dst_port=443)).forwarded

    def test_cost_grows_with_rule_count(self):
        small = Firewall.with_rule_count(1)
        large = Firewall.with_rule_count(20)
        assert large(_packet()).cycles > small(_packet()).cycles

    def test_with_rule_count_builds_requested_rules(self):
        firewall = Firewall.with_rule_count(20)
        assert len(firewall.rules) == 20


class TestNat:
    def test_rewrites_source_address_and_port(self):
        nat = Nat(external_ip="203.0.113.1")
        packet = _packet(src_ip="10.1.0.1", src_port=5555)
        result = nat(packet)
        assert result.forwarded
        assert str(packet.ip.src) == "203.0.113.1"
        assert packet.l4.src_port != 5555

    def test_same_flow_keeps_binding(self):
        nat = Nat()
        first = _packet(src_ip="10.1.0.9", src_port=1234)
        second = _packet(src_ip="10.1.0.9", src_port=1234)
        nat(first)
        nat(second)
        assert first.l4.src_port == second.l4.src_port
        assert nat.active_bindings == 1

    def test_distinct_flows_get_distinct_ports(self):
        nat = Nat()
        first = _packet(src_port=1000)
        second = _packet(src_port=1001)
        nat(first)
        nat(second)
        assert first.l4.src_port != second.l4.src_port

    def test_reverse_translation(self):
        nat = Nat(external_ip="203.0.113.1")
        outbound = _packet(src_ip="10.1.0.7", src_port=4242)
        nat(outbound)
        reply = _packet(
            src_ip=str(outbound.ip.dst),
            dst_ip="203.0.113.1",
            src_port=outbound.l4.dst_port,
            dst_port=outbound.l4.src_port,
        )
        result = nat(reply)
        assert result.forwarded
        assert str(reply.ip.dst) == "10.1.0.7"
        assert reply.l4.dst_port == 4242

    def test_reverse_without_binding_dropped(self):
        nat = Nat(external_ip="203.0.113.1")
        stray = _packet(dst_ip="203.0.113.1", dst_port=30000)
        assert not nat(stray).forwarded

    def test_full_port_table_drops_new_flows_and_keeps_old_ones(self, monkeypatch):
        monkeypatch.setattr(nat_module, "PORT_HIGH", nat_module.PORT_LOW + 1)
        nat = Nat()
        assert nat(_packet(src_port=1000)).forwarded
        assert nat(_packet(src_port=1001)).forwarded
        result = nat(_packet(src_port=1002))
        assert not result.forwarded and result.reason == "NAT ports exhausted"
        assert nat(_packet(src_port=1000)).forwarded
        assert (nat.active_bindings, nat.packets_dropped) == (2, 1)
        with pytest.raises(NatPortExhausted):
            nat.binding_for(
                FiveTuple(IPv4Address.from_string("10.1.0.1"),
                          IPv4Address.from_string("10.2.0.1"), PROTO_UDP, 1003, 80)
            )


class TestMaglev:
    def test_next_prime(self):
        assert next_prime(250) == 251
        assert next_prime(2) == 2
        assert next_prime(14) == 17

    def test_requires_backends(self):
        with pytest.raises(ValueError):
            MaglevLoadBalancer(backends=[])

    def test_table_is_fully_populated_and_balanced(self):
        lb = MaglevLoadBalancer.with_backend_count(5, table_size=101)
        assert all(entry >= 0 for entry in lb.lookup_table)
        assert lb.load_imbalance() < 1.3

    def test_flow_consistency(self):
        lb = MaglevLoadBalancer.with_backend_count(4)
        packet = _packet(src_port=7777)
        flow = packet.five_tuple()
        assert lb.backend_for(flow) == lb.backend_for(flow)

    def test_rewrites_destination_to_backend(self):
        lb = MaglevLoadBalancer.with_backend_count(3)
        packet = _packet()
        lb(packet)
        assert str(packet.ip.dst).startswith("10.100.0.")

    def test_most_flows_stable_when_backend_removed(self):
        backends = [Backend.from_string(f"b{i}", f"10.100.0.{i + 1}") for i in range(5)]
        full = MaglevLoadBalancer(backends=backends, table_size=211)
        reduced = MaglevLoadBalancer(backends=backends[:-1], table_size=211)
        flows = [_packet(src_port=p).five_tuple() for p in range(1000, 1200)]
        moved = 0
        for flow in flows:
            before = full.backend_for(flow)
            after = reduced.backend_for(flow)
            if before.name != backends[-1].name and before.name != after.name:
                moved += 1
        assert moved / len(flows) < 0.35


class TestMacSwapAndSynthetic:
    def test_macswap_swaps(self):
        packet = _packet()
        src, dst = packet.eth.src, packet.eth.dst
        MacSwapper()(packet)
        assert packet.eth.src == dst and packet.eth.dst == src

    def test_synthetic_cycle_budgets(self):
        assert SyntheticNf.light()(_packet()).cycles == 50
        assert SyntheticNf.medium()(_packet()).cycles == 300
        assert SyntheticNf.heavy()(_packet()).cycles == 570

    def test_synthetic_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            SyntheticNf(0)


class TestNfChain:
    def test_chain_processes_in_order_and_sums_cycles(self):
        chain = NfChain([Firewall.with_rule_count(1), Nat()])
        packet = _packet()
        result = chain.process(packet)
        assert result.forwarded
        assert result.cycles > 0
        assert chain.packets_out == 1

    def test_drop_stops_chain(self):
        firewall = Firewall(rules=[FirewallRule.blacklist("10.1.0.0/16")])
        nat = Nat()
        chain = NfChain([firewall, nat])
        result = chain.process(_packet(src_ip="10.1.0.5"))
        assert not result.forwarded
        assert (firewall.packets_dropped, nat.active_bindings) == (1, 0)  # NAT never saw it
        assert chain.packets_dropped == 1

    def test_requires_at_least_one_nf(self):
        with pytest.raises(ValueError):
            NfChain([])

    def test_stage_cycle_estimates_one_per_nf(self):
        chain = NfChain([Firewall.with_rule_count(20), Nat(), MacSwapper()])
        estimates = chain.stage_cycle_estimates()
        assert len(estimates) == 3
        assert all(value > 0 for value in estimates)

    def test_stage_cycle_estimates_override_validated(self):
        chain = NfChain([MacSwapper()])
        with pytest.raises(ValueError):
            chain.stage_cycle_estimates(sample_packet_cycles=[1, 2])
