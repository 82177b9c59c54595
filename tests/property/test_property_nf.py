"""Property-based tests for NF invariants (NAT, Maglev, firewall)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import chains
from repro.nf.chain import NfChain
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.loadbalancer import MaglevLoadBalancer
from repro.nf.nat import Nat
from repro.packet.ethernet import EthernetHeader, MacAddress
from repro.packet.flows import (
    FiveTuple,
    FlowGenerator,
    flow_hash,
    flow_hash_ports,
    flow_hash_prefix,
)
from repro.packet.ipv4 import PROTO_UDP, IPv4Address, IPv4Header
from repro.packet.packet import Packet
from repro.packet.pool import FramePool
from repro.traffic.pktgen import blacklisted_source

flow_strategy = st.builds(
    FiveTuple,
    src_ip=st.builds(IPv4Address, st.integers(min_value=1, max_value=0xFFFFFFFE)),
    dst_ip=st.builds(IPv4Address, st.integers(min_value=1, max_value=0xFFFFFFFE)),
    protocol=st.just(PROTO_UDP),
    src_port=st.integers(min_value=1, max_value=65_535),
    dst_port=st.integers(min_value=1, max_value=65_535),
)


# Addresses a few bits apart under a handful of bases, so that random
# rules overlap (same prefix at different lengths, duplicates, /0) and
# random sources land inside, beside and outside them.
address_strategy = st.builds(
    lambda base, low: base | low,
    st.sampled_from([0x00000000, 0x0A000000, 0x0A010000, 0x0A010100, 0xC0A80000]),
    st.integers(min_value=0, max_value=7),
)
port_strategy = st.sampled_from([0, 53, 80, 443, 65_535])
rule_strategy = st.builds(
    FirewallRule,
    network=st.builds(IPv4Address, address_strategy),
    prefix_len=st.one_of(
        st.sampled_from([0, 8, 16, 24, 29, 32]), st.integers(min_value=0, max_value=32)
    ),
    dst_port=st.one_of(st.none(), port_strategy),
)


def _nested_loop_hash(flow: FiveTuple) -> int:
    """FNV-1a over the 5-tuple, one shift and mask per byte (the reference)."""
    value = 0xCBF29CE484222325
    for part in (
        flow.src_ip.value, flow.dst_ip.value, flow.protocol, flow.src_port, flow.dst_port
    ):
        for shift in (0, 8, 16, 24):
            value ^= (part >> shift) & 0xFF
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


_pack_five = struct.Struct("<5I").pack


def _whole_key_hash(key) -> int:
    """The one-loop flow_hash the split form replaced: FNV-1a over all 20 bytes."""
    value = 0xCBF29CE484222325
    for byte in _pack_five(*key):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _outcome(hash_function, key):
    try:
        return hash_function(key)
    except struct.error as error:
        return ("struct.error", str(error))


def _two_stage(key):
    src, dst, protocol, src_port, dst_port = key
    return flow_hash_ports(flow_hash_prefix(src, dst, protocol), src_port, dst_port)


# One field: a byte, a 16-bit port, a full 32-bit value, or (rarely) a
# value that does not pack — negative or past 2**32.
field_strategy = st.one_of(
    st.integers(min_value=0, max_value=0xFF),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.sampled_from([0, 0xFFFF, 0x10000, 0xFFFFFFFF]),
)
unpackable_strategy = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=1 << 32)
)


class TestFlowHash:
    @settings(max_examples=200, deadline=None)
    @given(flow_strategy)
    def test_stable_hash_equals_the_nested_loop_form(self, flow):
        assert flow.stable_hash() == _nested_loop_hash(flow)

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[field_strategy] * 5))
    def test_the_split_hash_is_the_whole_fold(self, key):
        # Protocols past a byte and ports past 16 bits take the byte loop.
        flow = FiveTuple(IPv4Address(key[0]), IPv4Address(key[1]), *key[2:])
        expected = _nested_loop_hash(flow)
        assert flow_hash(key) == _two_stage(key) == _whole_key_hash(key) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[field_strategy] * 5),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5, unique=True),
        st.data(),
    )
    def test_unpackable_fields_raise_what_the_whole_fold_raised(self, key, bad, data):
        key = list(key)
        for index in bad:
            key[index] = data.draw(unpackable_strategy)
        key = tuple(key)
        expected = _outcome(_whole_key_hash, key)
        assert isinstance(expected, tuple)
        assert _outcome(flow_hash, key) == _outcome(_two_stage, key) == expected


class TestMaglevProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_table_always_fully_populated(self, backend_count):
        lb = MaglevLoadBalancer.with_backend_count(backend_count, table_size=101)
        assert len(lb.lookup_table) == 101
        assert set(lb.lookup_table) <= set(range(backend_count))
        assert len(set(lb.lookup_table)) == backend_count

    @settings(max_examples=40, deadline=None)
    @given(flow_strategy)
    def test_same_flow_same_backend(self, flow):
        lb = MaglevLoadBalancer.with_backend_count(6, table_size=101)
        assert lb.backend_for(flow) == lb.backend_for(flow)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=8))
    def test_load_spread_is_bounded(self, backend_count):
        lb = MaglevLoadBalancer.with_backend_count(backend_count, table_size=211)
        assert lb.load_imbalance() <= 1.5


class TestNatProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(flow_strategy, min_size=1, max_size=40, unique=True))
    def test_distinct_flows_never_share_external_port(self, flows):
        nat = Nat()
        ports = [nat.binding_for(flow).external_port for flow in flows]
        assert len(set(ports)) == len(flows)

    @settings(max_examples=30, deadline=None)
    @given(flow_strategy)
    def test_binding_is_stable(self, flow):
        nat = Nat()
        assert nat.binding_for(flow) == nat.binding_for(flow)
        assert nat.active_bindings == 1


class TestFirewallProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=8, max_value=32),
    )
    def test_prefix_match_consistent_with_subnet_check(self, octet3, octet4, prefix_len):
        rule = FirewallRule(
            network=IPv4Address.from_string("192.168.0.0"), prefix_len=prefix_len
        )
        firewall = Firewall(rules=[rule])
        address = f"192.168.{octet3}.{octet4}"
        packet = Packet.udp(src_ip=address, total_size=128)
        expected_drop = IPv4Address.from_string(address).in_subnet(
            IPv4Address.from_string("192.168.0.0"), prefix_len
        )
        assert firewall.process(packet).forwarded != expected_drop

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(rule_strategy, max_size=12),
        st.lists(st.tuples(address_strategy, port_strategy), min_size=1, max_size=8),
    )
    def test_classifier_agrees_with_the_linear_probe(self, rules, probes):
        fast = Firewall(rules=rules)
        fast.enable_fast_path()
        slow = Firewall(rules=rules)
        eth = EthernetHeader(dst=MacAddress(2), src=MacAddress(1))
        packets = [
            Packet.udp(src_ip=str(IPv4Address(src)), dst_port=dst_port)
            for src, dst_port in probes
        ]
        # No L4 header: only port-less rules can match.  No IP header: none can.
        src = IPv4Address(probes[0][0])
        packets.append(Packet(eth=eth, ip=IPv4Header(src=src, dst=src)))
        packets.append(Packet(eth=eth))
        for packet in packets:
            # Equal verdict and reason (NfResult compares both).
            assert fast.process(packet) == slow._probe(packet)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=64))
    def test_cycle_cost_monotone_in_rule_count(self, rule_count):
        small = Firewall.with_rule_count(rule_count)
        larger = Firewall.with_rule_count(rule_count + 10)
        assert (
            NfChain([larger]).stage_cycle_estimates() >= NfChain([small]).stage_cycle_estimates()
        )


class TestChainProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_a_warmed_chain_processes_like_a_fresh_one(self, sequence):
        # Per-packet work must not depend on whether the flow was seen
        # before: same results and same rewritten wire bytes from a chain
        # that already processed the sequence once, from a fresh one, and
        # from a fresh one on the reference path.
        flows = FlowGenerator(flow_count=16).flows()
        pool = FramePool("02:00:00:00:00:01", "02:00:00:00:00:02")

        def build(fast_path=True):
            chain = chains.fw_nat_lb(rule_count=20)()
            for nf in chain:
                nf.enable_fast_path(fast_path)
            return chain

        def run(chain):
            out = []
            for index, blacklisted in sequence:
                src_ip = blacklisted_source(index) if blacklisted else None
                packet = pool.frame(128, flows[index], src_ip=src_ip)
                out.append((chain.process(packet), packet.to_bytes()))
            return out

        warmed = build()
        run(warmed)
        assert run(warmed) == run(build()) == run(build(fast_path=False))
