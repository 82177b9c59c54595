"""Control-plane invalidation of the fast-path state.

The fast path keeps derived state — the switch program's compiled port
plans, the firewall's classifier compiled from its rule list, Maglev
backend choices keyed by flow.  Every control-plane mutation that
changes forwarding behaviour must drop the corresponding state, or the
dataplane silently keeps replaying a stale world.  These tests mutate
each control surface and assert the behaviour change it must produce.
"""

import pytest

from repro.core.program import BaselineProgram
from repro.experiments.runner import default_binding
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.loadbalancer import PREFIX_STATES, Backend, MaglevLoadBalancer
from repro.packet.ethernet import MacAddress
from repro.packet.flows import FiveTuple, flow_hash
from repro.packet.ipv4 import PROTO_UDP, IPv4Address
from repro.packet.packet import Packet
from repro.switchsim.mat import MatchActionTable


def _baseline_program():
    program = BaselineProgram([default_binding()])
    program.enable_fast_path()
    return program


class TestDecisionCacheInvalidation:
    """The packet after a control-plane write takes the new decision."""

    MAC = "02:aa:00:00:00:07"

    def _egress_from_nf(self, program):
        binding = program.bindings[0]
        egress, _owed, _reason = program.process(Packet.udp(dst_mac=self.MAC), binding.nf_port)
        return egress

    def test_l2_entry_install_changes_the_next_decision(self):
        program = _baseline_program()
        binding = program.bindings[0]
        for _ in range(2):  # the second packet runs the compiled plan
            assert self._egress_from_nf(program) == binding.default_egress_port

        program.add_l2_entry(self.MAC, binding.ingress_ports[1])
        assert self._egress_from_nf(program) == binding.ingress_ports[1]
        # A write straight to the table, with no invalidation, shows too.
        program.l2.add_entry(MacAddress.from_string(self.MAC), binding.ingress_ports[0])
        assert self._egress_from_nf(program) == binding.ingress_ports[0]

    def test_table_install_changes_the_next_decision(self):
        program = _baseline_program()
        binding = program.bindings[0]
        port = binding.ingress_ports[0]
        pipe = program.asic.pipe_for_port(port)
        assert program.process(Packet.udp(), port) == (binding.nf_port, 0, None)

        # A control-plane table the program knows nothing about.
        acl = pipe.pipeline.stage(0).add_table(
            MatchActionTable(
                name="acl",
                match=lambda ctx: ctx.ingress_port == port,
                action=lambda ctx: ctx.drop("acl"),
                match_bits=8,
            )
        )
        # The install itself drops the compiled plans.
        assert program._plans == {}
        assert program.process(Packet.udp(), port) == (None, 0, "acl")
        # The binding's other traffic port is judged by the table too.
        other = program.process(Packet.udp(), binding.ingress_ports[1])
        assert other == (binding.nf_port, 0, None)

    def test_invalidate_keeps_decisions(self):
        program = _baseline_program()
        binding = program.bindings[0]
        port = binding.ingress_ports[0]
        for _ in range(3):
            assert program.process(Packet.udp(), port) == (binding.nf_port, 0, None)
            program.invalidate_fast_path()
            assert program._plans == {}


class TestFirewallVerdictCacheInvalidation:
    """Rule churn must show in the very next verdict and its reason."""

    def _packet(self, src="172.16.5.9"):
        return Packet.udp(src_ip=src, dst_port=80)

    def _outcome(self, firewall):
        result = firewall.process(self._packet())
        return result.forwarded, result.reason

    def test_add_rule_evicts_cached_verdicts(self):
        firewall = Firewall(rules=[FirewallRule.blacklist("192.168.0.0/16")])
        firewall.enable_fast_path()
        assert self._outcome(firewall) == (True, "")

        firewall.add_rule(FirewallRule.blacklist("172.16.0.0/12"))
        assert self._outcome(firewall) == (False, "blacklisted by rule 1")

    def test_remove_rule_evicts_cached_verdicts(self):
        firewall = Firewall(
            rules=[
                FirewallRule.blacklist("172.16.0.0/12"),
                FirewallRule.blacklist("192.168.0.0/16"),
            ]
        )
        firewall.enable_fast_path()
        assert self._outcome(firewall) == (False, "blacklisted by rule 0")

        removed = firewall.remove_rule(0)
        assert removed.prefix_len == 12
        assert self._outcome(firewall) == (True, "")

    def test_rule_updates_change_drop_reasons_too(self):
        # The pre-built results name the matching rule's index; a rule
        # change must refresh them or the reported rule drifts.
        firewall = Firewall(
            rules=[
                FirewallRule.blacklist("10.99.0.0/16"),
                FirewallRule.blacklist("172.16.0.0/12"),
            ]
        )
        firewall.enable_fast_path()
        assert self._outcome(firewall) == (False, "blacklisted by rule 1")
        firewall.remove_rule(0)
        assert self._outcome(firewall) == (False, "blacklisted by rule 0")

    def test_cached_verdicts_match_slow_path(self):
        rules = [FirewallRule.blacklist(f"172.30.{i}.0/24") for i in range(5)]
        rules.append(FirewallRule.blacklist("192.168.0.0/16"))
        fast = Firewall(rules=list(rules))
        fast.enable_fast_path()
        slow = Firewall(rules=list(rules))
        for index in range(64):
            packet = Packet.udp(src_ip=f"192.168.{index % 3}.{index}", dst_port=index)
            a, b = fast.process(packet), slow.process(packet)
            assert (a.verdict, a.reason) == (b.verdict, b.reason)


class TestMaglevBackendChurnInvalidation:
    def _flow(self, index):
        return FiveTuple(
            src_ip=IPv4Address.from_string(f"10.1.0.{index % 250 + 1}"),
            dst_ip=IPv4Address.from_string("10.2.0.1"),
            protocol=PROTO_UDP,
            src_port=1024 + index,
            dst_port=80,
        )

    def test_remove_backend_evicts_cached_choices(self):
        balancer = MaglevLoadBalancer.with_backend_count(4)
        balancer.enable_fast_path()
        flows = [self._flow(i) for i in range(200)]
        before = {flow: balancer.backend_for(flow) for flow in flows}
        assert balancer._backend_cache

        victim = before[flows[0]].name
        balancer.remove_backend(victim)
        assert not any(
            backend.name == victim
            for backend in balancer._backend_cache.values()
        )
        after = {flow: balancer.backend_for(flow) for flow in flows}
        assert all(backend.name != victim for backend in after.values())
        # Post-churn choices must equal a freshly built balancer's (the
        # cache may never pin flows to the pre-churn table).
        fresh = MaglevLoadBalancer(
            backends=list(balancer.backends), table_size=balancer.table_size
        )
        assert {f: b.name for f, b in after.items()} == {
            f: fresh.backend_for(f).name for f in flows
        }

    def test_add_backend_evicts_cached_choices(self):
        balancer = MaglevLoadBalancer.with_backend_count(3)
        balancer.enable_fast_path()
        flows = [self._flow(i) for i in range(300)]
        for flow in flows:
            balancer.backend_for(flow)
        balancer.add_backend(Backend.from_string("backend-99", "10.100.0.99"))
        after = {flow: balancer.backend_for(flow).name for flow in flows}
        # The new backend must actually receive traffic (cache was evicted).
        assert "backend-99" in set(after.values())

    def test_prefix_states_are_bounded_and_survive_churn(self, monkeypatch, empty_memos):
        # The hosts' hash prefixes do not depend on the pool: set_backends
        # keeps them, the per-flow memo goes, and every choice is still
        # the table's entry for the full flow_hash.
        monkeypatch.setattr(MaglevLoadBalancer, "MEMO_ENTRIES", 8)
        balancer = MaglevLoadBalancer.with_backend_count(4)
        balancer.enable_fast_path()

        def choose(flows):
            for flow in flows:
                expected = balancer.lookup_table[flow_hash(flow.key()) % balancer.table_size]
                assert balancer.backend_for(flow) is balancer.backends[expected]

        flows = [self._flow(i) for i in range(8)]
        choose(flows)
        held = dict(PREFIX_STATES)
        assert len(held) == 8
        balancer.add_backend(Backend.from_string("backend-99", "10.100.0.99"))
        assert not balancer._backend_cache
        assert PREFIX_STATES == held
        choose(flows)
        # A ninth pair of hosts finds the table full: it is emptied first.
        choose([self._flow(8)])
        assert list(PREFIX_STATES) == [self._flow(8).key()[:3]]

    def test_churn_validation(self):
        balancer = MaglevLoadBalancer.with_backend_count(2)
        with pytest.raises(ValueError):
            balancer.add_backend(Backend.from_string("backend-0", "10.0.0.9"))
        with pytest.raises(ValueError):
            balancer.remove_backend("nope")
        balancer.remove_backend("backend-0")
        with pytest.raises(ValueError):
            balancer.remove_backend("backend-1")  # pool may not become empty
