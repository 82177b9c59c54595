"""Unit tests for the NF framework profiles and the server cost model."""

from dataclasses import replace

import pytest

from repro.nf.chain import NfChain
from repro.nf.firewall import Firewall
from repro.nf.framework import NETBRICKS, OPENNETVM, NfFramework
from repro.nf.macswap import MacSwapper
from repro.nf.nat import Nat
from repro.nf.server import NfServerConfig, NfServerModel
from repro.nf.synthetic import SyntheticNf
from repro.packet.packet import Packet


class TestFramework:
    def test_netbricks_is_cheaper_per_hop(self):
        assert NETBRICKS.per_nf_overhead_cycles < OPENNETVM.per_nf_overhead_cycles


class TestNfServerModel:
    def _model(self, chain=None, **config_kwargs):
        chain = chain or NfChain([Firewall.with_rule_count(1), Nat()])
        return NfServerModel(chain, NfServerConfig(**config_kwargs))

    def test_stage_count_matches_chain_plus_rx_tx(self):
        model = self._model()
        assert len(model.stage_service_times_ns()) == 2 + 2

    def test_bottleneck_is_max_stage(self):
        model = self._model()
        stages = model.stage_service_times_ns()
        assert model.bottleneck_service_ns() == pytest.approx(max(stages))

    def test_heavier_nf_lowers_throughput(self):
        light = NfServerModel(NfChain([SyntheticNf.light()]), NfServerConfig())
        heavy = NfServerModel(NfChain([SyntheticNf.heavy()]), NfServerConfig())
        assert heavy.bottleneck_service_ns() > light.bottleneck_service_ns()

    def test_more_instances_raise_throughput(self):
        chain = NfChain([SyntheticNf.heavy()])
        one = NfServerModel(chain, NfServerConfig(nf_instances=1))
        two = NfServerModel(chain, NfServerConfig(nf_instances=2))
        assert two.bottleneck_service_ns() < one.bottleneck_service_ns()

    def test_pipeline_latency_exceeds_sum_of_stages(self):
        model = self._model()
        assert model.pipeline_latency_ns() > sum(model.stage_service_times_ns())

    def test_process_packet_runs_chain(self):
        model = self._model()
        packet = Packet.udp(total_size=300, src_ip="10.3.0.1")
        result = model.process_packet(packet)
        assert result.forwarded
        assert str(packet.ip.src) != "10.3.0.1"  # NAT rewrote it

    def test_building_a_model_leaves_its_config_unchanged(self):
        # One config may be shared by the models of several servers.
        config = NfServerConfig(explicit_drop=True, framework=OPENNETVM)
        before = replace(config)
        for _ in range(2):
            model = NfServerModel(NfChain([MacSwapper()]), config)
            assert model.config is config
        assert config == before
        assert config.framework is OPENNETVM

    def test_faster_clock_reduces_service_time(self):
        slow = self._model(cpu_ghz=2.0)
        fast = self._model(cpu_ghz=3.0)
        assert fast.bottleneck_service_ns() < slow.bottleneck_service_ns()
