"""Pure per-run derivations are made once per process.

A run's flows, its Maglev table and its hosts' hash prefixes depend on
configuration alone, so they live in process-wide memos
(``repro.packet.flows.FLOW_SLOTS``, ``repro.nf.loadbalancer.MAGLEV_TABLES``
and ``PREFIX_STATES``): the cells of a campaign worker and the points of
a sweep derive each once.  The checks here count derivations instead of
reading a clock, and hold every memo to what deriving from scratch
gives — past its bound, and whatever ran earlier in the process.
"""

import dataclasses

import pytest

from repro.experiments import scenarios
from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.nf import loadbalancer
from repro.nf.loadbalancer import (
    MAGLEV_TABLES,
    PREFIX_STATES,
    Backend,
    MaglevLoadBalancer,
)
from repro.obs.config import ObserveSpec
from repro.obs.export import write_observation
from repro.obs.session import ObservationSink, observation_sink
from repro.packet import flows
from repro.packet.flows import FLOW_SLOTS, FiveTuple, FlowGenerator, flow_hash
from repro.packet.ipv4 import PROTO_UDP, IPv4Address


@pytest.fixture
def derivations(monkeypatch):
    """Calls of the three derivations the memos save, by name."""
    counts = {"flow": 0, "table": 0, "prefix": 0}

    def counting(key, function):
        def wrapper(*args):
            counts[key] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(FlowGenerator, "_make_flow", counting("flow", FlowGenerator._make_flow))
    monkeypatch.setattr(
        MaglevLoadBalancer, "_populate", counting("table", MaglevLoadBalancer._populate)
    )
    monkeypatch.setattr(
        loadbalancer, "flow_hash_prefix", counting("prefix", loadbalancer.flow_hash_prefix)
    )
    return counts


def _compare_rows():
    result = ExperimentRunner(time_scale=0.05).compare(scenarios.fw_nat_lb_10ge(10.5))
    comparison = result.comparison
    return [comparison.baseline.as_row(), comparison.payloadpark.as_row()]


def test_a_second_compare_derives_no_flow_table_or_prefix(empty_memos, derivations):
    first = _compare_rows()
    assert all(derivations.values()), derivations
    derivations.update(flow=0, table=0, prefix=0)
    assert _compare_rows() == first
    assert derivations == {"flow": 0, "table": 0, "prefix": 0}


@pytest.mark.parametrize("count, table_size", [(1, 7), (4, 251), (8, 251), (5, 1009)])
def test_a_memoized_table_equals_a_fresh_populate(count, table_size, empty_memos):
    balancer = MaglevLoadBalancer.with_backend_count(count, table_size=table_size)
    assert list(balancer.lookup_table) == balancer._populate()
    again = MaglevLoadBalancer.with_backend_count(count, table_size=table_size)
    assert again.lookup_table is balancer.lookup_table
    balancer.add_backend(Backend.from_string("backend-99", "10.100.0.99"))
    assert list(balancer.lookup_table) == balancer._populate()
    balancer.remove_backend("backend-99")
    assert balancer.lookup_table is again.lookup_table


class TestPastTheBound:
    """A memo driven past its bound is emptied and derives equal values."""

    def test_flow_slots(self, monkeypatch, empty_memos):
        monkeypatch.setattr(flows, "_FLOW_SLOTS_LIMIT", 100)
        first = list(FlowGenerator(flow_count=60).flows())
        other = list(FlowGenerator(flow_count=60, base_dst_port=1000).flows())
        assert len(FLOW_SLOTS) == 1  # 120 slots would pass 100: emptied first
        again = list(FlowGenerator(flow_count=60).flows())
        assert again == first and again[0] is not first[0]
        assert other != first
        assert sum(map(len, FLOW_SLOTS.values())) <= 100

    def test_maglev_tables(self, monkeypatch, empty_memos):
        monkeypatch.setattr(loadbalancer, "_MAGLEV_TABLES_LIMIT", 2)
        tables = [
            MaglevLoadBalancer.with_backend_count(count).lookup_table for count in (2, 3, 4, 5)
        ]
        assert len(MAGLEV_TABLES) <= 2
        for count, table in zip((2, 3, 4, 5), tables):
            fresh = MaglevLoadBalancer.with_backend_count(count)
            assert fresh.lookup_table == table
            assert list(table) == fresh._populate()

    def test_prefix_states(self, monkeypatch, empty_memos):
        monkeypatch.setattr(MaglevLoadBalancer, "MEMO_ENTRIES", 4)
        balancer = MaglevLoadBalancer.with_backend_count(4)
        balancer.enable_fast_path()
        for rounds in range(2):
            for host in range(10):
                flow = FiveTuple(
                    IPv4Address(0x0A000001 + host), IPv4Address(0x0A640001),
                    PROTO_UDP, 1000 + rounds, 80,
                )
                expected = balancer.lookup_table[flow_hash(flow.key()) % balancer.table_size]
                assert balancer.backend_for(flow) is balancer.backends[expected]
                assert len(PREFIX_STATES) <= 4


def _observed_exports(tmp_path, name):
    """Every byte a metrics-and-trace run of one deployment exports."""
    scenario = dataclasses.replace(
        scenarios.fw_nat_lb_10ge(10.5), observe=ObserveSpec(metrics=True, trace=True)
    )
    sink = ObservationSink()
    with observation_sink(sink):
        ExperimentRunner(time_scale=0.05).run_deployment(scenario, DeploymentKind.PAYLOADPARK)
    (observation,) = sink.observations
    paths = write_observation(observation, tmp_path / name, "run")
    assert any(path.name.endswith(".metrics.json") for path in paths)
    return {path.name: path.read_bytes() for path in paths}


def test_exports_do_not_depend_on_what_ran_before(tmp_path, empty_memos):
    fresh = _observed_exports(tmp_path, "fresh")
    assert b"cache_hit_ratio" in fresh["run.metrics.json"]
    ExperimentRunner(time_scale=0.05).compare(scenarios.fw_nat_lb_10ge(9.0))
    assert _observed_exports(tmp_path, "after") == fresh
