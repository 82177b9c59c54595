"""One testbed: every scenario, N = 1 included, is wired and reported through one path.

The layout, the per-generator seeds and the per-server RNG seeds pinned
here decide every golden table; they are what the separate single- and
multi-server topology classes used to produce.
"""

import random
from dataclasses import replace

import pytest

from repro.core.config import NfServerBinding
from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    default_binding,
    multi_server_bindings,
    run_options,
)
from repro.experiments.scenarios import fw_nat_lb_10ge, multi_server_384b
from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.orchestrator.executor import flatten_comparison
from repro.telemetry.report import fold_reports

#: First switch port of server i: two servers per 16-port pipe, four ports apart.
BASE_PORTS = (0, 4, 16, 20, 32, 36, 48, 52)

DEPLOYMENTS = pytest.mark.parametrize(
    "deployment", list(DeploymentKind), ids=lambda kind: kind.value
)


@DEPLOYMENTS
@pytest.mark.parametrize("server_count", [1, 2, 8])
def test_layout_and_seeds_for_any_server_count(server_count, deployment):
    scenario = multi_server_384b(server_count=server_count)
    topology, program = ExperimentRunner()._build_testbed(scenario, deployment)
    assert topology.program is program
    assert len(topology.attachments) == server_count
    for index, attachment in enumerate(topology.attachments):
        base = BASE_PORTS[index]
        assert attachment.binding == NfServerBinding(
            name=f"srv{index}",
            ingress_ports=(base, base + 1),
            nf_port=base + 2,
            default_egress_port=base,
        )
        pktgen, server = attachment.pktgen, attachment.server
        assert (pktgen.name, server.name) == (f"pktgen-srv{index}", f"server-srv{index}")
        assert pktgen.config.seed == scenario.seed + index
        assert server._rng.getstate() == random.Random(index + 1).getstate()
        assert [topology.switch.links[base + port] for port in (0, 1)] == attachment.gen_links
        assert [pktgen.links[port] for port in (0, 1)] == attachment.gen_links
        assert topology.switch.links[base + 2] is attachment.server_link is server.links[0]
    assert len(topology.switch.links) == 3 * server_count


def test_the_single_server_binding_is_the_first_of_the_layout():
    assert [default_binding()] == multi_server_bindings(1)
    assert default_binding() == NfServerBinding("srv0", (0, 1), 2, 0)


@pytest.mark.parametrize("server_count", [1, 2])
@pytest.mark.parametrize("reference", [False, True], ids=["default", "reference"])
def test_the_engine_is_chosen_where_the_testbed_is_built(reference, server_count):
    with run_options(reference=reference):
        runner = ExperimentRunner()
    scenario = replace(fw_nat_lb_10ge(), server_count=server_count)
    topology, program = runner._build_testbed(scenario, DeploymentKind.PAYLOADPARK)
    assert type(topology.env) is (EventLoop if reference else FastEventLoop)
    assert program.fast_path is not reference
    for attachment in topology.attachments:
        # Reference runs build every frame by parsing and query the cost model live.
        assert attachment.pktgen.config.pooled is not reference
        assert (attachment.pktgen.source._pool is None) is reference
        assert (attachment.server._bottleneck_ns is None) is reference
        firewall = next(iter(attachment.server.model.chain))
        assert firewall.fast_path is not reference


def test_a_rate_above_the_generator_link_is_refused_at_declaration():
    # The generator's own egress would drop the excess, and a finite
    # 1e308 Gb/s paced the generator at the 1 ns floor without end.
    with pytest.raises(ValueError, match=r"send_rate_gbps 44 exceeds gen_link_gbps 40"):
        replace(fw_nat_lb_10ge(), gen_link_gbps=40.0, send_rate_gbps=44.0)
    at_link = fw_nat_lb_10ge(send_rate_gbps=100.0)
    assert at_link.gen_link_gbps == 100.0
    with pytest.raises(ValueError, match=r"send_rate_gbps 1e\+308 exceeds gen_link_gbps 100"):
        at_link.with_rate(1e308)


def test_explicit_bindings_replace_the_default_layout():
    scenario = multi_server_384b(server_count=2)
    bindings = [
        replace(binding, memory_weight=weight)
        for binding, weight in zip(multi_server_bindings(2), (3.0, 1.0))
    ]
    topology, program = ExperimentRunner()._build_testbed(
        scenario, DeploymentKind.PAYLOADPARK, bindings
    )
    assert [a.binding.memory_weight for a in topology.attachments] == [3.0, 1.0]
    assert program.bindings == bindings


@DEPLOYMENTS
def test_a_single_server_run_folds_to_its_own_report(deployment):
    runner = ExperimentRunner(time_scale=0.2)
    scenario = fw_nat_lb_10ge(send_rate_gbps=14.0)
    (report,) = runner.run_servers(scenario, deployment)
    assert report.drop_breakdown["link_drops"] > 0
    assert fold_reports([report]) == report
    assert runner.run_deployment(scenario, deployment) == report


def test_compare_cells_carry_the_drop_breakdown_for_any_server_count():
    runner = ExperimentRunner(time_scale=0.2)
    one = runner.compare(multi_server_384b(server_count=1, send_rate_gbps=14.0))
    two = runner.compare(multi_server_384b(server_count=2, send_rate_gbps=14.0))
    assert (len(one.per_server), len(two.per_server)) == (1, 2)
    one_cell = flatten_comparison(one.comparison)
    two_cell = flatten_comparison(two.comparison)
    drop_keys = {key for key in one_cell if "_drop_" in key}
    assert {"baseline_drop_link_drops", "payloadpark_drop_server_overflow"} <= drop_keys
    assert {key for key in two_cell if "_drop_" in key} == drop_keys
    assert two_cell["baseline_drop_link_drops"] > 0
    for deployment in ("baseline", "payloadpark"):
        servers = [getattr(comparison, deployment) for comparison in two.per_server]
        for key in servers[0].drop_breakdown:
            assert two_cell[f"{deployment}_drop_{key}"] == sum(
                server.drop_breakdown[key] for server in servers
            )
