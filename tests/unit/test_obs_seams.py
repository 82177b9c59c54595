"""Unit tests for the seam undo log the observability instruments share
(``repro.obs.plane``), and for the flight recorder's seam table."""

import dataclasses
import inspect

import pytest

from repro.core.program import PayloadParkProgram, SwitchProgram
from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import workload_scenario
from repro.faults.injector import FaultInjectorNode
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.obs.config import ObserveSpec
from repro.obs.plane import ObservabilityPlane, SeamPatches, seam_owners
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import EVENTS

#: The engine class behind each role of :func:`seam_owners`.
ROLE_CLASSES = {
    "program": SwitchProgram,
    "payloadpark": PayloadParkProgram,
    "server": NfServerNode,
    "pktgen": TrafficGenNode,
    "link": Link,
    "fault_injector": FaultInjectorNode,
}


class _Server:
    """A class method and a callback bound in ``__init__``."""

    def __init__(self):
        self.calls = []
        self._on_complete = self._complete

    def handle_packet(self, packet):
        self.calls.append(packet)
        return packet

    def _complete(self, packet):
        self.calls.append(packet)


def _tagging(log, tag):
    def wrap(method):
        def wrapper(*args):
            log.append(tag)
            return method(*args)

        return wrapper

    return wrap


class TestSeamPatches:
    @pytest.mark.parametrize("name", ["handle_packet", "_on_complete"])
    def test_two_instruments_on_one_seam_unwind_newest_first(self, name):
        server, patches, log = _Server(), SeamPatches(), []
        before = dict(vars(server))
        patches.patch(server, name, _tagging(log, "first"))
        patches.patch(server, name, _tagging(log, "second"))
        getattr(server, name)("frame")
        assert log == ["second", "first"] and server.calls == ["frame"]
        patches.restore()
        assert vars(server) == before
        method = getattr(server, name)
        assert inspect.ismethod(method) and method.__self__ is server
        assert "handle_packet" in vars(_Server) and "_complete" in vars(_Server)

    def test_a_wrap_that_raises_leaves_nothing_to_undo(self):
        server, patches = _Server(), SeamPatches()

        def broken(method):
            raise RuntimeError("no wrapper")

        with pytest.raises(RuntimeError):
            patches.patch(server, "handle_packet", broken)
        patches.restore()
        assert "handle_packet" not in vars(server)

    def test_an_attach_that_raises_restores_every_instrument(self, monkeypatch):
        scenario = dataclasses.replace(
            workload_scenario("enterprise-poisson", chain="fw_nat_lb"), faults="park-drain"
        )
        topology, program = ExperimentRunner()._build_testbed(
            scenario, DeploymentKind.PAYLOADPARK
        )
        owners = seam_owners(topology, program)
        everyone = [owner for role in owners.values() for owner in role]
        before = [dict(vars(owner)) for owner in everyone]

        def failing(self, patches, owners):
            # The recorder has wrapped its seams.
            assert "handle_packet" in vars(topology.attachments[0].pktgen)
            assert "drain_parked" in vars(program)
            raise RuntimeError("profiler failed to attach")

        monkeypatch.setattr(PhaseProfiler, "wrap", failing)
        plane = ObservabilityPlane(
            ObserveSpec(metrics=True, trace=True, profile=True), topology.env
        )
        with pytest.raises(RuntimeError, match="failed to attach"):
            plane.attach(topology, program)
        assert [dict(vars(owner)) for owner in everyone] == before


@pytest.mark.parametrize(
    "role, name",
    sorted({seam for seams in EVENTS.values() for seam in seams}),
    ids=lambda value: value,
)
def test_every_event_seam_is_an_engine_method_or_init_bound_callback(role, name):
    """A seam the engine cannot resolve per call would record nothing."""
    cls = ROLE_CLASSES[role]
    assert callable(getattr(cls, name, None)) or name in cls.__init__.__code__.co_names
