"""Unit tests for the phase profiler: exclusive time, residual, report,
and the seam wrappers it installs on one testbed's instances."""

import time
from types import SimpleNamespace

import pytest

from repro.core.program import SwitchProgram
from repro.faults.injector import FaultInjectorNode
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.obs.plane import SeamPatches, seam_owners
from repro.obs.profiler import DISPATCH_STAGE, STAGES, PhaseProfiler
from repro.obs.schema import validate_profile


def _spin(duration_s: float = 0.001) -> None:
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        pass


class TestPhaseProfiler:
    def test_enter_exit_counts_events(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            profiler.enter("pipeline_walk")
            profiler.exit()
        profiler.enter("nf_processing")
        profiler.exit()
        report = profiler.report()
        events = {stage["name"]: stage["events"] for stage in report["stages"]}
        assert events["pipeline_walk"] == 3
        assert events["nf_processing"] == 1

    def test_nested_stages_get_exclusive_time(self):
        profiler = PhaseProfiler()
        with profiler.measure_total():
            profiler.enter("outer")
            _spin()
            profiler.enter("inner")
            _spin()
            profiler.exit()
            profiler.exit()
        report = profiler.report()
        stages = {stage["name"]: stage for stage in report["stages"]}
        # Inner time is credited to inner only, not double-counted.
        assert stages["inner"]["wall_ns"] > 0
        assert stages["outer"]["wall_ns"] > 0
        total_named = sum(
            stage["wall_ns"] for stage in report["stages"]
        )
        assert total_named == report["total_wall_ns"]

    def test_residual_dispatch_stage_completes_attribution(self):
        profiler = PhaseProfiler()
        with profiler.measure_total():
            profiler.enter("pipeline_walk")
            _spin()
            profiler.exit()
            _spin()  # unattributed time -> event_dispatch residual
        report = validate_profile(profiler.report())
        names = [stage["name"] for stage in report["stages"]]
        assert DISPATCH_STAGE in names
        assert report["attributed_fraction"] == pytest.approx(1.0)
        assert 0.0 < report["measured_fraction"] <= 1.0

    def test_report_without_measure_total_has_no_residual(self):
        profiler = PhaseProfiler()
        profiler.enter("pipeline_walk")
        _spin()
        profiler.exit()
        report = profiler.report()
        assert report["total_wall_ns"] == 0
        assert DISPATCH_STAGE not in [stage["name"] for stage in report["stages"]]

    def test_measure_total_accumulates_across_windows(self):
        profiler = PhaseProfiler()
        with profiler.measure_total():
            _spin()
        first = profiler.total_wall_ns
        with profiler.measure_total():
            _spin()
        assert profiler.total_wall_ns > first

    def test_stages_sorted_by_wall_time(self):
        profiler = PhaseProfiler()
        with profiler.measure_total():
            profiler.enter("short")
            profiler.exit()
            profiler.enter("long")
            _spin(0.002)
            profiler.exit()
        report = profiler.report()
        walls = [stage["wall_ns"] for stage in report["stages"]]
        assert walls == sorted(walls, reverse=True)
        assert report["stages"][0]["name"] == "long"

    def test_fractions_sum_to_at_most_one(self):
        profiler = PhaseProfiler()
        with profiler.measure_total():
            for name in ("a", "b", "c"):
                profiler.enter(name)
                _spin(0.0005)
                profiler.exit()
        report = validate_profile(profiler.report())
        assert sum(stage["fraction"] for stage in report["stages"]) <= 1.0 + 1e-9


#: The engine class behind each role of :func:`seam_owners`.
ROLE_CLASSES = {
    "program": SwitchProgram,
    "server": NfServerNode,
    "pktgen": TrafficGenNode,
    "link": Link,
    "fault_injector": FaultInjectorNode,
}


class _Program:
    """A stand-in program: ``process`` calls the link, so seams nest."""

    def __init__(self, link=None):
        self.link = link

    def process(self, value):
        if self.link is not None:
            self.link.transmit(value)
        return value * 2


class _Link:
    def transmit(self, value):
        _spin(0.0005)
        if value < 0:
            raise ValueError("negative frame")


class _Server:
    """Binds its completion callback in ``__init__``, as the engine's does."""

    def __init__(self):
        self.completed = []
        self._on_complete = self._complete

    def handle_packet(self, packet, port):
        return packet

    def _complete(self, packet):
        self.completed.append(packet)


class _Pktgen:
    def _emit_burst(self):
        return None


def _testbed(injector=None):
    link, server, pktgen = _Link(), _Server(), _Pktgen()
    attachment = SimpleNamespace(
        server=server, pktgen=pktgen, gen_links=(link,), server_link=_Link()
    )
    topology = SimpleNamespace(
        switch=SimpleNamespace(), attachments=(attachment,), fault_injector=injector
    )
    return topology, _Program(link), attachment


def _events(profiler):
    return {row["name"]: row["events"] for row in profiler.report()["stages"]}


class TestSeamWrapping:
    def test_a_wrapped_seam_is_timed_and_returns_its_value(self):
        topology, program, _ = _testbed()
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        try:
            assert program.process(3) == 6
        finally:
            patches.restore()
        assert _events(profiler) == {"pipeline_walk": 1, "link_transmit": 1}

    def test_nested_seams_get_exclusive_time(self):
        topology, program, _ = _testbed()
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        try:
            with profiler.measure_total():
                program.process(1)
        finally:
            patches.restore()
        stages = {row["name"]: row for row in profiler.report()["stages"]}
        # The link's spin is credited to link_transmit, not to the
        # pipeline walk that called it.
        assert stages["link_transmit"]["wall_ns"] > stages["pipeline_walk"]["wall_ns"]
        assert sum(row["wall_ns"] for row in stages.values()) == profiler.total_wall_ns

    def test_a_raising_seam_closes_its_frames(self):
        topology, program, _ = _testbed()
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        try:
            with pytest.raises(ValueError, match="negative frame"):
                program.process(-1)
            assert program.process(2) == 4
        finally:
            patches.restore()
        assert profiler._stack == []
        assert _events(profiler) == {"pipeline_walk": 2, "link_transmit": 2}

    def test_wrappers_live_on_instances_and_restore_removes_them(self):
        topology, program, attachment = _testbed()
        classes = {cls: dict(vars(cls)) for cls in (_Program, _Link, _Server, _Pktgen)}
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        assert "process" in vars(program)
        assert "transmit" in vars(attachment.server_link)
        assert {cls: dict(vars(cls)) for cls in classes} == classes
        patches.restore()
        for owner, name in (
            (program, "process"),
            (attachment.gen_links[0], "transmit"),
            (attachment.server_link, "transmit"),
            (attachment.server, "handle_packet"),
            (attachment.pktgen, "_emit_burst"),
        ):
            assert name not in vars(owner)
        assert {cls: dict(vars(cls)) for cls in classes} == classes

    def test_restore_puts_back_a_callback_bound_in_init(self):
        topology, program, attachment = _testbed()
        server = attachment.server
        bound = server._on_complete
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        assert server._on_complete is not bound
        server._on_complete("frame")
        patches.restore()
        assert server._on_complete is bound
        assert server.completed == ["frame"]
        assert _events(profiler) == {"nf_processing": 1}

    def test_restore_twice_is_a_no_op(self):
        topology, program, _ = _testbed()
        profiler, patches = PhaseProfiler(), SeamPatches()
        profiler.wrap(patches, seam_owners(topology, program))
        patches.restore()
        patches.restore()
        assert "process" not in vars(program)
        assert program.process(1) == 2
        assert _events(profiler) == {}

    def test_a_testbed_without_an_injector_has_no_fault_seam(self):
        topology, program, attachment = _testbed()
        owners = seam_owners(topology, program)
        assert owners["fault_injector"] == ()
        assert owners["link"] == (*attachment.gen_links, attachment.server_link)
        injector = SimpleNamespace(_apply=lambda event: None)
        topology, program, _ = _testbed(injector)
        assert seam_owners(topology, program)["fault_injector"] == (injector,)


@pytest.mark.parametrize(
    "role, name",
    [seam for seams in STAGES.values() for seam in seams],
    ids=lambda value: value,
)
def test_every_seam_is_an_engine_method_or_init_bound_callback(role, name):
    """A seam the engine cannot resolve per call would time nothing."""
    cls = ROLE_CLASSES[role]
    assert callable(getattr(cls, name, None)) or name in cls.__init__.__code__.co_names
