"""The experiment runner: build a testbed, run it, report metrics.

A :class:`ScenarioConfig` describes one operating point (chain, NF
framework, NIC, workload, offered rate, PayloadPark parameters, server
count and simulation horizon).  :class:`ExperimentRunner` materializes
it twice — once with the PayloadPark program, once with the baseline
L2-forwarding program — through one path whatever the server count:

* :meth:`ExperimentRunner._build_testbed` wires the
  :class:`~repro.netsim.topology.Topology` and is the one place the
  engine (default or reference, see :attr:`RunOptions.reference`) is
  chosen;
* :meth:`ExperimentRunner.run_servers` runs it and returns one
  :class:`~repro.telemetry.report.DeploymentReport` per NF server;
* :meth:`ExperimentRunner.run_deployment` folds those into the
  chip-level report and :meth:`ExperimentRunner.compare` pairs the two
  deployments, chip-level and per server.

A peak-goodput search over :meth:`~ExperimentRunner.run_deployment`
serves the §6.3.1 memory sweep.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional, Tuple

from repro.core.config import DOMAINS as PAYLOADPARK_DOMAINS
from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.program import BaselineProgram, PayloadParkProgram, SwitchProgram
from repro.errors import (
    EmptyWindowError,
    require_integer,
    require_non_negative_finite,
    require_positive_finite,
)
from repro.experiments.chains import ChainFactory, fw_nat
from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.netsim.nic import NicSpec, NIC_10GE
from repro.netsim.topology import Topology
from repro.nf.framework import OPENNETVM, NfFramework
from repro.nf.server import NfServerConfig, NfServerModel
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES
from repro.telemetry.goodput import gbps
from repro.telemetry.latency import LatencyRecorder
from repro.telemetry.report import ComparisonReport, DeploymentReport, fold_reports
from repro.traffic.pktgen import PktGenConfig
from repro.traffic.workload import Workload
from repro.workloads.base import TrafficModel


class DeploymentKind(enum.Enum):
    """Which switch program a run uses."""

    BASELINE = "baseline"
    PAYLOADPARK = "payloadpark"


#: Seed scenarios use when the run options name none.
DEFAULT_SEED = 42

@dataclass(frozen=True)
class RunOptions:
    """What every run inside a :func:`run_options` block inherits.

    The CLI's ``repro run`` flags and the validation relations set
    these once around an experiment instead of threading
    parameters through each experiment module; the specs are validated
    on construction, so a typo fails before any simulation starts.

    Attributes
    ----------
    seed:
        Seed for scenarios (and samplers with their own historical
        default, see :meth:`seed_or`); ``None`` leaves each its default.
    time_scale:
        Simulated-duration multiplier for runners built without an
        explicit one; ``None`` means 1.0 unless the experiment has its
        own default (the chaos experiment runs at 0.2).
    faults:
        Fault spec attached to every built scenario (a profile name or
        an inline dict, see :mod:`repro.faults`).
    observe:
        Observability spec for every built scenario (a bool, a dict or
        an :class:`~repro.obs.config.ObserveSpec`).
    reference:
        Run on the reference engine — heapq event loop, parsed packet
        construction, per-stage table walks, live cost-model queries —
        instead of the default one.  Results are byte-identical; only
        the golden suite and the ``fast_slow`` relation set it, to diff
        the default engine against its oracle.
    """

    seed: Optional[int] = None
    time_scale: Optional[float] = None
    faults: Optional[object] = None
    observe: Optional[object] = None
    reference: bool = False

    def __post_init__(self) -> None:
        if self.time_scale is not None:
            require_positive_finite("time_scale", self.time_scale)
        # Imported lazily: the fault and observability packages layer on
        # top of the runner.
        if self.faults is not None:
            from repro.faults.schedule import EventSchedule

            EventSchedule.from_spec(self.faults)  # raises FaultSpecError
        if self.observe is not None:
            from repro.obs.config import ObserveSpec

            ObserveSpec.from_spec(self.observe)  # raises ObserveSpecError

    def seed_or(self, fallback: int) -> int:
        """The requested seed, or *fallback* when none was requested."""
        return fallback if self.seed is None else self.seed


#: Options installed by the innermost :func:`run_options` block.
_OPTIONS = RunOptions()


def current_options() -> RunOptions:
    """The options in force (all defaults outside any block)."""
    return _OPTIONS


@contextmanager
def run_options(**overrides):
    """Override the named :class:`RunOptions` fields inside the block.

    Blocks nest: fields an inner block does not name keep the outer
    block's values, and the previous options return on exit.
    """
    global _OPTIONS
    previous = _OPTIONS
    _OPTIONS = replace(previous, **overrides)
    try:
        yield _OPTIONS
    finally:
        _OPTIONS = previous


#: Observer installed by :func:`run_observer` (None = no observer).
_RUN_OBSERVER: Optional["RunObserver"] = None


class RunObserver:
    """Hook interface for watching deployment runs end to end.

    The validation subsystem installs one via :func:`run_observer` to
    attach invariant checking to *any* simulation run — experiments,
    campaigns and the fuzzer all funnel through
    :meth:`ExperimentRunner._execute`, which calls these hooks.
    """

    def on_run_start(self, scenario, deployment, topology, program) -> None:
        """Called after the testbed is wired, before traffic starts."""

    def on_run_end(self, scenario, deployment, topology, program, reports) -> None:
        """Called after the horizon is reached and reports are built."""


def current_run_observer() -> Optional[RunObserver]:
    """The observer deployment runs report to, if any."""
    return _RUN_OBSERVER


@contextmanager
def run_observer(observer: RunObserver):
    """Attach *observer* to every deployment run inside the context.

    Nested installations stack (the innermost wins), mirroring
    :func:`run_options`.
    """
    global _RUN_OBSERVER
    previous = _RUN_OBSERVER
    _RUN_OBSERVER = observer
    try:
        yield observer
    finally:
        _RUN_OBSERVER = previous


def multi_server_bindings(server_count: int, servers_per_pipe: int = 2) -> List[NfServerBinding]:
    """The testbed's port layout: per server two traffic ports and one NF port.

    Servers fill the pipes ``servers_per_pipe`` at a time (§6.2.3 runs
    two per pipe); one server is the Fig. 5 layout.
    """
    if server_count <= 0:
        raise ValueError("server_count must be positive")
    bindings = []
    for index in range(server_count):
        pipe = index // servers_per_pipe
        slot = index % servers_per_pipe
        base = pipe * 16 + slot * 4
        bindings.append(
            NfServerBinding(
                name=f"srv{index}",
                ingress_ports=(base, base + 1),
                nf_port=base + 2,
                default_egress_port=base,
            )
        )
    return bindings


def default_binding() -> NfServerBinding:
    """The Fig. 5 single-server binding."""
    return multi_server_bindings(1)[0]


def _override(domain: Optional[Callable[[str, object], None]] = None, **kwargs):
    """A :class:`ScenarioConfig` field a campaign may set by its name.

    The marked fields are ``repro.orchestrator.spec.SCENARIO_OVERRIDES``.
    *domain* raises ``ValueError``, naming the field, for a value outside
    it; ``ScenarioConfig`` and ``CampaignSpec`` both check it through
    :func:`check_override`.
    """
    return field(metadata={"override": True, "domain": domain}, **kwargs)


_positive_integer = partial(require_integer, minimum=1)


@dataclass
class ScenarioConfig:
    """One experiment operating point."""

    name: str
    chain_factory: ChainFactory = field(default_factory=fw_nat)
    framework: NfFramework = OPENNETVM
    nic: NicSpec = NIC_10GE
    workload: Workload = field(default_factory=Workload.enterprise)
    send_rate_gbps: float = _override(default=8.0)
    payloadpark: PayloadParkConfig = field(default_factory=PayloadParkConfig)
    duration_us: float = _override(require_positive_finite, default=6_000.0)
    warmup_us: float = _override(require_non_negative_finite, default=1_500.0)
    server_count: int = _override(_positive_integer, default=1)
    explicit_drop: bool = _override(default=False)
    service_jitter: float = _override(require_non_negative_finite, default=0.3)
    cpu_ghz: float = _override(require_positive_finite, default=2.3)
    gen_link_gbps: float = _override(require_positive_finite, default=100.0)
    seed: int = _override(
        require_integer, default_factory=lambda: current_options().seed_or(DEFAULT_SEED)
    )
    burst_size: int = _override(_positive_integer, default=32)
    #: Optional dynamic traffic bundle (schedule, arrival model, packet
    #: source, replay stream) built by the workload subsystem; None keeps
    #: the legacy constant-rate PacketFactory path.
    traffic_model: Optional[TrafficModel] = None
    #: Optional fault-injection spec (see :mod:`repro.faults`): a
    #: registered profile name, an inline schedule dict, or an
    #: :class:`~repro.faults.schedule.EventSchedule`.  Kept as plain data
    #: so scenarios stay picklable and campaign grids can sweep it; the
    #: runner materializes it into a
    #: :class:`~repro.faults.injector.FaultInjectorNode` per run.
    faults: Optional[object] = _override(default_factory=lambda: current_options().faults)
    #: Optional observability spec (see :mod:`repro.obs`): ``None``/bool,
    #: an inline dict, or an :class:`~repro.obs.config.ObserveSpec`.
    #: Plain data for the same picklability reasons as ``faults``; the
    #: runner materializes it into an
    #: :class:`~repro.obs.plane.ObservabilityPlane` per deployment run.
    #: Everything defaults off — the uninstrumented hot path is gated at
    #: <2% overhead by ``repro bench --obs-check``.
    observe: Optional[object] = field(default_factory=lambda: current_options().observe)

    def __post_init__(self) -> None:
        for name, domain in _OVERRIDE_DOMAINS.items():
            domain(name, getattr(self, name))
        # A non-finite rate is PktGenConfig's error (require_positive_finite).
        if math.isfinite(self.send_rate_gbps) and self.send_rate_gbps > self.gen_link_gbps:
            raise ValueError(
                f"send_rate_gbps {self.send_rate_gbps:g} exceeds gen_link_gbps "
                f"{self.gen_link_gbps:g}: the generator's own link drops the excess"
            )

    def with_rate(self, rate_gbps: float) -> "ScenarioConfig":
        """A copy of this scenario at a different offered rate.

        Workload-driven scenarios keep their traffic model in step: a
        schedule or replay stream carries its own rate, so it must be
        rebuilt at the new mean or rate probes (the peak-goodput search)
        would keep offering the nominal load.
        """
        traffic_model = self.traffic_model
        if traffic_model is not None and traffic_model.rescale is not None:
            traffic_model = traffic_model.rescale(rate_gbps)
        return replace(self, send_rate_gbps=rate_gbps, traffic_model=traffic_model)


#: Override name -> its declared domain check.
_OVERRIDE_DOMAINS = {
    spec.name: spec.metadata["domain"]
    for spec in fields(ScenarioConfig)
    if spec.metadata.get("domain") is not None
}


def check_override(name: str, value: object) -> None:
    """Raise ``ValueError`` if *value* is outside override *name*'s declared
    domain: a ``ScenarioConfig`` field's, or a ``PayloadParkConfig`` one's."""
    domain = _OVERRIDE_DOMAINS.get(name) or PAYLOADPARK_DOMAINS.get(name)
    if domain is not None:
        domain(name, value)


@dataclass
class ExperimentResult:
    """Everything a benchmark needs from one scenario execution."""

    scenario: ScenarioConfig
    comparison: ComparisonReport
    per_server: List[ComparisonReport] = field(default_factory=list)

    @property
    def goodput_gain_percent(self) -> float:
        """Headline goodput gain of the scenario."""
        return self.comparison.goodput_gain_percent


class ExperimentRunner:
    """Builds and runs simulated testbeds for scenarios.

    Parameters
    ----------
    time_scale:
        Multiplier applied to every scenario's simulated duration and
        warm-up.  Tests and smoke runs use values below 1.0 to keep the
        full figure sweeps fast; results converge for scales ≥ 0.5 at the
        packet rates used in the paper.  ``None`` (the default) resolves
        through :func:`current_options`, so the CLI's ``--time-scale``
        flag reaches experiments that build their own runner.

    The engine (default or reference, see :attr:`RunOptions.reference`)
    is likewise fixed from the options in force at construction.
    """

    def __init__(self, time_scale: Optional[float] = None) -> None:
        options = current_options()
        if time_scale is None:
            time_scale = options.time_scale or 1.0
        require_positive_finite("time_scale", time_scale)
        self.time_scale = time_scale
        self.reference = options.reference

    # ------------------------------------------------------------------ #
    # Runs (one server is N = 1)
    # ------------------------------------------------------------------ #

    def run_servers(
        self,
        scenario: ScenarioConfig,
        deployment: DeploymentKind,
        bindings: Optional[List[NfServerBinding]] = None,
    ) -> List[DeploymentReport]:
        """Run one deployment of a scenario; return one report per NF server.

        *bindings* replaces the scenario's default port layout (see
        :meth:`_build_testbed`).
        """
        topology, program = self._build_testbed(scenario, deployment, bindings)
        return self._execute(scenario, deployment, topology, program)

    def run_deployment(
        self, scenario: ScenarioConfig, deployment: DeploymentKind
    ) -> DeploymentReport:
        """Run one deployment of a scenario and report chip-level metrics.

        The per-server reports stay reachable as ``report.servers``.
        """
        return fold_reports(self.run_servers(scenario, deployment))

    def compare(self, scenario: ScenarioConfig) -> ExperimentResult:
        """Run baseline and PayloadPark at the same operating point."""
        # Through run_deployment, not run_servers: the perf ledger's tracer
        # roots every run's spans in that method.
        return self.compare_against(
            scenario, self.run_deployment(scenario, DeploymentKind.BASELINE)
        )

    def compare_against(
        self, scenario: ScenarioConfig, baseline: DeploymentReport
    ) -> ExperimentResult:
        """Run PayloadPark and pair it with *baseline*, this scenario's
        baseline report (from :meth:`compare`, or a campaign's shared run).
        """
        payloadpark = self.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        return ExperimentResult(
            scenario=scenario,
            comparison=ComparisonReport(baseline=baseline, payloadpark=payloadpark),
            per_server=[
                ComparisonReport(baseline=base, payloadpark=park)
                for base, park in zip(baseline.servers, payloadpark.servers)
            ],
        )

    # ------------------------------------------------------------------ #
    # Peak-goodput search (Fig. 14)
    # ------------------------------------------------------------------ #

    def peak_goodput(
        self,
        scenario: ScenarioConfig,
        deployment: DeploymentKind = DeploymentKind.PAYLOADPARK,
        require_zero_premature_evictions: bool = True,
        rate_bounds_gbps: Tuple[float, float] = (1.0, 60.0),
        tolerance_gbps: float = 1.0,
    ) -> Tuple[float, DeploymentReport]:
        """Binary-search the highest offered rate that keeps the system healthy.

        The §6.3.1 definition: the system must keep its drop rate under
        0.1 % and (for PayloadPark) record zero premature payload
        evictions.  Returns the peak send rate and the report at it.
        """

        def is_acceptable(report: DeploymentReport) -> bool:
            if not report.healthy:
                return False
            if (
                require_zero_premature_evictions
                and deployment is DeploymentKind.PAYLOADPARK
                and report.premature_evictions > 0
            ):
                return False
            return True

        low, high = rate_bounds_gbps
        best_rate = low
        best_report = self.run_deployment(scenario.with_rate(low), deployment)
        if not is_acceptable(best_report):
            return low, best_report
        while high - low > tolerance_gbps:
            middle = (low + high) / 2.0
            report = self.run_deployment(scenario.with_rate(middle), deployment)
            if is_acceptable(report):
                low = middle
                best_rate, best_report = middle, report
            else:
                high = middle
        return best_rate, best_report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _build_testbed(
        self,
        scenario: ScenarioConfig,
        deployment: DeploymentKind,
        bindings: Optional[List[NfServerBinding]] = None,
    ) -> Tuple[Topology, SwitchProgram]:
        """Wire the scenario's testbed: program, servers, generators, faults.

        One NF server per binding (default: ``scenario.server_count``
        servers in the :func:`multi_server_bindings` layout), generator
        *i* seeded ``scenario.seed + i``.  This is the only place a
        testbed's engine is chosen: the reference engine gets the heapq
        event loop, parsed packet construction, per-stage table walks and
        live cost-model queries; the default one their fast counterparts.
        """
        default_engine = not self.reference
        if bindings is None:
            bindings = multi_server_bindings(scenario.server_count)
        if deployment is DeploymentKind.BASELINE:
            program: SwitchProgram = BaselineProgram(bindings)
        else:
            pp_config = replace(scenario.payloadpark, bindings=[])
            program = PayloadParkProgram(pp_config, bindings=bindings)
        models = [self._build_server_model(scenario) for _ in bindings]
        if default_engine:
            program.enable_fast_path()
            for model in models:
                for nf in model.chain:
                    nf.enable_fast_path()
        pktgen_configs = [
            PktGenConfig(
                rate_gbps=scenario.send_rate_gbps,
                workload=scenario.workload,
                burst_size=scenario.burst_size,
                seed=scenario.seed + index,
                pooled=default_engine,
            )
            for index in range(len(bindings))
        ]
        topology = Topology(
            FastEventLoop() if default_engine else EventLoop(),
            program,
            server_models=models,
            pktgen_configs=pktgen_configs,
            nic_spec=scenario.nic,
            gen_link_gbps=scenario.gen_link_gbps,
            traffic_model=scenario.traffic_model,
            cache_cost_model=default_engine,
        )
        self._attach_faults(scenario, topology, program)
        return topology, program

    @staticmethod
    def _build_server_model(scenario: ScenarioConfig) -> NfServerModel:
        config = NfServerConfig(
            cpu_ghz=scenario.cpu_ghz,
            framework=scenario.framework,
            explicit_drop=scenario.explicit_drop,
            service_jitter=scenario.service_jitter,
        )
        return NfServerModel(chain=scenario.chain_factory(), config=config)

    @staticmethod
    def _attach_faults(scenario: ScenarioConfig, topology, program: SwitchProgram) -> None:
        """Materialize the scenario's fault spec into an injector, if any."""
        if scenario.faults is None:
            return
        from repro.faults.injector import FaultInjectorNode
        from repro.faults.schedule import EventSchedule

        schedule = EventSchedule.from_spec(scenario.faults)
        topology.attach_fault_injector(
            FaultInjectorNode(
                topology.env, topology, program, schedule, seed=scenario.seed
            )
        )

    @staticmethod
    def _attach_observability(scenario: ScenarioConfig, topology, program):
        """Materialize the scenario's observe spec into a plane, if any.

        Imported lazily, like :meth:`_attach_faults` — the observability
        package layers on top of the runner.  Returns None when every
        feature is off, which keeps the run on the exact uninstrumented
        hot path.
        """
        if scenario.observe is None:
            return None
        from repro.obs.config import ObserveSpec
        from repro.obs.plane import ObservabilityPlane

        spec = ObserveSpec.from_spec(scenario.observe)
        if spec is None or not spec.enabled:
            return None
        plane = ObservabilityPlane(spec, topology.env)
        plane.attach(topology, program)
        return plane

    def _execute(
        self,
        scenario: ScenarioConfig,
        deployment: DeploymentKind,
        topology,
        program: SwitchProgram,
    ) -> List[DeploymentReport]:
        duration_ns = int(scenario.duration_us * 1_000 * self.time_scale)
        warmup_ns = int(scenario.warmup_us * 1_000 * self.time_scale)
        if warmup_ns >= duration_ns:
            raise ValueError("warmup must be shorter than the total duration")

        observer = current_run_observer()
        plane = self._attach_observability(scenario, topology, program)
        if observer is not None:
            observer.on_run_start(scenario, deployment, topology, program)
        topology.start_traffic(duration_ns)
        if plane is not None:
            plane.start(duration_ns)
        self._advance(topology, plane, warmup_ns)
        warm_snapshot = topology.snapshot()
        warm_counters = self._pp_counter_snapshot(program)
        warm_latency_counts = {
            attachment.binding.name: attachment.pktgen.latency.count
            for attachment in topology.attachments
        }
        self._advance(topology, plane, duration_ns)
        end_snapshot = topology.snapshot()
        end_counters = self._pp_counter_snapshot(program)

        window_ns = duration_ns - warmup_ns
        reports = []
        for attachment in topology.attachments:
            name = attachment.binding.name
            reports.append(
                self._report_for_attachment(
                    scenario,
                    deployment,
                    attachment,
                    window_ns,
                    warm_snapshot,
                    end_snapshot,
                    warm_counters.get(name, {}),
                    end_counters.get(name, {}),
                    warm_latency_counts[name],
                )
            )
        for report in reports:
            if not report.packets_sent:
                raise EmptyWindowError(
                    f"scenario {scenario.name!r} ({deployment.value}): the traffic "
                    f"generator sent 0 packets in the {window_ns / 1_000:g} µs "
                    f"measurement window at time scale {self.time_scale:g}; "
                    f"use a larger time scale"
                )
        if observer is not None:
            observer.on_run_end(scenario, deployment, topology, program, reports)
        if plane is not None:
            observation = plane.finalize(scenario, deployment.value, duration_ns)
            from repro.obs.session import current_observation_sink

            sink = current_observation_sink()
            if sink is not None:
                sink.add(observation)
        return reports

    @staticmethod
    def _advance(topology, plane, horizon_ns: int) -> None:
        """Run the event loop to *horizon_ns*, under the profiler if armed.

        ``measure_total`` brackets the whole dispatch loop so the profiler
        can attribute the un-instrumented residue to event dispatch.
        """
        if plane is not None and plane.profiler is not None:
            with plane.profiler.measure_total():
                topology.run_until(horizon_ns)
        else:
            topology.run_until(horizon_ns)

    @staticmethod
    def _pp_counter_snapshot(program: SwitchProgram):
        if not isinstance(program, PayloadParkProgram):
            return {}
        return {
            name: counters.as_dict()
            for name, counters in program.counters.counters.items()
        }

    def _report_for_attachment(
        self,
        scenario: ScenarioConfig,
        deployment: DeploymentKind,
        attachment,
        window_ns: int,
        warm_snapshot,
        end_snapshot,
        warm_pp_counters,
        end_pp_counters,
        warm_latency_count: int,
    ) -> DeploymentReport:
        name = attachment.binding.name
        gen_delta = _delta(end_snapshot[f"pktgen.{name}"], warm_snapshot[f"pktgen.{name}"])
        server_delta = _delta(end_snapshot[f"server.{name}"], warm_snapshot[f"server.{name}"])
        link_delta = _delta(end_snapshot[f"links.{name}"], warm_snapshot[f"links.{name}"])
        pp_delta = _delta(end_pp_counters, warm_pp_counters)

        latency: LatencyRecorder = attachment.pktgen.latency.since(warm_latency_count)
        sent = int(gen_delta.get("packets_sent", 0))
        received = int(gen_delta.get("packets_received", 0))
        chain_dropped = int(server_delta.get("chain_dropped_packets", 0))
        # Unintentional drops observed inside the measurement window: link
        # egress-buffer overflows, NIC/server overflows, and PayloadPark
        # packets lost to premature evictions or corrupted tags.  Packets the
        # NF chain deliberately dropped (firewall policy) and frames lost to
        # *injected* faults (link outages, loss windows — deliberate scenario
        # conditions, attributed by their own counters) do not count against
        # the §6.3.1 health criterion, or a peak-goodput search under a fault
        # schedule would collapse regardless of actual system health.
        dropped = int(
            link_delta.get("dropped_frames", 0)
            - link_delta.get("fault_drops", 0)
            + server_delta.get("overflow_drops", 0)
            + pp_delta.get("premature_evictions", 0)
            + pp_delta.get("tag_validation_failures", 0)
        )

        # Goodput from the switch's perspective: useful header bytes examined
        # by the NF server per second (§6.1 measures the data the NFs see),
        # the Ethernet/IPv4/UDP headers of every packet it processed.
        processed = server_delta.get("processed_packets", 0)
        goodput_to_nf = gbps(processed * float(ETHERNET_UDP_HEADER_BYTES), window_ns)
        delivered_goodput = gbps(gen_delta.get("useful_bytes_received", 0), window_ns)
        offered = gbps(gen_delta.get("bytes_sent", 0), window_ns)
        # Throughput counts every delivered useful byte, duplicates
        # included; it equals goodput exactly until a closed-loop
        # transport retransmits.
        throughput = gbps(
            gen_delta.get("useful_bytes_received", 0)
            + gen_delta.get("duplicate_bytes_received", 0),
            window_ns,
        )
        pcie_bytes = server_delta.get("pcie_rx_bytes", 0) + server_delta.get("pcie_tx_bytes", 0)

        report = DeploymentReport(
            deployment=deployment.value,
            send_rate_gbps=scenario.send_rate_gbps,
            duration_ns=window_ns,
            packets_sent=sent,
            packets_delivered=received,
            packets_dropped=dropped,
            goodput_to_nf_gbps=goodput_to_nf,
            delivered_goodput_gbps=delivered_goodput,
            offered_gbps=offered,
            avg_latency_us=latency.mean_us(),
            p99_latency_us=latency.percentile_us(99),
            max_latency_us=latency.max_us(),
            jitter_us=latency.jitter_us(),
            pcie_gbps=gbps(pcie_bytes, window_ns),
            nf_packets_processed=int(server_delta.get("processed_packets", 0)),
            premature_evictions=int(pp_delta.get("premature_evictions", 0)),
            evictions=int(pp_delta.get("evictions", 0)),
            splits=int(pp_delta.get("splits", 0)),
            merges=int(pp_delta.get("merges", 0)),
            explicit_drops=int(pp_delta.get("explicit_drops", 0)),
            split_disabled=int(
                pp_delta.get("split_disabled_small_payload", 0)
                + pp_delta.get("split_disabled_table_occupied", 0)
            ),
            peak_queue_bytes=max(
                (
                    stats.peak_queue_bytes
                    for link in (*attachment.gen_links, attachment.server_link)
                    for stats in link.direction_counters()
                ),
                default=0,
            ),
            retransmitted_packets=int(gen_delta.get("retransmitted_packets", 0)),
            retransmitted_bytes=int(gen_delta.get("retransmitted_bytes", 0)),
            duplicate_packets=int(gen_delta.get("duplicate_packets_received", 0)),
            throughput_gbps=throughput,
            drop_breakdown={
                "server_overflow": int(server_delta.get("overflow_drops", 0)),
                "chain_dropped": chain_dropped,
                # Disjoint link categories: organic buffer overflows vs
                # injected fault losses (their sum is Link.total_drops()).
                "link_drops": sum(
                    link.buffer_drops() for link in attachment.gen_links
                )
                + attachment.server_link.buffer_drops(),
                "link_fault_drops": sum(
                    link.fault_drops() for link in attachment.gen_links
                )
                + attachment.server_link.fault_drops(),
            },
        )
        return report


def _delta(end: dict, start: dict) -> dict:
    """Element-wise ``end - start`` for counter snapshots."""
    return {key: end.get(key, 0) - start.get(key, 0) for key in end}
