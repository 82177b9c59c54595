"""The invariant engine: attach checkers to any simulation run.

:class:`ValidationObserver` implements the
:class:`~repro.experiments.runner.RunObserver` hook pair.  Installed via
:func:`repro.experiments.runner.run_observer`, it watches every
deployment run the experiment runner executes — single figures, campaign
grid points and fuzzer scenarios all funnel through the same
``_execute`` path:

* ``on_run_start`` arms an event-time monitor on the run's event loop
  (fast or reference), so time monotonicity is checked on every event;
* ``on_run_end`` drains the event loop (traffic stops at the horizon,
  so the residue is exactly the in-flight packets), assembles a
  :class:`~repro.validation.invariants.RunObservation`, and applies the
  configured invariants immediately.

:func:`check_scenario` is the one-call entry point used by the CLI and
the fuzzer: run a scenario under observation and return a structured
:class:`ValidationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.runner import (
    ExperimentRunner,
    RunObserver,
    run_observer,
)
from repro.validation.invariants import (
    DEFAULT_INVARIANTS,
    Invariant,
    RunObservation,
    Violation,
)

#: Upper bound on post-horizon drain work; generously above any run the
#: validation subsystem executes (fuzz scenarios are ~10^4 events).
DRAIN_MAX_EVENTS = 5_000_000


class _TimeMonitor:
    """Event-loop monitor: counts events whose timestamp moves backwards."""

    __slots__ = ("last_ns", "violations")

    def __init__(self) -> None:
        self.last_ns = -1
        self.violations = 0

    def __call__(self, when_ns: int) -> None:
        if when_ns < self.last_ns:
            self.violations += 1
        else:
            self.last_ns = when_ns


class ValidationObserver(RunObserver):
    """Applies invariants to every deployment run executed under it."""

    def __init__(
        self,
        invariants: Optional[Sequence[Invariant]] = None,
        keep_observations: bool = False,
    ) -> None:
        self.invariants = tuple(invariants if invariants is not None else DEFAULT_INVARIANTS)
        self.violations: List[Violation] = []
        self.runs_checked = 0
        #: When enabled, finished observations (including their live
        #: topologies) are retained for inspection — test/debug only, as
        #: it pins every run's object graph in memory.
        self.keep_observations = keep_observations
        self.observations: List[RunObservation] = []
        self._monitors: Dict[int, _TimeMonitor] = {}

    def on_run_start(self, scenario, deployment, topology, program) -> None:
        monitor = _TimeMonitor()
        self._monitors[id(topology.env)] = monitor
        topology.env.monitor = monitor

    def on_run_end(self, scenario, deployment, topology, program, reports) -> None:
        env = topology.env
        horizon_ns = env.now
        # Drain in-flight packets so conservation is an exact identity;
        # the traffic generators stop at the horizon, so this terminates.
        env.run_all(max_events=DRAIN_MAX_EVENTS)
        monitor = self._monitors.pop(id(env), None) or _TimeMonitor()
        env.monitor = None
        observation = RunObservation(
            scenario=scenario,
            deployment=getattr(deployment, "value", str(deployment)),
            topology=topology,
            program=program,
            reports=list(reports),
            horizon_ns=horizon_ns,
            drained=env.pending_events == 0,
            residual_events=env.pending_events,
            time_violations=monitor.violations,
        )
        self.runs_checked += 1
        if self.keep_observations:
            self.observations.append(observation)
        for invariant in self.invariants:
            self.violations.extend(invariant.check(observation))


@dataclass
class ValidationReport:
    """Outcome of validating one scenario (invariants + relations)."""

    scenario: str
    runs_checked: int = 0
    relations_checked: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary."""
        return {
            "scenario": self.scenario,
            "runs_checked": self.runs_checked,
            "relations_checked": list(self.relations_checked),
            "ok": self.ok,
            "violations": [violation.as_dict() for violation in self.violations],
        }


def check_scenario(
    scenario,
    invariants: Optional[Sequence[Invariant]] = None,
    relations: Sequence[Any] = (),
    time_scale: float = 1.0,
) -> ValidationReport:
    """Run *scenario* under the invariant engine and metamorphic relations.

    The scenario's baseline and PayloadPark deployments are both
    executed with invariants attached; each relation in *relations*
    (see :mod:`repro.validation.metamorphic`) then executes its own
    paired runs and contributes violations.
    """
    observer = ValidationObserver(invariants=invariants)
    runner = ExperimentRunner(time_scale=time_scale)
    with run_observer(observer):
        runner.compare(scenario)
    report = ValidationReport(
        scenario=getattr(scenario, "name", str(scenario)),
        runs_checked=observer.runs_checked,
        violations=list(observer.violations),
    )
    for relation in relations:
        report.relations_checked.append(relation.name)
        report.violations.extend(relation.check(scenario, time_scale=time_scale))
    return report
