"""Metamorphic relations: properties that must hold across paired runs.

Where an invariant checks one run against itself, a metamorphic
relation checks two runs of *transformed* scenarios against each other.
The relations here generalize the golden-figure suite (which pins a
dozen hand-picked operating points) to arbitrary scenarios:

* :class:`FastSlowEquivalence` — the optimized simulation path must be
  byte-identical to the reference path at *any* operating point, not
  just the golden grid;
* :class:`SeedDeterminism` — re-running the same scenario must
  reproduce every metric exactly (no hidden global state);
* :class:`TimeScaleInvariance` — stretching the simulated horizon must
  leave the steady-state rate metrics approximately unchanged;
* :class:`RateMonotonicity` — offering less load can never yield more
  goodput (up to measurement noise).

Each relation returns :class:`~repro.validation.invariants.Violation`
records, so the fuzzer and CLI treat invariants and relations
uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.runner import ExperimentRunner, run_options
from repro.orchestrator.executor import flatten_comparison
from repro.validation.invariants import Violation


def comparison_metrics(scenario, time_scale: float = 1.0) -> Dict[str, Any]:
    """Run baseline-vs-PayloadPark and return the flattened metric dict."""
    runner = ExperimentRunner(time_scale=time_scale)
    result = runner.compare(scenario)
    return flatten_comparison(result.comparison)


def _diff_keys(left: Dict[str, Any], right: Dict[str, Any], limit: int = 8) -> Dict[str, Any]:
    """The first *limit* keys whose values differ, with both values."""
    diffs: Dict[str, Any] = {}
    for key in sorted(set(left) | set(right)):
        if left.get(key) != right.get(key):
            diffs[key] = {"left": left.get(key), "right": right.get(key)}
            if len(diffs) >= limit:
                break
    return diffs


class MetamorphicRelation:
    """Base class: one cross-run property of a scenario."""

    name: str = ""

    def check(self, scenario, time_scale: float = 1.0) -> List[Violation]:
        """Return violations (empty when the relation holds)."""
        raise NotImplementedError

    def _violation(self, scenario, message: str, **details: Any) -> Violation:
        return Violation(
            check=self.name,
            message=message,
            scenario=getattr(scenario, "name", str(scenario)),
            deployment="both",
            details=details,
        )


class FastSlowEquivalence(MetamorphicRelation):
    """Fast-path and reference-path runs must produce identical metrics.

    This is the differential heart of the suite: the calendar event
    loop, pooled packet frames, port plans, the firewall's classifier
    and the Maglev memo are only admissible because they reproduce the
    reference results exactly — here asserted at an arbitrary operating
    point instead of the golden grid.
    """

    name = "fast-slow-equivalence"

    def check(self, scenario, time_scale: float = 1.0,
              fast_metrics: Dict[str, Any] = None) -> List[Violation]:
        """*fast_metrics* lets a caller that already ran the fast path
        (the fuzzer's validated orchestrator run) skip re-running it."""
        if fast_metrics is None:
            with run_options(reference=False):
                fast_metrics = comparison_metrics(scenario, time_scale)
        with run_options(reference=True):
            slow = comparison_metrics(scenario, time_scale)
        diffs = _diff_keys(fast_metrics, slow)
        if diffs:
            return [
                self._violation(
                    scenario,
                    f"fast path diverges from the reference path on "
                    f"{len(diffs)}+ metric(s): {sorted(diffs)}",
                    diffs=diffs,
                )
            ]
        return []


class SeedDeterminism(MetamorphicRelation):
    """Two runs of the identical scenario must agree on every metric."""

    name = "seed-determinism"

    def check(self, scenario, time_scale: float = 1.0,
              reference: Dict[str, Any] = None) -> List[Violation]:
        """*reference* lets a caller supply an already-computed first run."""
        first = reference if reference is not None else comparison_metrics(scenario, time_scale)
        second = comparison_metrics(scenario, time_scale)
        diffs = _diff_keys(first, second)
        if diffs:
            return [
                self._violation(
                    scenario,
                    f"identical runs disagree on {len(diffs)}+ metric(s): "
                    f"{sorted(diffs)} (hidden global state?)",
                    diffs=diffs,
                )
            ]
        return []


class TimeScaleInvariance(MetamorphicRelation):
    """Rate metrics must converge when the simulated horizon stretches.

    Goodput and offered load are time-averaged rates, so doubling the
    horizon only shrinks their sampling noise.  The tolerance is loose
    by design: short fuzz runs are noisy, and this relation exists to
    catch gross horizon-dependent bugs (events leaking past the warm-up
    boundary, duration-dependent state), not 1% drifts.
    """

    name = "time-scale-invariance"

    #: Metrics compared across horizons (per deployment prefix).
    RATE_METRICS = ("offered_gbps", "goodput_to_nf_gbps", "delivered_goodput_gbps")

    def __init__(self, factor: float = 2.0, tolerance: float = 0.25,
                 absolute_gbps: float = 0.4) -> None:
        if factor <= 1.0:
            raise ValueError("factor must exceed 1.0")
        self.factor = factor
        self.tolerance = tolerance
        self.absolute_gbps = absolute_gbps

    def check(self, scenario, time_scale: float = 1.0) -> List[Violation]:
        short = comparison_metrics(scenario, time_scale)
        long = comparison_metrics(scenario, time_scale * self.factor)
        violations: List[Violation] = []
        for prefix in ("baseline_", "payloadpark_"):
            for metric in self.RATE_METRICS:
                key = prefix + metric
                a, b = short.get(key, 0.0), long.get(key, 0.0)
                bound = max(abs(a), abs(b)) * self.tolerance + self.absolute_gbps
                if abs(a - b) > bound:
                    violations.append(
                        self._violation(
                            scenario,
                            f"{key} changed from {a:.4f} to {b:.4f} Gbps when the "
                            f"horizon stretched {self.factor:g}x (bound {bound:.4f})",
                            metric=key,
                            short=a,
                            long=b,
                            factor=self.factor,
                        )
                    )
        return violations


class RateMonotonicity(MetamorphicRelation):
    """Offering less load can never yield more goodput.

    Compares the scenario against a copy at ``factor`` times the
    offered rate; the lower-rate run's delivered goodput must not
    exceed the higher-rate run's beyond measurement noise.  (The
    relation holds on both sides of saturation: below it goodput tracks
    offered load; above it goodput plateaus at capacity.)
    """

    name = "rate-monotonicity"

    def __init__(self, factor: float = 0.5, tolerance: float = 0.10,
                 absolute_gbps: float = 0.2) -> None:
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must lie in (0, 1)")
        self.factor = factor
        self.tolerance = tolerance
        self.absolute_gbps = absolute_gbps

    def check(self, scenario, time_scale: float = 1.0) -> List[Violation]:
        high = comparison_metrics(scenario, time_scale)
        low_scenario = scenario.with_rate(scenario.send_rate_gbps * self.factor)
        low = comparison_metrics(low_scenario, time_scale)
        violations: List[Violation] = []
        for prefix in ("baseline_", "payloadpark_"):
            key = prefix + "delivered_goodput_gbps"
            low_value, high_value = low.get(key, 0.0), high.get(key, 0.0)
            bound = high_value * (1.0 + self.tolerance) + self.absolute_gbps
            if low_value > bound:
                violations.append(
                    self._violation(
                        scenario,
                        f"{key}: offering {self.factor:g}x the load yielded "
                        f"{low_value:.4f} Gbps, more than the full-rate "
                        f"{high_value:.4f} Gbps (bound {bound:.4f})",
                        metric=key,
                        low_rate=low_value,
                        high_rate=high_value,
                        factor=self.factor,
                    )
                )
        return violations


#: Name → relation factory, mirroring the scenario/workload registries.
RELATION_REGISTRY = {
    "fast_slow": FastSlowEquivalence,
    "determinism": SeedDeterminism,
    "time_scale": TimeScaleInvariance,
    "rate_monotonicity": RateMonotonicity,
}

#: Exact (noise-free) relations the fuzzer applies to every scenario.
DEFAULT_RELATION_NAMES = ("fast_slow",)


def build_relations(names) -> List[MetamorphicRelation]:
    """Instantiate relations by registry name (``ValueError`` on unknowns)."""
    relations = []
    for name in names:
        factory = RELATION_REGISTRY.get(name)
        if factory is None:
            raise ValueError(
                f"unknown relation {name!r}; expected one of {sorted(RELATION_REGISTRY)}"
            )
        relations.append(factory())
    return relations
