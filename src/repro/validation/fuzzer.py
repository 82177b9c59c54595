"""Differential scenario fuzzer: generate, check, shrink, persist.

The fuzzer draws random-but-reproducible scenario descriptors from the
same plain-data space campaigns use (scenario registry name + parameter
dict), executes each through the campaign orchestrator with the
invariant engine attached, and applies the exact metamorphic relations
(fast-vs-slow differential testing by default).  A failing descriptor
is *shrunk* — greedily simplified while the failure persists — and the
minimal repro is written to a corpus directory that ``repro validate
replay`` and the pytest suite re-execute, so every bug the fuzzer ever
found stays fixed.

Everything is keyed by one integer seed: the same seed generates the
same scenario sequence regardless of how many scenarios the time budget
allows, so CI runs are reproducible and extendable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.orchestrator.executor import execute_run
from repro.orchestrator.spec import RunSpec
from repro.validation.invariants import Violation
from repro.validation.metamorphic import (
    DEFAULT_RELATION_NAMES,
    MetamorphicRelation,
    SeedDeterminism,
    build_relations,
)

#: Chains orderable by complexity; shrinking walks toward the front.
CHAIN_COMPLEXITY = ("macswap", "nat", "firewall", "fw_nat", "fw_nat_lb")

#: Workloads the generator draws from (must all be registered); the
#: plain Poisson enterprise mix is the shrink target.
CANONICAL_WORKLOAD = "enterprise-poisson"
FUZZ_WORKLOADS = (
    "enterprise-poisson",
    "bursty-mmpp",
    "incast-sync",
    "heavy-tail",
    "flood-churn",
    "rate-ramp",
    "diurnal",
    "pcap-replay",
)

#: Fault profiles the generator draws from (must all be registered);
#: shrinking walks toward no faults at all.
FUZZ_FAULT_PROFILES = (
    "link-flap",
    "lossy-links",
    "jittery-links",
    "backend-churn",
    "rule-burst",
    "threshold-flap",
    "park-drain",
    "chaos-mix",
)

#: How often the (costlier) determinism relation runs: every Nth scenario.
DETERMINISM_EVERY = 5

#: Shrink floors: simplification never goes below these.
MIN_DURATION_US = 200.0
MIN_RATE_GBPS = 1.0

#: Parameters the registry builder requires positionally per scenario;
#: shrinking must not drop them (the descriptor would stop building).
REQUIRED_PARAMS = {
    "explicit_drop": frozenset({"expiry_threshold", "explicit_drop"}),
    "fixed_size_40ge": frozenset({"chain_name", "packet_size"}),
    "memory_sweep": frozenset({"sram_fraction"}),
}


def generate_run(rng: random.Random, index: int) -> RunSpec:
    """Draw one scenario descriptor from the fuzz space.

    Descriptors are plain data (registry scenario name + parameters),
    so they execute through the campaign orchestrator, hash stably and
    serialize into the corpus unchanged.
    """
    kind = rng.choice(
        ["workload"] * 5 + ["fixed_size_40ge", "explicit_drop", "multi_server_384b",
                            "memory_sweep"]
    )
    params: Dict[str, Any] = {
        "seed": rng.randrange(2**31 - 1),
        "duration_us": float(rng.choice([400, 600, 800, 1000, 1200])),
    }
    params["warmup_us"] = params["duration_us"] / 4.0
    if kind == "workload":
        params["workload"] = rng.choice(FUZZ_WORKLOADS)
        params["chain"] = rng.choice(CHAIN_COMPLEXITY)
        params["send_rate_gbps"] = float(rng.choice([2, 4, 6, 8, 10, 12]))
        if rng.random() < 0.5:
            params["sram_fraction"] = rng.choice([0.1, 0.26, 0.4, 0.6])
        if rng.random() < 0.5:
            params["expiry_threshold"] = rng.choice([1, 2, 5, 10])
        if rng.random() < 0.3:
            params["burst_size"] = rng.choice([4, 8, 16])
        # The chaos dimension: control-plane churn and link degradation
        # during the run, exercising cache invalidation and parking-slot
        # reclamation under load (the riskiest paths the static fuzz
        # space never touched).
        if rng.random() < 0.4:
            params["faults"] = rng.choice(FUZZ_FAULT_PROFILES)
    elif kind == "fixed_size_40ge":
        params["chain_name"] = rng.choice(["firewall", "nat", "fw_nat"])
        params["packet_size"] = rng.choice([128, 256, 512, 1024, 1514])
        params["send_rate_gbps"] = float(rng.choice([10, 20, 30, 38]))
    elif kind == "explicit_drop":
        params["expiry_threshold"] = rng.choice([1, 2, 10])
        params["explicit_drop"] = rng.random() < 0.5
        params["blacklisted_fraction"] = rng.choice([0.02, 0.05, 0.10])
        params["send_rate_gbps"] = float(rng.choice([4, 6, 8]))
    elif kind == "multi_server_384b":
        params["server_count"] = rng.choice([2, 3, 4])
        params["send_rate_gbps"] = float(rng.choice([4, 6, 9]))
        # Multi-server runs multiply packet counts; keep them short.
        params["duration_us"] = float(rng.choice([400, 600]))
        params["warmup_us"] = params["duration_us"] / 4.0
    else:  # memory_sweep
        params["sram_fraction"] = rng.choice([0.05, 0.1, 0.26, 0.4, 0.6])
        params["send_rate_gbps"] = float(rng.choice([6, 10, 16, 20]))
    return RunSpec(scenario=kind, params=params)


def descriptor_size(run: RunSpec) -> float:
    """Complexity score of a descriptor (the quantity shrinking minimizes).

    Weighted so the knobs that dominate simulation cost and triage
    effort (horizon, topology size, offered load, chain depth) dominate
    the score; every extra parameter also costs a point, so dropping
    knobs back to their defaults counts as progress.
    """
    params = run.params
    size = float(len(params))
    size += params.get("duration_us", 6000.0) / 100.0
    size += params.get("server_count", 1) * 4.0
    size += params.get("send_rate_gbps", 8.0)
    size += params.get("burst_size", 0) / 8.0
    chain = params.get("chain", params.get("chain_name"))
    if chain in CHAIN_COMPLEXITY:
        size += float(CHAIN_COMPLEXITY.index(chain)) + 1.0
    if params.get("workload", CANONICAL_WORKLOAD) != CANONICAL_WORKLOAD:
        size += 2.0
    if "faults" in params:
        size += 3.0
    return size


def check_run(
    run: RunSpec, relations: Sequence[MetamorphicRelation] = ()
) -> List[Violation]:
    """Execute *run* through the orchestrator with validation attached.

    Invariants are applied by the executor's inline validation hook
    (the same hook ``validate: true`` campaigns use); metamorphic
    relations execute their paired runs afterwards against the
    materialized scenario.  Execution errors surface as violations —
    a crash found by the fuzzer is a bug like any other.
    """
    validated = RunSpec(
        scenario=run.scenario,
        mode=run.mode,
        params=dict(run.params),
        options={**dict(run.options), "validate": True},
        time_scale=run.time_scale,
    )
    record = execute_run(validated)
    violations = [
        Violation(
            check=item["check"],
            message=item["message"],
            scenario=item.get("scenario", run.scenario),
            deployment=item.get("deployment", ""),
            details=item.get("details", {}),
        )
        for item in record.get("violations", [])
    ]
    if record.get("status") == "error":
        violations.append(
            Violation(
                check="execution",
                message=record.get("error", "run crashed"),
                scenario=run.scenario,
                deployment="",
                details={"params": dict(run.params)},
            )
        )
        return violations  # relations would crash the same way
    if relations:
        from repro.orchestrator.spec import build_scenario
        from repro.validation.metamorphic import FastSlowEquivalence

        scenario = build_scenario(run)
        # The validated run above already produced the fast-path
        # comparison (compare mode, default fast path); relations that
        # can reuse it skip re-running that arm.
        reference = record.get("metrics") if run.mode == "compare" else None
        for relation in relations:
            if reference is not None and isinstance(relation, FastSlowEquivalence):
                violations.extend(
                    relation.check(scenario, time_scale=run.time_scale,
                                   fast_metrics=reference)
                )
            elif reference is not None and isinstance(relation, SeedDeterminism):
                violations.extend(
                    relation.check(scenario, time_scale=run.time_scale,
                                   reference=reference)
                )
            else:
                violations.extend(relation.check(scenario, time_scale=run.time_scale))
    return violations


def _shrink_candidates(run: RunSpec) -> Iterator[RunSpec]:
    """Yield simpler variants of *run*, most aggressive first."""
    params = run.params

    def with_params(**changes: Any) -> RunSpec:
        new_params = dict(params)
        for key, value in changes.items():
            if value is None:
                new_params.pop(key, None)
            else:
                new_params[key] = value
        return RunSpec(
            scenario=run.scenario,
            mode=run.mode,
            params=new_params,
            options=dict(run.options),
            time_scale=run.time_scale,
        )

    duration = params.get("duration_us")
    if duration is not None and duration / 2.0 >= MIN_DURATION_US:
        yield with_params(duration_us=duration / 2.0, warmup_us=duration / 8.0)
    if params.get("server_count", 1) > 1:
        yield with_params(server_count=None)
    chain = params.get("chain")
    if chain in CHAIN_COMPLEXITY and CHAIN_COMPLEXITY.index(chain) > 0:
        for simpler in CHAIN_COMPLEXITY[: CHAIN_COMPLEXITY.index(chain)]:
            yield with_params(chain=simpler)
    if params.get("workload") not in (None, CANONICAL_WORKLOAD):
        yield with_params(workload=CANONICAL_WORKLOAD)
    if "faults" in params:
        # A failure that persists without its chaos schedule is a plain
        # bug; one that needs the schedule keeps it in the repro.
        yield with_params(faults=None)
    rate = params.get("send_rate_gbps")
    if rate is not None and rate / 2.0 >= MIN_RATE_GBPS:
        yield with_params(send_rate_gbps=rate / 2.0)
    required = REQUIRED_PARAMS.get(run.scenario, frozenset())
    for optional in ("sram_fraction", "expiry_threshold", "burst_size",
                     "blacklisted_fraction", "explicit_drop"):
        if optional in params and optional not in required:
            yield with_params(**{optional: None})


def shrink(
    run: RunSpec,
    still_fails: Callable[[RunSpec], bool],
    max_attempts: int = 64,
) -> RunSpec:
    """Greedily minimize *run* while ``still_fails`` keeps returning True.

    Classic delta-debugging descent: try each candidate simplification;
    accept the first that both shrinks the descriptor and preserves the
    failure, then restart from the accepted descriptor until a full
    pass yields no progress (or the attempt budget runs out).
    """
    current = run
    current_size = descriptor_size(current)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if descriptor_size(candidate) >= current_size:
                continue
            if still_fails(candidate):
                current = candidate
                current_size = descriptor_size(candidate)
                progress = True
                break
            if attempts >= max_attempts:
                break
    return current


@dataclass
class FuzzFailure:
    """One fuzz finding: the original descriptor and its shrunk repro."""

    original: RunSpec
    shrunk: RunSpec
    violations: List[Violation]

    @property
    def original_size(self) -> float:
        return descriptor_size(self.original)

    @property
    def shrunk_size(self) -> float:
        return descriptor_size(self.shrunk)


@dataclass
class FuzzResult:
    """Outcome of one fuzz session."""

    seed: int
    scenarios_checked: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    wall_time_s: float = 0.0
    corpus_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "scenarios_checked": self.scenarios_checked,
            "ok": self.ok,
            "failures": [
                {
                    "scenario": failure.original.scenario,
                    "original_size": failure.original_size,
                    "shrunk_size": failure.shrunk_size,
                    "shrunk_params": dict(failure.shrunk.params),
                    "violations": [v.as_dict() for v in failure.violations],
                }
                for failure in self.failures
            ],
            "wall_time_s": round(self.wall_time_s, 2),
            "corpus_paths": list(self.corpus_paths),
        }


def fuzz(
    seed: int = 0,
    max_scenarios: Optional[int] = None,
    budget_s: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    relation_names: Sequence[str] = DEFAULT_RELATION_NAMES,
    progress: Optional[Callable[[int, RunSpec, List[Violation]], None]] = None,
    shrink_failures: bool = True,
) -> FuzzResult:
    """Run one fuzz session; see the module docstring for the pipeline.

    ``max_scenarios`` and ``budget_s`` bound the session (either alone
    suffices; both default to a 50-scenario session).  Failures are
    shrunk and, when *corpus_dir* is given, written there as replayable
    JSON repros.
    """
    if max_scenarios is None and budget_s is None:
        max_scenarios = 50
    if max_scenarios is not None and max_scenarios < 1:
        raise ValueError("max_scenarios must be at least 1")
    rng = random.Random(seed)
    relations = build_relations(relation_names)
    determinism = SeedDeterminism()
    started = time.monotonic()
    result = FuzzResult(seed=seed)
    index = 0
    while True:
        if max_scenarios is not None and index >= max_scenarios:
            break
        if budget_s is not None and time.monotonic() - started >= budget_s:
            break
        run = generate_run(rng, index)
        scenario_relations = list(relations)
        if index % DETERMINISM_EVERY == 0:
            scenario_relations.append(determinism)
        violations = check_run(run, scenario_relations)
        result.scenarios_checked += 1
        if progress is not None:
            progress(index, run, violations)
        if violations:
            # Shrink while the *same* checks keep failing, so simplification
            # never drifts onto an unrelated failure (e.g. a descriptor that
            # stops building); re-check with exactly the relations that fired.
            failing_checks = {violation.check for violation in violations}
            shrink_relations = [
                relation for relation in scenario_relations
                if relation.name in failing_checks
            ]

            def still_fails(candidate: RunSpec) -> bool:
                found = check_run(candidate, shrink_relations)
                return any(violation.check in failing_checks for violation in found)

            shrunk = run
            if shrink_failures:
                shrunk = shrink(run, still_fails)
                if shrunk is not run:
                    violations = check_run(shrunk, shrink_relations) or violations
            failure = FuzzFailure(original=run, shrunk=shrunk, violations=violations)
            result.failures.append(failure)
            if corpus_dir is not None:
                from repro.validation.corpus import write_entry

                path = write_entry(corpus_dir, failure, seed=seed)
                result.corpus_paths.append(str(path))
        index += 1
    result.wall_time_s = time.monotonic() - started
    return result


def parse_budget(text: str) -> float:
    """Parse a time budget like ``"30s"``, ``"2m"`` or ``"45"`` (seconds)."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("ms"):
        factor, text = 1e-3, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("h"):
        factor, text = 3600.0, text[:-1]
    try:
        value = float(text) * factor
    except ValueError as exc:
        raise ValueError(f"cannot parse time budget {text!r}") from exc
    if value <= 0:
        raise ValueError("time budget must be positive")
    return value
