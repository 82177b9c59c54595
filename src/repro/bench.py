"""``repro bench``: simulated packets per wall-clock second, and three gates.

With no gate flag the benchmark runs one scenario — the Fig. 7
FW → NAT → LB setup by default — through both deployments (baseline and
PayloadPark) on the default engine and reports packets per second; the
row lands in ``benchmarks/bench_history.jsonl`` (kind ``fastpath``),
where ``repro bench trend`` watches it.  Each gate compares two
measurements taken back to back in one process, so machine speed
cancels out: the disabled observability plane against none
(``--obs-check``), a bus-enabled campaign against a bus-off one
(``--bus-check``), and ``fidelity: auto`` against ``packet``
(``--fidelity-check``).

Per-layer costs, the default-vs-reference component pairs and the
commit-to-commit comparison live in the perf ledger
(``benchmarks/perf/run.py``), not here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    ScenarioConfig,
    run_options,
)

#: Scenario name -> builder(rate_gbps) for benchmarkable setups.
BENCH_SCENARIOS: Dict[str, Callable[[float], ScenarioConfig]] = {}


def _register_scenarios() -> None:
    from repro.experiments import scenarios

    BENCH_SCENARIOS.update(
        {
            "fig07": lambda rate: scenarios.fw_nat_lb_10ge(send_rate_gbps=rate),
            "fig08": lambda rate: scenarios.fixed_size_40ge(
                "fw_nat", 1024, send_rate_gbps=rate
            ),
            "fig16": lambda rate: scenarios.small_packet_40ge(send_rate_gbps=rate),
        }
    )


_register_scenarios()

#: Default operating point: the Fig. 7 scenario near baseline saturation,
#: where both deployments carry real load.
DEFAULT_SCENARIO = "fig07"
DEFAULT_RATE_GBPS = 10.5
DEFAULT_TIME_SCALE = 1.0
QUICK_TIME_SCALE = 0.25


def _measure(
    build: Callable[[float], ScenarioConfig],
    rate_gbps: float,
    time_scale: float,
    observe: Optional[object] = None,
) -> Dict[str, float]:
    """Run both deployments once; return wall time and packets."""
    with run_options(observe=observe):
        scenario = build(rate_gbps)
        runner = ExperimentRunner(time_scale=time_scale)
        started = time.perf_counter()
        baseline = runner.run_deployment(scenario, DeploymentKind.BASELINE)
        payloadpark = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        wall_s = time.perf_counter() - started
    packets = baseline.packets_sent + payloadpark.packets_sent
    return {
        "wall_s": round(wall_s, 4),
        "packets": packets,
        "packets_per_sec": round(packets / wall_s, 1) if wall_s > 0 else 0.0,
    }


def run_bench(
    scenario: str = DEFAULT_SCENARIO,
    rate_gbps: float = DEFAULT_RATE_GBPS,
    time_scale: float = DEFAULT_TIME_SCALE,
    repeat: int = 1,
) -> Dict[str, object]:
    """Benchmark *scenario* on the default engine.

    ``repeat`` keeps the best (highest packets/sec) of N measurements,
    which damps scheduler noise on loaded machines.  The measurement
    sits under the ``fast`` key, where the committed history rows have
    it and ``repro bench trend`` reads it.
    """
    if scenario not in BENCH_SCENARIOS:
        raise ValueError(
            f"unknown bench scenario {scenario!r}; expected one of {sorted(BENCH_SCENARIOS)}"
        )
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    build = BENCH_SCENARIOS[scenario]
    runs = [_measure(build, rate_gbps, time_scale) for _ in range(repeat)]
    return {
        "scenario": scenario,
        "rate_gbps": rate_gbps,
        "time_scale": time_scale,
        "fast": max(runs, key=lambda run: run["packets_per_sec"]),
    }


def format_result(result: Dict[str, object]) -> str:
    """Human-readable summary of one benchmark result."""
    fast = result["fast"]
    return (
        f"scenario: {result['scenario']} @ {result['rate_gbps']} Gbps "
        f"(time_scale {result['time_scale']})\n"
        f"  {fast['packets']:>8} packets  {fast['wall_s']:>8.2f}s  "
        f"{fast['packets_per_sec']:>10.0f} pkts/s"
    )


# ---------------------------------------------------------------------- #
# Observability overhead (repro.obs)
# ---------------------------------------------------------------------- #

#: The disabled observability plane must cost less than this fraction of
#: throughput.  The gate compares two in-process measurements
#: of the *same* build — observe absent vs observe present-but-disabled —
#: so it pins the hot-path guard cost, not machine speed.
OBS_OVERHEAD_TOLERANCE = 0.02


def run_obs_overhead(
    scenario: str = DEFAULT_SCENARIO,
    rate_gbps: float = DEFAULT_RATE_GBPS,
    time_scale: float = DEFAULT_TIME_SCALE,
    repeat: int = 3,
) -> Dict[str, object]:
    """Measure the observability plane's cost in three modes.

    ``off`` runs with no observe spec at all (the production default);
    ``disabled`` runs with a spec whose features are all off — the plane
    is constructed and rejected, every hot-path hook stays ``None``;
    ``enabled`` runs with everything on (metrics + trace + profile).
    The regression gate is ``disabled`` vs ``off``: presence of the
    subsystem must not tax uninstrumented runs.  The gated ratio is the
    best per-round pair (see the comment below on noise), with the two
    modes measured back to back within every round.  ``enabled``
    overhead is reported for information only — full tracing is allowed
    to cost.
    """
    if scenario not in BENCH_SCENARIOS:
        raise ValueError(
            f"unknown bench scenario {scenario!r}; expected one of {sorted(BENCH_SCENARIOS)}"
        )
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    from repro.obs.config import ObserveSpec

    build = BENCH_SCENARIOS[scenario]

    # Measure the modes back to back inside each round and compare
    # within the round: machine drift (thermal, cache warmth, a noisy
    # neighbour) moves whole rounds, not the gap between two
    # measurements milliseconds apart, so the per-round ratio is far
    # more stable than a ratio of cross-round aggregates.  The gate
    # statistic is the *best* round's disabled/off ratio: transient
    # noise depresses individual rounds at random, but a real hook cost
    # depresses every round, so only a systematic regression keeps the
    # maximum below the floor.
    modes: Dict[str, Optional[object]] = {
        "off": None,
        "disabled": ObserveSpec(),
        "enabled": ObserveSpec.full(),
    }
    runs: Dict[str, list] = {name: [] for name in modes}
    disabled_ratios = []
    enabled_ratios = []
    for _ in range(repeat):
        round_runs = {
            name: _measure(build, rate_gbps, time_scale, observe)
            for name, observe in modes.items()
        }
        for name, run in round_runs.items():
            runs[name].append(run)
        off_pps = round_runs["off"]["packets_per_sec"]
        if off_pps:
            disabled_ratios.append(
                round_runs["disabled"]["packets_per_sec"] / off_pps
            )
            enabled_ratios.append(
                round_runs["enabled"]["packets_per_sec"] / off_pps
            )

    def best(name: str) -> Dict[str, float]:
        return max(runs[name], key=lambda run: run["packets_per_sec"])

    off = best("off")
    disabled = best("disabled")
    enabled = best("enabled")
    ratio = max(disabled_ratios) if disabled_ratios else 0.0
    enabled_ratio = max(enabled_ratios) if enabled_ratios else 0.0
    return {
        "scenario": scenario,
        "rate_gbps": rate_gbps,
        "time_scale": time_scale,
        "repeat": repeat,
        "off": off,
        "disabled": disabled,
        "enabled": enabled,
        "disabled_over_off": round(ratio, 4),
        "enabled_over_off": round(enabled_ratio, 4),
    }


def check_obs_overhead(result: Dict[str, object]) -> tuple:
    """Gate the disabled-plane overhead; returns ``(ok, message)``."""
    ratio = float(result["disabled_over_off"])
    floor = 1.0 - OBS_OVERHEAD_TOLERANCE
    ok = ratio >= floor
    message = (
        f"disabled-observability throughput ratio {ratio:.3f} "
        f"(floor {floor:.3f} at {OBS_OVERHEAD_TOLERANCE:.0%} overhead budget): "
        + ("ok" if ok else "REGRESSION")
    )
    return ok, message


def format_obs_overhead(result: Dict[str, object]) -> str:
    """Human-readable summary of one overhead measurement."""
    lines = [
        f"observability overhead: {result['scenario']} @ {result['rate_gbps']} Gbps "
        f"(time_scale {result['time_scale']}, best of {result['repeat']})",
    ]
    for mode in ("off", "disabled", "enabled"):
        run = result[mode]
        lines.append(
            f"  {mode:>8}: {run['packets']:>8} packets  {run['wall_s']:>8.2f}s  "
            f"{run['packets_per_sec']:>10.0f} pkts/s"
        )
    lines.append(
        f"  disabled/off ratio: {result['disabled_over_off']:.3f}   "
        f"enabled/off ratio: {result['enabled_over_off']:.3f}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Campaign telemetry-bus overhead
# ---------------------------------------------------------------------- #

#: A bus-enabled campaign must cost less than this fraction of wall time
#: over the identical bus-off campaign.
BUS_OVERHEAD_TOLERANCE = 0.02


def _measure_campaign_mode(
    cells: int,
    time_scale: float,
    workers: int,
    bus_enabled: bool,
    events_dir: Path,
    round_index: int,
) -> Dict[str, float]:
    """Run one ephemeral campaign, bus on or off; return wall time."""
    from repro.orchestrator.executor import CampaignExecutor
    from repro.orchestrator.spec import CampaignSpec
    from repro.orchestrator.telemetrybus import TelemetryBus

    campaign = CampaignSpec(
        name=f"bus-bench-{round_index}",
        scenario="fw_nat_lb_10ge",
        grid={"send_rate_gbps": [2.0 + i for i in range(cells)]},
        time_scale=time_scale,
    )
    bus = None
    if bus_enabled:
        bus = TelemetryBus(
            events_path=events_dir / f"bus-bench-{round_index}.events.jsonl"
        ).start()
    try:
        started = time.perf_counter()
        summary = CampaignExecutor(workers=workers, bus=bus).run_campaign(
            campaign, store=None, resume=False
        )
        wall_s = time.perf_counter() - started
    finally:
        if bus is not None:
            bus.stop()
    return {
        "wall_s": round(wall_s, 4),
        "cells": summary.executed,
        "cells_per_sec": round(summary.executed / wall_s, 3) if wall_s > 0 else 0.0,
    }


def run_bus_overhead(
    cells: int = 6,
    time_scale: float = 0.05,
    repeat: int = 3,
    workers: int = 1,
) -> Dict[str, object]:
    """Measure the telemetry bus's campaign cost, bus-off vs bus-on.

    Same paired-round design as :func:`run_obs_overhead`: both modes run
    back to back within each round, the gated statistic is the *best*
    round's on/off throughput ratio — transient noise depresses rounds
    at random, a real bus cost depresses all of them.
    """
    if cells < 1:
        raise ValueError("cells must be at least 1")
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    import tempfile

    off_runs, on_runs, ratios = [], [], []
    with tempfile.TemporaryDirectory(prefix="repro-bus-bench-") as tmp:
        events_dir = Path(tmp)
        for round_index in range(repeat):
            off = _measure_campaign_mode(
                cells, time_scale, workers, False, events_dir, round_index
            )
            on = _measure_campaign_mode(
                cells, time_scale, workers, True, events_dir, round_index
            )
            off_runs.append(off)
            on_runs.append(on)
            if off["cells_per_sec"]:
                ratios.append(on["cells_per_sec"] / off["cells_per_sec"])

    def best(runs) -> Dict[str, float]:
        return max(runs, key=lambda run: run["cells_per_sec"])

    return {
        "cells": cells,
        "time_scale": time_scale,
        "repeat": repeat,
        "workers": workers,
        "off": best(off_runs),
        "on": best(on_runs),
        "on_over_off": round(max(ratios), 4) if ratios else 0.0,
    }


def check_bus_overhead(result: Dict[str, object]) -> tuple:
    """Gate the bus-enabled campaign overhead; returns ``(ok, message)``."""
    ratio = float(result["on_over_off"])
    floor = 1.0 - BUS_OVERHEAD_TOLERANCE
    ok = ratio >= floor
    message = (
        f"bus-enabled campaign throughput ratio {ratio:.3f} "
        f"(floor {floor:.3f} at {BUS_OVERHEAD_TOLERANCE:.0%} overhead budget): "
        + ("ok" if ok else "REGRESSION")
    )
    return ok, message


def format_bus_overhead(result: Dict[str, object]) -> str:
    """Human-readable summary of one bus-overhead measurement."""
    lines = [
        f"telemetry-bus overhead: {result['cells']} cells @ time_scale "
        f"{result['time_scale']} × {result['workers']} worker(s), "
        f"best of {result['repeat']}",
    ]
    for mode in ("off", "on"):
        run = result[mode]
        lines.append(
            f"  bus {mode:>3}: {run['cells']:>3} cells  {run['wall_s']:>8.2f}s  "
            f"{run['cells_per_sec']:>8.2f} cells/s"
        )
    lines.append(f"  on/off ratio: {result['on_over_off']:.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Fidelity-tier speedup and figure agreement
# ---------------------------------------------------------------------- #

#: The fidelity gate fails when ``fidelity: auto`` delivers less than
#: this wall-clock speedup over ``packet`` on the long steady bench.
FIDELITY_MIN_SPEEDUP = 5.0

#: Long steady horizon (µs) where the fluid tier amortizes its lead-in
#: and calibration windows; ~120 ms dominated by jumpable steady time,
#: which is the regime the tier exists for.
FIDELITY_BENCH_DURATION_US = 120_000.0

#: The fidelity bench runs in stable underload — the regime the fluid
#: extrapolation is valid in — not at the throughput bench's
#: near-saturation 10.5 Gbps operating point, where the baseline's
#: saturated NF worker correctly makes the controller refuse to jump.
FIDELITY_BENCH_RATE_GBPS = 6.0


def _measure_fidelity_mode(
    build: Callable[[float], ScenarioConfig],
    rate_gbps: float,
    time_scale: float,
    duration_us: float,
    fidelity: str,
) -> Dict[str, object]:
    """Run baseline-vs-PayloadPark once in one fidelity tier."""
    from dataclasses import replace

    from repro.orchestrator.executor import flatten_comparison

    scenario = replace(build(rate_gbps), duration_us=duration_us, fidelity=fidelity)
    runner = ExperimentRunner(time_scale=time_scale)
    started = time.perf_counter()
    result = runner.compare(scenario)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": round(wall_s, 4),
        "metrics": flatten_comparison(result.comparison),
    }


def run_fidelity_bench(
    scenario: str = DEFAULT_SCENARIO,
    rate_gbps: float = FIDELITY_BENCH_RATE_GBPS,
    time_scale: float = DEFAULT_TIME_SCALE,
    duration_us: float = FIDELITY_BENCH_DURATION_US,
    repeat: int = 1,
) -> Dict[str, object]:
    """Measure the fluid tier's speedup and figure agreement vs packet.

    Paired rounds, same design as :func:`run_obs_overhead`: packet and
    auto run back to back within each round and the gated speedup is the
    best round's ``packet_wall / auto_wall``.  Both tiers are
    deterministic, so the figure metrics come straight from the timed
    runs — no extra measurement pass — and the agreement check
    (:func:`repro.validation.metamorphic.fluid_figure_breaches`) applies
    the same tolerance declaration the metamorphic relation certifies.
    """
    if scenario not in BENCH_SCENARIOS:
        raise ValueError(
            f"unknown bench scenario {scenario!r}; expected one of {sorted(BENCH_SCENARIOS)}"
        )
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    from repro.validation.metamorphic import fluid_figure_breaches

    build = BENCH_SCENARIOS[scenario]
    packet_runs, auto_runs, speedups = [], [], []
    for _ in range(repeat):
        packet = _measure_fidelity_mode(
            build, rate_gbps, time_scale, duration_us, "packet"
        )
        auto = _measure_fidelity_mode(
            build, rate_gbps, time_scale, duration_us, "auto"
        )
        packet_runs.append(packet)
        auto_runs.append(auto)
        if auto["wall_s"] > 0:
            speedups.append(packet["wall_s"] / auto["wall_s"])
    breaches = fluid_figure_breaches(
        packet_runs[0]["metrics"], auto_runs[0]["metrics"]
    )
    goodput_key = "payloadpark_goodput_to_nf_gbps"
    return {
        "scenario": scenario,
        "rate_gbps": rate_gbps,
        "time_scale": time_scale,
        "duration_us": duration_us,
        "repeat": repeat,
        "packet_wall_s": min(run["wall_s"] for run in packet_runs),
        "auto_wall_s": min(run["wall_s"] for run in auto_runs),
        "speedup": round(max(speedups), 2) if speedups else 0.0,
        "packet_goodput_gbps": packet_runs[0]["metrics"].get(goodput_key, 0.0),
        "auto_goodput_gbps": auto_runs[0]["metrics"].get(goodput_key, 0.0),
        "figure_breaches": breaches,
    }


def check_fidelity(result: Dict[str, object]) -> tuple:
    """Gate the fluid tier: fast enough AND figure-faithful.

    Returns ``(ok, message)``.  Fails when any figure metric left its
    tolerance band (correctness first) or the speedup fell below
    :data:`FIDELITY_MIN_SPEEDUP` (the tier is not earning its complexity).
    """
    breaches = result["figure_breaches"]
    speedup = float(result["speedup"])
    if breaches:
        keys = sorted(breaches)
        return False, (
            f"fluid tier BREACHED figure tolerances on {len(keys)} "
            f"metric(s): {keys}"
        )
    ok = speedup >= FIDELITY_MIN_SPEEDUP
    message = (
        f"fluid-tier speedup {speedup:.2f}x over packet "
        f"(floor {FIDELITY_MIN_SPEEDUP:g}x), figures within tolerance: "
        + ("ok" if ok else "TOO SLOW")
    )
    return ok, message


def format_fidelity(result: Dict[str, object]) -> str:
    """Human-readable summary of one fidelity measurement."""
    lines = [
        f"fidelity tiers: {result['scenario']} @ {result['rate_gbps']} Gbps, "
        f"{result['duration_us'] / 1000:g} ms horizon "
        f"(time_scale {result['time_scale']}, best of {result['repeat']})",
        f"  packet: {result['packet_wall_s']:>8.2f}s   "
        f"goodput {result['packet_goodput_gbps']:.4f} Gbps",
        f"    auto: {result['auto_wall_s']:>8.2f}s   "
        f"goodput {result['auto_goodput_gbps']:.4f} Gbps",
        f"  speedup: {result['speedup']:.2f}x   "
        f"figure breaches: {len(result['figure_breaches'])}",
    ]
    for key, detail in sorted(result["figure_breaches"].items()):
        lines.append(
            f"    BREACH {key}: packet {detail['packet']} vs "
            f"fluid {detail['fluid']} (bound {detail['bound']})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Machine-readable bench artifacts
# ---------------------------------------------------------------------- #

def default_obs_artifact_path() -> Path:
    """The committed overhead artifact next to the benchmark scripts."""
    return Path(__file__).resolve().parents[2] / "benchmarks" / "obs_overhead.json"


def default_history_path() -> Path:
    """The append-only bench history next to the benchmark scripts."""
    return Path(__file__).resolve().parents[2] / "benchmarks" / "bench_history.jsonl"


def _stamp(result: Dict[str, object], kind: str) -> Dict[str, object]:
    return {
        "kind": kind,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **result,
    }


def append_history(
    result: Dict[str, object],
    kind: str,
    history_path: Optional[Path] = None,
) -> Path:
    """Append one stamped bench measurement to the JSONL history.

    The history accumulates every ``repro bench`` run — throughput and
    gates alike — so a regression can be traced back through
    time rather than just caught at the gate.  Returns the path written.
    """
    history = history_path or default_history_path()
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_stamp(result, kind), sort_keys=True) + "\n")
    return history


def write_bench_artifact(
    result: Dict[str, object],
    kind: str = "obs_overhead",
    artifact_path: Optional[Path] = None,
    history_path: Optional[Path] = None,
) -> Path:
    """Persist one bench result: overwrite the artifact, append to history.

    The artifact file always holds the latest measurement of its *kind*;
    only ``obs_overhead`` has a default location.  Returns the artifact
    path written.
    """
    if artifact_path is not None:
        target = artifact_path
    elif kind == "obs_overhead":
        target = default_obs_artifact_path()
    else:
        raise ValueError(
            f"no default artifact path for bench kind {kind!r}; "
            "pass artifact_path explicitly"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(_stamp(result, kind), handle, indent=2, sort_keys=True)
        handle.write("\n")
    append_history(result, kind, history_path)
    return target
