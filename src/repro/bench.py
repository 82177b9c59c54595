"""``repro bench``: overhead gates, one implementation.

Each entry of :data:`GATES` names a few *arms* — the same work under
different settings — and the floor one arm's rate must hold against the
first: the disabled observability plane against none (``--obs-check``).
The arms run back to back inside one process, so machine speed cancels
out of the ratio.  Nothing here writes a file or reports a throughput of
its own: packets per second, per-layer costs and the commit-to-commit
comparison are rows of the perf ledger (``benchmarks/perf/run.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict

from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import fw_nat_lb_10ge
from repro.obs.config import ObserveSpec

#: The disabled observability plane must cost less than this fraction of
#: throughput: observe absent vs observe present-but-disabled pins the
#: hot-path guard cost, not machine speed.
OBS_OVERHEAD_TOLERANCE = 0.02


@dataclass(frozen=True)
class Gate:
    """A paired measurement and the floor its gated ratio must hold.

    ``arms`` maps a name to ``arm(**point)``, a context manager that sets
    one arm up (untimed) and yields the callable to time; the first arm
    is the reference every ratio is taken against.  ``work`` reads the
    amount of work, in ``unit``, out of what that callable returned.
    """

    title: str
    point: Dict[str, float]
    rounds: int
    arms: Dict[str, Callable[..., ContextManager[Callable[[], Any]]]]
    work: Callable[[Any], float]
    unit: str
    gated: str
    floor: float


@contextmanager
def _fig07_arm(rate_gbps: float, time_scale: float, **fields):
    """Baseline and PayloadPark on the Fig. 7 FW → NAT → LB scenario.

    *fields* override the scenario's own (``observe``); building it and
    the runner stays outside the timer.
    """
    scenario = replace(fw_nat_lb_10ge(send_rate_gbps=rate_gbps), **fields)
    runner = ExperimentRunner(time_scale=time_scale)
    yield lambda: runner.compare(scenario)


def _packets_sent(result: ExperimentResult) -> int:
    comparison = result.comparison
    return comparison.baseline.packets_sent + comparison.payloadpark.packets_sent


#: ``--json`` payload key -> gate, in the order ``repro bench`` runs them.
#: Each ``point`` is the operating point CI has always passed.
GATES: Dict[str, Gate] = {
    # Near baseline saturation, where both deployments carry real load.
    # ``off`` is the production default (no observe spec at all),
    # ``disabled`` a spec with every feature off — the plane is built and
    # rejected, every hot-path hook stays ``None`` — and ``enabled`` the
    # full plane, reported for information only: tracing is allowed to cost.
    "obs_overhead": Gate(
        title="observability overhead (fig07)",
        point={"rate_gbps": 10.5, "time_scale": 0.25},
        rounds=3,
        arms={
            "off": partial(_fig07_arm, observe=None),
            "disabled": partial(_fig07_arm, observe=ObserveSpec()),
            "enabled": partial(_fig07_arm, observe=ObserveSpec.full()),
        },
        work=_packets_sent,
        unit="packets",
        gated="disabled",
        floor=1.0 - OBS_OVERHEAD_TOLERANCE,
    ),
}


def run_gate(gate: Gate) -> Dict[str, Any]:
    """Measure every arm of *gate*; one JSON-ready shape for all gates.

    The arms run back to back inside each round and are compared within
    the round: machine drift (thermal, cache warmth, a noisy neighbour)
    moves whole rounds, not the gap between two measurements milliseconds
    apart.  Each ratio reported is the *best* round's: transient noise
    depresses rounds at random, a real cost depresses every one, so only
    a systematic regression keeps the maximum below the floor.
    """
    reference = next(iter(gate.arms))
    best: Dict[str, Dict[str, float]] = {}
    ratios = {name: 0.0 for name in gate.arms if name != reference}
    for _ in range(gate.rounds):
        rates = {}
        for name, arm in gate.arms.items():
            with arm(**gate.point) as run:
                started = perf_counter()
                returned = run()
                wall_s = perf_counter() - started
            work = gate.work(returned)
            rates[name] = work / wall_s if wall_s > 0 else 0.0
            if name not in best or rates[name] > best[name]["rate"]:
                best[name] = {
                    "work": work,
                    "wall_s": round(wall_s, 4),
                    "rate": round(rates[name], 3),
                }
        if rates[reference]:
            for name in ratios:
                ratios[name] = max(ratios[name], rates[name] / rates[reference])
    return {
        "point": dict(gate.point),
        "rounds": gate.rounds,
        "unit": gate.unit,
        "arms": best,
        "ratios": {name: round(ratio, 4) for name, ratio in ratios.items()},
        "gated": gate.gated,
        "floor": gate.floor,
    }


def check_gate(gate: Gate, result: Dict[str, Any]) -> tuple:
    """``(ok, message)`` for one :func:`run_gate` result: the gated arm's
    best-round ratio against the floor."""
    ratio = float(result["ratios"][gate.gated])
    ok = ratio >= gate.floor
    reference = next(iter(gate.arms))
    return ok, (
        f"{gate.title}: best-round {gate.gated}/{reference} rate ratio "
        f"{ratio:.3f} (floor {gate.floor:g}): " + ("ok" if ok else "REGRESSION")
    )


def format_gate(gate: Gate, result: Dict[str, Any]) -> str:
    """Human-readable summary of one :func:`run_gate` result."""
    point = ", ".join(f"{key} {value:g}" for key, value in result["point"].items())
    lines = [f"{gate.title}: {point}, best of {result['rounds']} round(s)"]
    width = max(len(name) for name in result["arms"])
    for name, arm in result["arms"].items():
        lines.append(
            f"  {name:>{width}}: {arm['work']:>10g} {result['unit']}  "
            f"{arm['wall_s']:>8.2f}s  {arm['rate']:>12.1f} {result['unit']}/s"
        )
    reference = next(iter(gate.arms))
    lines.append(
        "  " + "   ".join(
            f"{name}/{reference} ratio: {ratio:.3f}"
            for name, ratio in result["ratios"].items()
        )
    )
    return "\n".join(lines)
