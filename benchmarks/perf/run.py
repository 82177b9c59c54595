#!/usr/bin/env python3
"""The perf ledger: end-to-end rows with noise bounds, then a per-layer trace.

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME] [--sets 2] [--quick]

runs every workload of ``BENCHMARK.json`` with tracing off, prints each
end-to-end metric (median, quartiles, round count, unit, bound), checks the outputs, then makes one separate traced pass per
workload for the per-layer and ``probe.*`` numbers.  Each (workload,
pass) is measured in a process of its own — the invocation the driver makes,

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

whose last stdout line is the contract's JSON object — so peak RSS and
warm-up state never leak from one workload into the next.  See
``README.md`` next to this file for what each metric means and which
end-to-end number it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perf ledger: no simulator source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import probes  # noqa: E402 - siblings import repro, so the path comes first
import rounds  # noqa: E402
import spans  # noqa: E402
from hostclock import stopwatch  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    run_observer,
)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
if [w["name"] for w in SPEC["workloads"]] != [w.name for w in rounds.WORKLOADS]:
    sys.exit("perf ledger: BENCHMARK.json and rounds.WORKLOADS name different workloads")

#: Timed rounds a pass makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Shares of ``--seconds`` the traced pass spends on untraced reference
#: rounds and on traced rounds (the rest of a pass's time is the probes).
REFERENCE_SHARE = 0.4
TRACED_SHARE = 0.2
#: ``trace.attributed_share`` must be this close to 1.0 or the pass fails.
ATTRIBUTION_TOLERANCE = 0.01
#: Per-layer metrics that are simulated-time only: equal seeds, equal values.
EXACT_PREFIXES = ("telemetry.", "core.lookup_table.", "netsim.eventloop.events_per_pkt")

COLD_IMPORT = (
    "import repro.experiments.runner, repro.experiments.scenarios, "
    "repro.orchestrator.executor, repro.orchestrator.store, repro.workloads.registry"
)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median (the reported ``value``), quartiles and count of *values*."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------- #
# Set-up time and memory
# ---------------------------------------------------------------------- #


class _SetupDone(Exception):
    """Raised from ``on_run_start`` to end a run where set-up ends."""


class _StopAtRunStart(RunObserver):
    def on_run_start(self, scenario, deployment, topology, program) -> None:
        raise _SetupDone


def measure_setup(run: "Pass") -> Dict[str, float]:
    """``setup_s``: cold import of the experiment stack plus building both deployments.

    The import runs in fresh interpreters (median of the starts); the
    build runs here, from the scenario constructor to
    ``RunObserver.on_run_start`` of each deployment, and each build
    plus the import median is one ``setup_s`` sample.  All host-corrected.
    """
    starts, builds = (3, 5) if run.quick else (5, 20)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(starts):
        with stopwatch() as watch:
            subprocess.run([sys.executable, "-c", COLD_IMPORT], check=True, env=env)
        imports.append(watch.corrected_s)
    built = []
    with run_observer(_StopAtRunStart()):
        for _ in range(builds):
            with stopwatch() as watch:
                scenario = rounds.setup_scenario(run.workload, run.seed)
                runner = ExperimentRunner(time_scale=run.workload.time_scale)
                for deployment in DeploymentKind:
                    try:
                        runner.run_deployment(scenario, deployment)
                    except _SetupDone:
                        pass
            built.append(watch.corrected_s)
    cold = statistics.median(imports)
    run.notes.append(
        f"setup_s = import {cold:.4f} s (median of {starts} starts) + "
        f"build {statistics.median(built):.4f} s (median of {builds})"
    )
    return summarize([cold + build for build in built])


def peak_rss_mb(workload: rounds.Workload) -> float:
    """``ru_maxrss`` of the process that ran the rounds (max over workers)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.is_campaign:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


# ---------------------------------------------------------------------- #
# One pass of one workload (what the driver invokes)
# ---------------------------------------------------------------------- #


class Pass:
    """Rounds run so far in this process, with the correctness ledger."""

    def __init__(self, workload: rounds.Workload, seed: int, quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._digest: Optional[str] = None

    def account(self, result: rounds.Round, label: str, compare_digest: bool = True) -> rounds.Round:
        """Count *result*'s operations; a digest that moved fails them all."""
        ops_ok = result.ops_ok
        if compare_digest:
            if self._digest is None:
                self._digest = result.digest
            elif result.digest != self._digest:
                self.notes.append(f"{label}: report digest differs from the first round's")
                ops_ok = [False] * len(ops_ok)
        self.attempted += len(ops_ok)
        self.failed += ops_ok.count(False)
        if not all(ops_ok) and not result.notes:
            self.notes.append(f"{label}: {ops_ok.count(False)} operation(s) failed their shape check")
        self.notes.extend(f"{label}: {note}" for note in result.notes)
        return result

    def repeat(self, seconds: float, label: str, one_round) -> List[rounds.Round]:
        """Whole rounds of *one_round* until *seconds* have passed.

        ``--quick`` makes exactly one; a real pass at least MIN_ROUNDS.
        """
        minimum, seconds = (1, 0.0) if self.quick else (MIN_ROUNDS, seconds)
        done: List[rounds.Round] = []
        deadline = time.perf_counter() + seconds
        while len(done) < minimum or time.perf_counter() < deadline:
            done.append(self.account(one_round(), f"{label} round {len(done) + 1}"))
        return done

    def untraced_rounds(self, seconds: float, label: str) -> List[rounds.Round]:
        """One discarded warm-up round, then timed rounds for *seconds*."""
        if not self.quick:
            self.account(rounds.run_round(self.workload, self.seed), "warm-up")
        return self.repeat(
            seconds, label, lambda: rounds.run_round(self.workload, self.seed)
        )


def untraced_pass(run: Pass, seconds: float) -> Dict[str, Dict[str, float]]:
    """Every end-to-end metric, from rounds with no wrapper installed."""
    timed = run.untraced_rounds(seconds, "timed")
    rss = peak_rss_mb(run.workload)  # before set-up starts interpreters of its own
    run.notes.append(
        f"host speed {statistics.median(r.host_speed for r in timed):.3f} (median; "
        f"1.0 = reference fast state), uncorrected wall_s median "
        f"{statistics.median(r.wall_s for r in timed):.4f}"
    )
    return {
        "sim_pkts_per_s": summarize([r.packets / r.corrected_s for r in timed]),
        "wall_s": summarize([r.corrected_s for r in timed]),
        "cells_per_s": summarize([r.cells / r.corrected_s for r in timed]),
        "setup_s": measure_setup(run),
        "peak_rss_mb": summarize([rss]),
    }


class TracedRound:
    """One round under the wrappers: its spans, counters and results."""

    def __init__(self, run: Pass) -> None:
        workload, seed = run.workload, run.seed
        gc.collect()
        self.recorder = recorder = spans.SpanRecorder()
        self.observer = observer = spans.TraceObserver(recorder)
        if workload.is_campaign:
            # Spans cannot cross the worker pipes: the parallel campaign is
            # traced on the orchestrator's side (under `validate: true`), and
            # the engine's layers on a serial sample of the same cells.
            with recorder.installed(spans.ORCHESTRATOR_SPANS):
                self.result = rounds.campaign_round(workload, seed, validate=True)
            with recorder.installed(spans.ENGINE_SPANS):
                self.engine = rounds.campaign_sample_round(workload, seed, observer)
            self.wall_s = self.result.wall_s + self.engine.wall_s
        else:
            with recorder.installed(spans.ENGINE_SPANS), run_observer(observer):
                self.result = self.engine = rounds.engine_round(workload, seed)
            self.wall_s = self.result.wall_s
        # One failed operation per deployment run that broke an invariant.
        violations = observer.validator.violations
        for index in range(len({(v.scenario, v.deployment) for v in violations})):
            self.engine.ops_ok[index % len(self.engine.ops_ok)] = False
        self.engine.notes.extend(f"invariant violation {v}" for v in violations[:5])
        if workload.is_campaign:
            run.account(self.engine, "traced sample", compare_digest=False)


def traced_pass(run: Pass, seconds: float) -> Dict[str, float]:
    """Every per-layer metric: one traced round's spans, the exact counters, the probes."""
    workload = run.workload
    reference = run.untraced_rounds(seconds * REFERENCE_SHARE, "reference")
    candidates: List[TracedRound] = []

    def one_traced_round() -> rounds.Round:
        candidates.append(TracedRound(run))
        return candidates[-1].result

    run.repeat(seconds * TRACED_SHARE, "traced", one_traced_round)
    # The median traced round stands for the pass; the others' spans are dropped.
    candidates.sort(key=lambda candidate: candidate.result.corrected_s)
    chosen = candidates[len(candidates) // 2]
    recorder, observer, traced, engine = (
        chosen.recorder, chosen.observer, chosen.result, chosen.engine
    )

    table = recorder.aggregate()
    rounds.OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.dump(
        rounds.OUT_DIR / f"spans-{workload.name}.json",
        {"workload": workload.name, "seed": run.seed, "comparable": not run.quick},
    )

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    # Span times are wall times; each is corrected by the host speed of
    # the round it was recorded in (the campaign's sample is its own round).
    def self_us_per_pkt(name: str) -> float:
        return row(name)["self_s"] * engine.host_speed * 1e6 / engine.packets

    def per_call(name: str, scale: float, round_: rounds.Round) -> float:
        calls = row(name)["calls"]
        return row(name)["total_s"] * round_.host_speed * scale / calls if calls else 0.0

    metrics = {
        f"{name}.self_us_per_pkt": self_us_per_pkt(name)
        for name in (
            "netsim.eventloop", "core.program", "netsim.switch_node",
            "nf.process_packet", "netsim.server_node", "netsim.link",
            "traffic.source", "netsim.trafficgen", "workloads.transport",
        )
    }
    metrics.update(traced.model)
    metrics.update(
        {
            "netsim.eventloop.events_per_pkt": observer.events_executed / engine.packets,
            "core.program.calls_per_pkt": row("core.program")["calls"] / engine.packets,
            "netsim.link.calls_per_pkt": row("netsim.link")["calls"] / engine.packets,
            "netsim.link.frames_dropped": observer.link_frames_dropped,
            "workloads.transport.retransmits": observer.retransmits,
            "workloads.transport.rto_timeouts": observer.rto_timeouts,
            "runner.setup_ms_per_run": per_call(spans.SETUP_SPAN, 1e3, engine),
            "telemetry.report_digest": int(traced.digest[:12], 16),
            "trace.overhead_ratio": traced.corrected_s
            / statistics.median(r.corrected_s for r in reference),
            "trace.attributed_share": sum(r["self_s"] for r in table.values()) / chosen.wall_s,
        }
    )
    cell_walls = [ms * r.host_speed for r in reference for ms in r.cell_wall_ms]
    if cell_walls:
        metrics.update(
            {
                "orchestrator.cell_wall_ms.p50": statistics.median(cell_walls),
                "orchestrator.cell_wall_ms.p95": statistics.quantiles(cell_walls, n=20)[18],
                "orchestrator.dispatch_overhead_share": statistics.median(
                    1.0 - sum(r.cell_wall_ms) / 1e3 / (rounds.CAMPAIGN_WORKERS * r.wall_s)
                    for r in reference
                ),
                "orchestrator.store.append_us": per_call("orchestrator.store.append", 1e6, traced),
                # The cursor folds every cell once when the round reads the store back.
                "orchestrator.store.refresh_us": row("orchestrator.store.refresh")["total_s"]
                * traced.host_speed * 1e6 / len(traced.ops_ok),
            }
        )
        run.notes.append(f"orchestrator.cell_wall_ms from {len(cell_walls)} untraced cells")
    metrics.update(probes.run_probes(rounds.OUT_DIR, repeats=1 if run.quick else 5))
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)  # layers this workload never enters

    share = metrics["trace.attributed_share"]
    if abs(share - 1.0) > ATTRIBUTION_TOLERANCE:
        run.notes.append(f"traced: spans attribute {share:.4f} of the traced wall time")
        run.failed = max(run.failed, 1)
    return metrics


def run_pass(args: argparse.Namespace) -> int:
    """One workload, one pass; the last line is the contract's JSON object."""
    workload = rounds.BY_NAME[args.workload]
    run = Pass(workload, args.seed, args.quick)
    started = time.perf_counter()
    if args.trace:
        detail = {name: {"value": value} for name, value in traced_pass(run, args.seconds).items()}
        catalogue = PER_LAYER
    else:
        detail = untraced_pass(run, args.seconds)
        catalogue = END_TO_END
    elapsed = time.perf_counter() - started

    print(
        f"{workload.name} seed {args.seed} trace {args.trace}: "
        f"{run.attempted} operations in {elapsed:.1f} s"
        + ("  [--quick: comparable: false]" if args.quick else "")
    )
    for name, spec in catalogue.items():
        stats = detail[name]
        line = f"  {name:<40} {stats['value']:>14.6g} {spec['unit']:<6}"
        if "n" in stats:
            line += (
                f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} n={stats['n']}"
                f" bound {spec['bound']:.0%} ({spec['better']} is better)"
            )
        print(line)
    print(f"  {'failed_share':<40} {run.failed / run.attempted:>14.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(f"  note: {note}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": detail[name]["value"], "unit": spec["unit"]}
                    for name, spec in catalogue.items()
                },
            }
        )
    )
    return 0 if run.failed == 0 else 1


# ---------------------------------------------------------------------- #
# The ledger: every workload, both passes, one or more sets
# ---------------------------------------------------------------------- #


def child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    """Run one pass in a process of its own; echo its rows, return its result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perf ledger: {' '.join(command)} exited {done.returncode} without a result")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, names: Sequence[str]) -> Dict[str, Dict[int, Dict[str, Any]]]:
    print("== end to end (tracing off) ==")
    untraced = {name: child(args, name, 0) for name in names}
    print("== per layer (one traced pass per workload) ==")
    traced = {name: child(args, name, 1) for name in names}
    return {name: {0: untraced[name], 1: traced[name]} for name in names}


def worsening(spec: Dict[str, Any], first: float, second: float) -> float:
    """By what share of *first* the *second* value is worse (negative: better)."""
    delta = first - second if spec["better"] == "higher" else second - first
    return delta / abs(first) if first else 0.0


def compare_sets(sets: List[Dict[str, Dict[int, Dict[str, Any]]]]) -> bool:
    """Print set-to-set agreement; False on a bound breach or a moved exact metric."""
    first, second = sets[0], sets[-1]
    ok = True
    print(f"== set 1 vs set {len(sets)} ==")
    print(f"  {'workload':<16} {'metric':<16} {'set 1':>12} {'set ' + str(len(sets)):>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in first:
        for metric, spec in END_TO_END.items():
            a = first[name][0]["metrics"][metric]["value"]
            b = second[name][0]["metrics"][metric]["value"]
            worse = worsening(spec, a, b)
            breach = worse > spec["bound"]
            ok = ok and not breach
            print(f"  {name:<16} {metric:<16} {a:>12.6g} {b:>12.6g} {worse:>+9.1%} "
                  f"{spec['bound']:>6.0%}" + ("  BREACH" if breach else ""))
        for metric in PER_LAYER:
            if metric.startswith(EXACT_PREFIXES):
                a = first[name][1]["metrics"][metric]["value"]
                b = second[name][1]["metrics"][metric]["value"]
                if a != b:
                    ok = False
                    print(f"  {name:<16} {metric}: {a!r} != {b!r}  NOT REPEATABLE")
    return ok


def run_ledger(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name for w in rounds.WORKLOADS]
    sets = []
    for index in range(args.sets):
        if args.sets > 1:
            print(f"==== set {index + 1} of {args.sets} ====")
        sets.append(run_set(args, names))
    results = [result for one in sets for passes in one.values() for result in passes.values()]
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    agree = compare_sets(sets) if args.sets > 1 else True
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(
        json.dumps(
            {
                "comparable": not args.quick,
                "correct": failed == 0 and agree,
                "attempted": attempted,
                "failed": failed,
                "sets": [
                    {
                        name: {
                            trace: {k: v["value"] for k, v in result["metrics"].items()}
                            for trace, result in passes.items()
                        }
                        for name, passes in one.items()
                    }
                    for one in sets
                ],
            }
        )
    )
    return 0 if failed == 0 and agree else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(rounds.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long one pass measures (timed rounds are whole)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: make only this pass (the driver's form)")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole ledger and compare the sets' values")
    parser.add_argument("--quick", action="store_true",
                        help="one round per pass, no warm-up; results are not comparable")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be at least 1")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.trace is not None:
        return run_pass(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
