"""Command-line interface: regenerate any figure or table from a shell.

Usage::

    python -m repro list                     # show available experiments
    python -m repro run fig07                # regenerate Fig. 7
    python -m repro run fig07 --json         # machine-readable rows
    python -m repro run fig06 --seed 3       # reproducible sampling
    python -m repro quickstart --rate 10.5   # one-off comparison
    python -m repro campaign run sweep.yaml  # parallel declarative sweep
    python -m repro campaign status sweep.yaml
    python -m repro campaign report sweep.yaml
    python -m repro workload list            # named generative/replay workloads
    python -m repro workload describe bursty-mmpp
    python -m repro workload preview incast-sync --packets 5000
    python -m repro faults list              # named fault-injection profiles
    python -m repro faults preview chaos-mix --horizon-us 6000
    python -m repro run fig07 --faults link-flap  # inject faults into a figure
    python -m repro validate run --scenario workload -p workload=bursty-mmpp
    python -m repro validate fuzz --budget 30s --seed 0
    python -m repro validate replay          # re-run the shrunk-repro corpus
    python -m repro observe run --faults link-flap --out observations/
    python -m repro observe trace --format chrome   # chrome://tracing export
    python -m repro observe profile          # wall-time per engine stage
    python -m repro run chaos --trace --metrics     # figures with the plane on
    python -m repro bench --obs-check               # observability overhead gate
    python -m repro --log-level debug run fig07     # verbose stderr diagnostics

``list`` and ``run`` read the one figure registry,
:data:`repro.experiments.figures.FIGURES`; ``campaign`` drives the
:mod:`repro.orchestrator` subsystem (grid expansion, multi-process
execution, resumable JSONL result store).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.figures import FIGURES
from repro.errors import require_positive_finite
from repro.experiments.runner import DEFAULT_SEED, run_options
from repro.logconfig import LOG_LEVELS, configure_logging

logger = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PayloadPark reproduction: regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr (same as --log-level debug)",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="info",
        help="stderr diagnostic verbosity for every subcommand (default info)",
    )
    # Every leaf command names its handler; `errors` are the exceptions
    # that mean bad input (one `error:` line, exit 2) rather than a bug.
    parser.set_defaults(handler=None, errors=(ValueError, RuntimeError, OSError))
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(handler=_list, errors=())

    run_parser = subparsers.add_parser("run", help="run one experiment by name")
    run_parser.set_defaults(handler=_run, errors=(ValueError,))
    run_parser.add_argument("experiment", choices=sorted(FIGURES), help="experiment id")
    run_parser.add_argument(
        "--json", action="store_true", help="emit the experiment's rows as JSON"
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the default simulation seed for reproducible runs",
    )
    run_parser.add_argument(
        "--time-scale", type=float, default=None,
        help="scale every scenario's simulated duration (e.g. 0.1 for a "
             "quick shorter-horizon pass)",
    )
    run_parser.add_argument(
        "--faults", default=None, metavar="PROFILE",
        help="inject a fault profile into every scenario the experiment "
             "builds (see 'repro faults list')",
    )
    run_parser.add_argument(
        "--metrics", action="store_true",
        help="sample time-series metrics during every run the experiment "
             "performs and export them under --obs-dir",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record packet-lifecycle traces (JSONL + Chrome trace-event) "
             "during every run and export them under --obs-dir",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="attribute wall-time to engine stages during every run and "
             "export the reports under --obs-dir",
    )
    run_parser.add_argument(
        "--obs-dir", default="observations",
        help="directory for --metrics/--trace/--profile exports "
             "(default observations/)",
    )

    quick_parser = subparsers.add_parser(
        "quickstart", help="run a single PayloadPark-vs-baseline comparison"
    )
    quick_parser.set_defaults(handler=_quickstart)
    quick_parser.add_argument(
        "--rate", type=float, default=10.5, help="offered load in Gbps (default 10.5)"
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="declarative sweep campaigns (parallel, resumable)"
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command")

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", help="campaign spec file (.yaml/.yml/.json)")
        sub.add_argument(
            "--store", default=None,
            help="result store path (default results/<campaign>.jsonl)",
        )
        sub.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="split the store into N hash-keyed shard files "
                 "(<name>.shard-NN.jsonl); existing shards are detected "
                 "automatically, so this mainly matters on first write",
        )
        sub.add_argument(
            "--time-scale", type=float, default=None,
            help="override the campaign's simulated-time scale "
                 "(part of each run's identity, so status/report need the "
                 "same value the runs used)",
        )

    campaign_run = campaign_sub.add_parser("run", help="execute every pending grid point")
    campaign_run.set_defaults(handler=_campaign_run)
    add_common(campaign_run)
    campaign_run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count; 1 = serial)",
    )
    campaign_run.add_argument(
        "--no-resume", action="store_true",
        help="re-execute grid points that already have records",
    )
    campaign_run.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON"
    )
    campaign_run.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="seconds between the dispatcher's heartbeat lines in the store "
             "for each running cell; serial runs write none (default 5)",
    )
    campaign_run.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock deadline under parallel dispatch; a cell "
             "past it loses its worker and is retried (default: none)",
    )
    campaign_run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="retry budget per cell across crashes, timeouts and recorded "
             "failures; at the budget the cell is stamped 'exhausted' "
             "(default 3; 0 retries forever)",
    )
    campaign_run.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential backoff between cell retries "
             "(default 0.5)",
    )

    campaign_status = campaign_sub.add_parser(
        "status", help="show completed/pending/failed counts"
    )
    campaign_status.set_defaults(handler=_campaign_status)
    add_common(campaign_status)

    campaign_serve = campaign_sub.add_parser(
        "serve",
        help="HTTP endpoints over campaign state: /status /cells "
             "/violations /events /metrics (live tail or post-hoc)",
    )
    campaign_serve.set_defaults(handler=_campaign_serve)
    add_common(campaign_serve)
    campaign_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    campaign_serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default 8765; 0 picks a free port)",
    )
    campaign_serve.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="store tail poll interval while following a live "
             "campaign (default 0.5)",
    )
    campaign_serve.add_argument(
        "--no-follow", action="store_true",
        help="serve a frozen post-hoc snapshot instead of tailing the "
             "store",
    )
    campaign_serve.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop serving after this many seconds (default: until Ctrl-C)",
    )

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate stored records into a table"
    )
    campaign_report.set_defaults(handler=_campaign_report)
    add_common(campaign_report)
    campaign_report.add_argument(
        "--json", action="store_true", help="emit the aggregated rows as JSON"
    )
    campaign_report.add_argument(
        "--columns", default=None,
        help="comma-separated metric columns (default: all)",
    )

    workload_parser = subparsers.add_parser(
        "workload", help="inspect and preview named traffic workloads"
    )
    workload_sub = workload_parser.add_subparsers(dest="workload_command")

    workload_list = workload_sub.add_parser("list", help="list registered workloads")
    workload_list.set_defaults(handler=_workload_list)
    workload_list.add_argument(
        "--names", action="store_true", help="print bare names only, one per line"
    )

    workload_describe = workload_sub.add_parser(
        "describe", help="show one workload's composition"
    )
    workload_describe.set_defaults(handler=_workload_describe)
    workload_describe.add_argument("name", help="workload name (see 'workload list')")
    workload_describe.add_argument(
        "--pcap", default=None,
        help="replay this capture instead of the built-in one (pcap-replay only)",
    )

    workload_preview = workload_sub.add_parser(
        "preview",
        help="run the workload's traffic generator alone for N packets and "
             "print summary statistics",
    )
    workload_preview.set_defaults(handler=_workload_preview)
    workload_preview.add_argument("name", help="workload name (see 'workload list')")
    workload_preview.add_argument(
        "--packets", type=int, default=2000, help="trace length (default 2000)"
    )
    workload_preview.add_argument(
        "--seed", type=int, default=None,
        help="trace seed (default: the experiments' default seed)",
    )
    workload_preview.add_argument(
        "--rate", type=float, default=None,
        help="rescale the workload's mean offered rate (Gbps)",
    )
    workload_preview.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    workload_preview.add_argument(
        "--pcap", default=None,
        help="replay this capture instead of the built-in one (pcap-replay only)",
    )

    faults_parser = subparsers.add_parser(
        "faults", help="inspect and preview fault-injection profiles"
    )
    faults_sub = faults_parser.add_subparsers(dest="faults_command")

    faults_list = faults_sub.add_parser("list", help="list registered fault profiles")
    faults_list.set_defaults(handler=_faults_list)
    faults_list.add_argument(
        "--names", action="store_true", help="print bare names only, one per line"
    )

    faults_describe = faults_sub.add_parser(
        "describe", help="show one profile's events and generators"
    )
    faults_describe.set_defaults(handler=_faults_describe)
    faults_describe.add_argument("name", help="profile name (see 'faults list')")

    faults_preview = faults_sub.add_parser(
        "preview",
        help="materialize a profile against a horizon and print the event "
             "timeline (no simulation run)",
    )
    faults_preview.set_defaults(handler=_faults_preview)
    faults_preview.add_argument("name", help="profile name (see 'faults list')")
    faults_preview.add_argument(
        "--horizon-us", type=float, default=6_000.0,
        help="run horizon the schedule resolves against (default 6000)",
    )
    faults_preview.add_argument(
        "--seed", type=int, default=None,
        help="materialization seed (default: the experiments' default seed)",
    )
    faults_preview.add_argument(
        "--json", action="store_true", help="emit the event timeline as JSON"
    )

    validate_parser = subparsers.add_parser(
        "validate",
        help="invariant engine, metamorphic checks and the scenario fuzzer",
    )
    validate_sub = validate_parser.add_subparsers(dest="validate_command")

    validate_run = validate_sub.add_parser(
        "run", help="check invariants/relations on one scenario"
    )
    validate_run.set_defaults(handler=_validate_run)
    validate_run.add_argument(
        "descriptor", nargs="?", default=None,
        help="scenario descriptor JSON (a corpus entry); omit to use --scenario",
    )
    validate_run.add_argument(
        "--scenario", default="fw_nat_lb_10ge",
        help="registry scenario name (default fw_nat_lb_10ge)",
    )
    validate_run.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="scenario parameter override (repeatable; values parsed as JSON)",
    )
    validate_run.add_argument(
        "--relations", default=None,
        help="comma-separated metamorphic relations "
             "(fast_slow, determinism, time_scale, rate_monotonicity; '' = none; "
             "default: a descriptor file's recorded relations, else fast_slow)",
    )
    validate_run.add_argument(
        "--time-scale", type=float, default=1.0,
        help="simulated-duration multiplier for the checked runs",
    )
    validate_run.add_argument(
        "--json", action="store_true", help="emit the validation report as JSON"
    )

    validate_fuzz = validate_sub.add_parser(
        "fuzz", help="differential scenario fuzzing with shrinking"
    )
    validate_fuzz.set_defaults(handler=_validate_fuzz)
    validate_fuzz.add_argument(
        "--seed", type=int, default=0, help="fuzz seed (default 0)"
    )
    validate_fuzz.add_argument(
        "--scenarios", type=int, default=None,
        help="number of scenarios to generate (default 50 when no --budget)",
    )
    validate_fuzz.add_argument(
        "--budget", default=None,
        help="wall-clock budget, e.g. 30s or 2m (checked between scenarios)",
    )
    validate_fuzz.add_argument(
        "--corpus", default=None,
        help="directory for shrunk repros (default tests/validation_corpus)",
    )
    validate_fuzz.add_argument(
        "--no-corpus", action="store_true",
        help="do not write failing repros anywhere",
    )
    validate_fuzz.add_argument(
        "--relations", default="fast_slow",
        help="comma-separated relations applied to every scenario",
    )
    validate_fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failures"
    )
    validate_fuzz.add_argument(
        "--json", action="store_true", help="emit the fuzz summary as JSON"
    )

    validate_replay = validate_sub.add_parser(
        "replay", help="re-execute every corpus repro"
    )
    validate_replay.set_defaults(handler=_validate_replay)
    validate_replay.add_argument(
        "--corpus", default=None,
        help="corpus directory (default tests/validation_corpus)",
    )
    validate_replay.add_argument(
        "--json", action="store_true", help="emit the replay summary as JSON"
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the overhead gates (all, or the ones named); "
             "exit 3 when one fails",
    )
    bench_parser.set_defaults(handler=_bench)
    bench_parser.add_argument(
        "--json", action="store_true", help="emit the measurements as JSON"
    )
    bench_parser.add_argument(
        "--obs-check", action="store_true",
        help="fail when the disabled observability plane costs more than "
             "repro.bench.OBS_OVERHEAD_TOLERANCE of throughput",
    )

    obs_parser = subparsers.add_parser(
        "obs",
        help="cross-run observability: diff metrics exports, list campaign runs",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command")

    obs_diff = obs_sub.add_parser(
        "diff",
        help="metric-by-metric delta between two repro.metrics/v1 exports",
    )
    obs_diff.set_defaults(handler=_obs_diff)
    obs_diff.add_argument(
        "run_a", help="metrics export file, or a directory with exactly one"
    )
    obs_diff.add_argument(
        "run_b", help="metrics export file, or a directory with exactly one"
    )
    obs_diff.add_argument(
        "--top", type=int, default=None,
        help="show only the N biggest movers per section",
    )
    obs_diff.add_argument(
        "--json", action="store_true", help="emit the structured diff as JSON"
    )

    obs_runs = obs_sub.add_parser(
        "runs", help="summarize every campaign store under the results root"
    )
    obs_runs.set_defaults(handler=_obs_runs)
    obs_runs.add_argument(
        "--root", default="results",
        help="directory holding campaign stores (default results/)",
    )
    obs_runs.add_argument(
        "--json", action="store_true", help="emit the run index as JSON"
    )

    observe_parser = subparsers.add_parser(
        "observe",
        help="observability plane: metrics time-series, packet traces, "
             "phase profiles",
    )
    observe_sub = observe_parser.add_subparsers(dest="observe_command")
    observe_errors = (KeyError, ValueError, RuntimeError, OSError)

    def add_observe_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario", default="fw_nat_lb_10ge",
            help="registry scenario name (default fw_nat_lb_10ge; see "
                 "repro.orchestrator.spec.SCENARIO_REGISTRY)",
        )
        sub.add_argument(
            "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
            help="scenario parameter override (repeatable; values parsed as JSON)",
        )
        sub.add_argument(
            "--deployment", choices=("both", "baseline", "payloadpark"),
            default="payloadpark",
            help="which deployment(s) to run (default payloadpark)",
        )
        sub.add_argument(
            "--faults", default=None, metavar="PROFILE",
            help="inject a fault profile (see 'repro faults list')",
        )
        sub.add_argument(
            "--seed", type=int, default=None, help="override the scenario seed"
        )
        sub.add_argument(
            "--time-scale", type=float, default=1.0,
            help="simulated-duration multiplier (default 1.0)",
        )
        sub.add_argument(
            "--sample-every", type=int, default=None, metavar="N",
            help="trace every Nth generated packet (default 1 = all)",
        )
        sub.add_argument(
            "--interval-us", type=float, default=None,
            help="metrics sampling interval in simulated microseconds "
                 "(default 50)",
        )

    observe_run = observe_sub.add_parser(
        "run",
        help="run one scenario with the full plane armed and export "
             "metrics + traces + profile",
    )
    observe_run.set_defaults(handler=_observe_run, errors=observe_errors)
    add_observe_common(observe_run)
    observe_run.add_argument(
        "--out", default="observations",
        help="export directory (default observations/)",
    )
    observe_run.add_argument(
        "--json", action="store_true", help="emit the run summaries as JSON"
    )

    observe_metrics = observe_sub.add_parser(
        "metrics", help="run one scenario and emit its metrics export"
    )
    observe_metrics.set_defaults(handler=_observe_metrics, errors=observe_errors)
    add_observe_common(observe_metrics)
    observe_metrics.add_argument(
        "--out", default=None, help="write to this file instead of stdout"
    )

    observe_trace = observe_sub.add_parser(
        "trace", help="run one scenario and emit its packet-lifecycle trace"
    )
    observe_trace.set_defaults(handler=_observe_trace, errors=observe_errors)
    add_observe_common(observe_trace)
    observe_trace.add_argument(
        "--format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace output format (default jsonl; chrome loads in "
             "chrome://tracing / Perfetto)",
    )
    observe_trace.add_argument(
        "--out", default=None, help="write to this file instead of stdout"
    )

    observe_profile = observe_sub.add_parser(
        "profile", help="run one scenario and emit its phase-profiler report"
    )
    observe_profile.set_defaults(handler=_observe_profile, errors=observe_errors)
    add_observe_common(observe_profile)
    observe_profile.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    observe_profile.add_argument(
        "--out", default=None, help="write the JSON report to this file too"
    )
    return parser


def _run(args) -> int:
    """Run one figure under the run options its flags name; print text or JSON."""
    from repro.obs.session import observation_sink

    flags = {
        "seed": args.seed,
        "time_scale": args.time_scale,
        "faults": args.faults,
    }
    if args.metrics or args.trace or args.profile:
        from repro.obs.config import ObserveSpec

        flags["observe"] = ObserveSpec(
            metrics=args.metrics, trace=args.trace, profile=args.profile
        )
    # A flag left out (None) is not an override: the option keeps its default.
    overrides = {key: value for key, value in flags.items() if value is not None}
    figure = FIGURES[args.experiment]
    with run_options(**overrides), observation_sink() as obs_sink:
        result = figure.run()
        text = None if args.json else figure.render(result)
    if "observe" in overrides:
        _export_observations(obs_sink.observations, Path(args.obs_dir))
    if args.json:
        json.dump(
            {"experiment": args.experiment, "result": result},
            sys.stdout, indent=2, default=str,
        )
        print()
    else:
        print(text)
    return 0


def _export_observations(observations, out_dir: Path) -> List[Path]:
    """Write every observation's exports to *out_dir*; log the paths."""
    from repro.obs.export import observation_stem, write_observation

    written: List[Path] = []
    for index, observation in enumerate(observations):
        stem = observation_stem(observation, index)
        written.extend(write_observation(observation, out_dir, stem))
    if written:
        logger.info(
            "wrote %d observability export(s) for %d run(s) to %s",
            len(written), len(observations), out_dir,
        )
        for path in written:
            logger.debug("export: %s", path)
    else:
        logger.warning("observability was armed but no runs were observed")
    return written


def _bench(args) -> int:
    """Run the gates named, or all when none is; exit 3 if one fails."""
    from repro import bench

    named = {"obs_overhead": args.obs_check}
    payload = {}
    reports = []
    exit_code = 0
    for key in [key for key in bench.GATES if named[key]] or bench.GATES:
        gate = bench.GATES[key]
        result = bench.run_gate(gate)
        payload[key] = result
        reports.append(bench.format_gate(gate, result))
        ok, message = bench.check_gate(gate, result)
        (logger.info if ok else logger.error)("%s", message)
        if not ok:
            exit_code = 3
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print("\n".join(reports))
    return exit_code


# ---------------------------------------------------------------------- #
# Obs subcommands (cross-run)
# ---------------------------------------------------------------------- #


def _obs_diff(args) -> int:
    from repro.obs.diff import diff_metrics, format_diff, load_metrics_export

    export_a = load_metrics_export(args.run_a)
    export_b = load_metrics_export(args.run_b)
    diff = diff_metrics(export_a, export_b)
    if args.json:
        json.dump(diff, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"metrics diff: a={args.run_a} b={args.run_b}")
        print(format_diff(diff, top=args.top))
    return 0


def _obs_runs(args) -> int:
    from repro.orchestrator.store import campaign_runs
    from repro.telemetry.report import render_table

    rows = campaign_runs(args.root)
    if args.json:
        json.dump({"runs": rows}, sys.stdout, indent=2)
        print()
    elif not rows:
        print(f"no campaign stores under {args.root}/")
    else:
        print(render_table(rows))
    return 0


# ---------------------------------------------------------------------- #
# Observe subcommands
# ---------------------------------------------------------------------- #


def _observe_spec(args, metrics: bool, trace: bool, profile: bool):
    from repro.obs.config import ObserveSpec

    overrides = {"metrics": metrics, "trace": trace, "profile": profile}
    if args.sample_every is not None:
        overrides["trace_sample_every"] = args.sample_every
    if args.interval_us is not None:
        overrides["sample_interval_us"] = args.interval_us
    return ObserveSpec(**overrides)


def _observe_execute(args, spec) -> list:
    """Run the requested scenario under *spec*; return the observations."""
    import dataclasses

    from repro.experiments.runner import DeploymentKind, ExperimentRunner
    from repro.obs.session import ObservationSink, observation_sink
    from repro.orchestrator.spec import RunSpec, build_scenario

    run = RunSpec(
        scenario=args.scenario,
        params=_parse_params(args.param),
        time_scale=args.time_scale,
    )
    scenario = build_scenario(run)
    replacements: Dict[str, object] = {"observe": spec}
    if args.faults is not None:
        replacements["faults"] = args.faults
    if args.seed is not None:
        replacements["seed"] = args.seed
    scenario = dataclasses.replace(scenario, **replacements)
    runner = ExperimentRunner(time_scale=args.time_scale)
    sink = ObservationSink()
    logger.info(
        "observing %s (deployment=%s, faults=%s, seed=%d)",
        args.scenario, args.deployment, args.faults, scenario.seed,
    )
    with observation_sink(sink):
        if args.deployment == "both":
            runner.compare(scenario)
        else:
            runner.run_deployment(scenario, DeploymentKind(args.deployment))
    return sink.observations


def _observe_run(args) -> int:
    spec = _observe_spec(args, metrics=True, trace=True, profile=True)
    observations = _observe_execute(args, spec)
    written = _export_observations(observations, Path(args.out))
    if args.json:
        json.dump(
            {
                "scenario": args.scenario,
                "observations": [obs.summary() for obs in observations],
                "files": [str(path) for path in written],
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        for observation in observations:
            summary = observation.summary()
            profile = summary.get("profile") or {}
            print(
                f"{observation.deployment}: "
                f"{summary['metrics']['samples_taken']} metric sample(s), "
                f"trace {summary['trace']['summary_line']}, "
                f"top stage {profile.get('top_stage', 'n/a')}"
            )
        for path in written:
            print(f"wrote {path}")
    return 0


def _emit_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        logger.info("wrote %s", out)


def _observe_metrics(args) -> int:
    from repro.obs.schema import validate_metrics

    observations = _observe_execute(
        args, _observe_spec(args, metrics=True, trace=False, profile=False)
    )
    exports = [obs.metrics for obs in observations if obs.metrics is not None]
    for export in exports:
        validate_metrics(export)
    payload = exports[0] if len(exports) == 1 else exports
    _emit_text(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _observe_trace(args) -> int:
    from repro.obs.schema import validate_chrome_trace, validate_trace_jsonl

    observations = _observe_execute(
        args, _observe_spec(args, metrics=False, trace=True, profile=False)
    )
    chunks = []
    for observation in observations:
        if args.format == "chrome":
            validate_chrome_trace(observation.chrome_trace)
            chunks.append(json.dumps(observation.chrome_trace, sort_keys=True))
        else:
            validate_trace_jsonl(observation.trace_jsonl)
            chunks.append(observation.trace_jsonl.rstrip("\n"))
    _emit_text("\n".join(chunks) + "\n", args.out)
    return 0


def _observe_profile(args) -> int:
    from repro.obs.export import format_profile
    from repro.obs.schema import validate_profile

    observations = _observe_execute(
        args, _observe_spec(args, metrics=False, trace=False, profile=True)
    )
    reports = [obs.profile for obs in observations if obs.profile is not None]
    for report in reports:
        validate_profile(report)
    if args.out is not None:
        payload = reports[0] if len(reports) == 1 else reports
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        logger.info("wrote %s", args.out)
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for observation, report in zip(observations, reports):
            print(f"[{observation.deployment}]")
            print(format_profile(report))
    return 0


# ---------------------------------------------------------------------- #
# Campaign subcommands
# ---------------------------------------------------------------------- #


def _load_campaign(args):
    from repro.orchestrator import CampaignSpec, ResultStore, default_store_path

    campaign = CampaignSpec.from_file(args.spec)
    if getattr(args, "time_scale", None) is not None:
        campaign = campaign.with_time_scale(args.time_scale)
    store_path = Path(args.store) if args.store else default_store_path(campaign.name)
    return campaign, ResultStore(store_path, shards=getattr(args, "shards", None))


def _campaign_run(args) -> int:
    from repro.orchestrator import CampaignExecutor

    campaign, store = _load_campaign(args)

    def progress(record):
        status = record["status"]
        point = ", ".join(f"{k}={v}" for k, v in sorted(record["params"].items()))
        line = f"[{status}] {record['scenario']}({point}) {record['wall_time_s']:.2f}s"
        if status != "ok":
            line += f" — {record.get('error', 'unknown error')}"
        logger.info("%s", line)

    # Built before the campaign starts: a bad --workers / --cell-timeout /
    # --max-attempts / --retry-backoff is rejected with nothing on disk.
    executor = CampaignExecutor(
        workers=args.workers,
        progress=None if args.json else progress,
        log_level="debug" if args.verbose else args.log_level,
        heartbeat_interval_s=args.heartbeat,
        cell_timeout_s=args.cell_timeout,
        max_attempts=args.max_attempts,
        retry_backoff_s=args.retry_backoff,
    )
    summary = executor.run_campaign(campaign, store=store, resume=not args.no_resume)
    if args.json:
        json.dump(summary.as_row(), sys.stdout, indent=2)
        print()
    else:
        failed = f"{summary.failed} failed"
        if summary.exhausted:
            failed += f", {summary.exhausted} exhausted"
        print(
            f"campaign {campaign.name!r}: {summary.total} points, "
            f"{summary.executed} executed, "
            f"{summary.baselines_simulated} baselines simulated, {failed}, "
            f"{summary.skipped} skipped, {summary.wall_time_s:.2f}s "
            f"-> {store.path}"
        )
    return 1 if summary.failed else 0


def _campaign_serve(args) -> int:
    import time as _time

    from repro.orchestrator.serve import CampaignServer, StoreFollower, monitor_from_store

    # Checked before anything starts: a bad value leaves no thread or socket.
    if not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0..65535, got {args.port}")
    if args.max_seconds is not None and not 0 <= args.max_seconds < math.inf:
        raise ValueError(f"--max-seconds must be finite and >= 0, got {args.max_seconds}")
    campaign, store = _load_campaign(args)
    # Post-hoc serving is the follower's first poll; following a live
    # `repro campaign run` is the same follower polling on.
    follower = StoreFollower(
        monitor_from_store(campaign), store.path, poll_interval_s=args.poll_interval
    )
    follower.poll_once()
    server = CampaignServer(follower.monitor, host=args.host, port=args.port)
    if not args.no_follow:
        follower.start()
    server.start()
    print(f"serving campaign {campaign.name!r} on {server.url}")
    print("  endpoints: /status /cells /violations /events /metrics")
    print(f"  store: {store.path}" + ("" if args.no_follow else " (following)"))
    try:
        if args.max_seconds is not None:
            _time.sleep(args.max_seconds)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down")
    finally:
        server.stop()
        follower.stop()
    return 0


def _campaign_status(args) -> int:
    from collections import Counter

    campaign, store = _load_campaign(args)
    specs = campaign.expand()
    cells = Counter(
        state for state, _ in store.cell_states(spec.spec_hash for spec in specs)
    )
    print(f"campaign:  {campaign.name} ({campaign.scenario}, mode={campaign.mode})")
    print(f"store:     {store.path}")
    if store.shards > 1:
        print(f"shards:    {store.shards}")
    print(f"points:    {len(specs)}")
    print(f"completed: {cells['ok']}")
    print(f"pending:   {cells['pending'] + cells['failing']}")
    print(f"failing:   {cells['failing']} (latest attempt errored; retried on resume)")
    print(f"exhausted: {cells['exhausted']} (retry budget spent; re-run with --no-resume)")
    return 0


def _campaign_report(args) -> int:
    from repro.orchestrator.aggregate import campaign_rows
    from repro.telemetry.report import render_table

    campaign, store = _load_campaign(args)
    columns = None
    if args.columns:
        columns = [name.strip() for name in args.columns.split(",") if name.strip()]
    rows = campaign_rows(campaign, store.latest_by_hash(), metric_columns=columns)
    if args.json:
        json.dump({"campaign": campaign.name, "rows": rows}, sys.stdout, indent=2)
        print()
    elif not rows:
        print(f"no completed records for campaign {campaign.name!r} in {store.path}")
    else:
        print(render_table(rows))
    return 0


# ---------------------------------------------------------------------- #
# Validate subcommands
# ---------------------------------------------------------------------- #


def _parse_relations(text: str):
    from repro.validation import build_relations

    names = [name.strip() for name in (text or "").split(",") if name.strip()]
    return build_relations(names)


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"parameter {pair!r} is not KEY=VALUE")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key.strip()] = value
    return params


def _print_violations(violations) -> None:
    for violation in violations:
        logger.warning("VIOLATION %s", violation)


def _validate_run(args) -> int:
    from repro.orchestrator.spec import RunSpec
    from repro.validation import (
        check_run,
        load_entry,
        run_spec_from_entry,
        validate_entry_names,
    )
    from repro.validation.corpus import entry_relation_names

    if args.descriptor is not None:
        entry = load_entry(args.descriptor)
        validate_entry_names(entry, source=args.descriptor)
        run = run_spec_from_entry(entry)
        if args.time_scale != 1.0:
            run = RunSpec(scenario=run.scenario, mode=run.mode,
                          params=dict(run.params), time_scale=args.time_scale)
        # Triage default: re-run the relations that originally fired, so
        # a determinism/time-scale repro reproduces here, not just in
        # `validate replay`.
        if args.relations is None:
            relations = _parse_relations(",".join(entry_relation_names(entry)))
        else:
            relations = _parse_relations(args.relations)
    else:
        relations = _parse_relations(
            args.relations if args.relations is not None else "fast_slow"
        )
        run = RunSpec(
            scenario=args.scenario,
            params=_parse_params(args.param),
            time_scale=args.time_scale,
        )
    violations = check_run(run, relations)
    if args.json:
        json.dump(
            {
                "scenario": run.scenario,
                "params": dict(run.params),
                "ok": not violations,
                "violations": [violation.as_dict() for violation in violations],
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        point = ", ".join(f"{k}={v}" for k, v in sorted(run.params.items()))
        print(f"validate {run.scenario}({point})")
        print(f"relations: {[relation.name for relation in relations]}")
        if violations:
            _print_violations(violations)
        print(f"result: {'FAIL' if violations else 'ok'} "
              f"({len(violations)} violation(s))")
    return 4 if violations else 0


def _validate_fuzz(args) -> int:
    from repro.validation import DEFAULT_CORPUS_DIR, fuzz, parse_budget

    budget_s = parse_budget(args.budget) if args.budget else None
    corpus_dir = None if args.no_corpus else (args.corpus or DEFAULT_CORPUS_DIR)
    relation_names = [
        name.strip() for name in (args.relations or "").split(",") if name.strip()
    ]

    def progress(index, run, violations):
        point = ", ".join(f"{k}={v}" for k, v in sorted(run.params.items()))
        status = f"FAIL({len(violations)})" if violations else "ok"
        logger.info("[%s] #%d %s(%s)", status, index, run.scenario, point)

    result = fuzz(
        seed=args.seed,
        max_scenarios=args.scenarios,
        budget_s=budget_s,
        corpus_dir=str(corpus_dir) if corpus_dir is not None else None,
        relation_names=relation_names,
        progress=None if args.json else progress,
        shrink_failures=not args.no_shrink,
    )
    if args.json:
        json.dump(result.as_dict(), sys.stdout, indent=2)
        print()
    else:
        print(
            f"fuzz seed={result.seed}: {result.scenarios_checked} scenarios, "
            f"{len(result.failures)} failure(s), {result.wall_time_s:.1f}s"
        )
        for failure in result.failures:
            print(
                f"  shrunk {failure.original_size:.1f} -> {failure.shrunk_size:.1f}: "
                f"{failure.shrunk.scenario}({dict(failure.shrunk.params)})"
            )
            _print_violations(failure.violations[:3])
        for path in result.corpus_paths:
            print(f"  wrote {path}")
    return 4 if result.failures else 0


def _validate_replay(args) -> int:
    from repro.validation import replay_corpus

    summary = replay_corpus(args.corpus)
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        print(f"replayed {summary['entries']} corpus entr(ies); "
              f"{summary['failing']} still failing")
        for entry in summary["results"]:
            status = "ok" if entry["ok"] else "FAIL"
            print(f"  [{status}] {entry['path']}")
    return 4 if summary["failing"] else 0


# ---------------------------------------------------------------------- #
# Faults subcommands
# ---------------------------------------------------------------------- #


def _faults_list(args) -> int:
    from repro.faults import fault_profile_names, get_fault_profile

    names = fault_profile_names()
    if args.names:
        for name in names:
            print(name)
        return 0
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name.ljust(width)}  {get_fault_profile(name).description}")
    return 0


def _faults_describe(args) -> int:
    from repro.faults import get_fault_profile

    info = get_fault_profile(args.name).describe()
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _faults_preview(args) -> int:
    from repro.faults import get_fault_profile
    from repro.telemetry.report import render_table

    require_positive_finite("--horizon-us", args.horizon_us)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    schedule = get_fault_profile(args.name)
    events = schedule.materialize(seed, int(args.horizon_us * 1_000))
    rows = [event.as_row() for event in events]
    if args.json:
        json.dump(
            {"profile": schedule.name, "seed": seed,
             "horizon_us": args.horizon_us, "events": rows},
            sys.stdout,
            indent=2,
        )
        print()
    elif not rows:
        print(f"profile {schedule.name!r}: no events inside {args.horizon_us:g} us")
    else:
        columns = ["at_us", "kind"]
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        print(render_table(rows, columns=columns))
        print(f"{len(rows)} event(s) over {args.horizon_us:g} us (seed {seed})")
    return 0


# ---------------------------------------------------------------------- #
# Workload subcommands
# ---------------------------------------------------------------------- #


def _resolve_workload(args):
    """The spec named on the command line (or an ad-hoc PCAP replay)."""
    from repro.workloads import PcapReplayWorkload, get_workload

    if getattr(args, "pcap", None):
        if args.name != "pcap-replay":
            raise ValueError("--pcap is only valid with the 'pcap-replay' workload")
        return PcapReplayWorkload.from_file(args.pcap)
    return get_workload(args.name)


def _workload_list(args) -> int:
    from repro.workloads import get_workload, workload_names

    names = workload_names()
    if args.names:
        for name in names:
            print(name)
        return 0
    width = max(len(name) for name in names)
    for name in names:
        spec = get_workload(name)
        print(f"{name.ljust(width)}  [{spec.kind}] {spec.description}")
    return 0


def _workload_describe(args) -> int:
    info = _resolve_workload(args).describe()
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _workload_preview(args) -> int:
    from repro.telemetry.report import render_table
    from repro.workloads import summarize

    if args.packets <= 0:
        raise ValueError("--packets must be positive")
    if args.rate is not None:
        require_positive_finite("--rate", args.rate)
    spec = _resolve_workload(args)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    summary = summarize(spec.trace(seed, args.packets, rate_gbps=args.rate))
    if args.json:
        payload = {"workload": spec.name, "seed": seed, "summary": summary.as_row()}
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(render_table([{"workload": spec.name, "seed": seed, **summary.as_row()}]))
    return 0


def _list(args) -> int:
    width = max(len(name) for name in FIGURES)
    for name in sorted(FIGURES):
        print(f"{name.ljust(width)}  {FIGURES[name].summary}")
    return 0


def _quickstart(args) -> int:
    from repro.experiments.quickstart import run_quickstart
    from repro.telemetry.report import render_table

    report = run_quickstart(send_rate_gbps=args.rate)
    print(render_table([report.baseline.as_row(), report.payloadpark.as_row()]))
    print(f"goodput gain: {report.goodput_gain_percent:+.2f}%  "
          f"PCIe savings: {report.pcie_savings_percent:+.2f}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging("debug" if args.verbose else args.log_level)
    if args.handler is None:  # no command, or a command group without its leaf
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except args.errors as exc:
        logger.error("error: %s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
