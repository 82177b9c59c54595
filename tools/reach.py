#!/usr/bin/env python3
"""Reach census: which functions under ``src/`` the declared entry points enter.

    python tools/reach.py            # run the census, rewrite REACH.json
    python tools/reach.py --check    # run it, exit 1 on anything REACH.json does not explain

The census installs a profiler before the first ``repro`` import and
runs every row of the declared table, :func:`entry_points`, in this
process, from a temporary directory: every registered figure, every
example campaign (serially and with two forked workers), every example
script, ``campaign serve`` with each endpoint fetched once, each
perf-ledger pass, and one invocation of every leaf command of the CLI
parser.  The ``campaign serve`` row runs every payload it fetches
through the ``repro.campaign/v1`` validators, and each example
campaign's store is read back through ``ResultStore.record_count``, as
CI's smoke jobs do.  A campaign worker is a forked process that leaves
through ``os._exit``, so the census wraps the worker's main function
(:data:`WORKER_MAINS`) to write what the worker entered before it
returns.

Every ``def`` under ``src/`` (methods and nested functions too) is
entered or not.  ``REACH.json`` records the per-package line totals and
one classification for every function no entry point enters:

* ``failure-only``: it runs only when something goes wrong (a fuzz
  failure being shrunk, a dispatcher worker dying, an error branch);
* ``oracle``: a reference implementation the default engine is diffed
  against;
* ``test-api``: tests read it to observe live behaviour.

Each classification names the tests that enter the function.
``--check`` runs those tests in one pytest session under the same
profiler and exits 1, naming each problem, when a function is
unentered and unclassified, a classification's function is now entered
or gone, a named test does not enter its function, a CLI leaf command
has no entry point, an entry point exits with an unexpected status, or
the committed totals are stale.  Standard library only, apart from
pytest for ``--check``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
REACH_FILE = REPO / "REACH.json"
CLASSES = ("failure-only", "oracle", "test-api")

#: (module, attribute) of each function a forked worker process runs.
WORKER_MAINS = (("repro.orchestrator.dispatcher", "_dispatch_worker_main"),)

CodeKey = Tuple[str, int]  # (co_filename, co_firstlineno)


# ---------------------------------------------------------------------- #
# The profiler
# ---------------------------------------------------------------------- #


class Recorder:
    """Every code object entered while installed, on every thread."""

    def __init__(self) -> None:
        self.codes: Dict[int, object] = {}

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code

    def install(self) -> None:
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def take(self) -> Set[CodeKey]:
        """What was entered since the last take, as (filename, first line)."""
        codes, self.codes = self.codes, {}
        return {(code.co_filename, code.co_firstlineno) for code in codes.values()}

    def wrap_workers(self, worker_mains: Iterable[Tuple[str, str]], outdir: Path) -> Callable[[], None]:
        """Make each forked worker dump what it entered; returns the undo."""
        import importlib

        undo = []
        for module_name, attribute in worker_mains:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)

            def wrapped(*args, _original=original, **kwargs):
                self.codes = {}
                self.install()
                try:
                    return _original(*args, **kwargs)
                finally:
                    path = outdir / f"worker-{os.getpid()}.json"
                    path.write_text(json.dumps(sorted(self.take())), encoding="utf-8")

            setattr(module, attribute, wrapped)
            undo.append((module, attribute, original))

        def restore() -> None:
            for module, attribute, original in undo:
                setattr(module, attribute, original)

        return restore


def collect_workers(outdir: Path) -> Set[CodeKey]:
    """Read and remove the dumps forked workers left in *outdir*."""
    found: Set[CodeKey] = set()
    for path in sorted(outdir.glob("worker-*.json")):
        found.update((name, line) for name, line in json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    return found


# ---------------------------------------------------------------------- #
# The functions under src/
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Function:
    key: str      # module-qualified name, e.g. repro.netsim.link.Link.transmit
    path: Path
    first: int    # first decorator line, or the def line (= co_firstlineno)
    lines: int    # its own lines, without the functions nested in it

    @property
    def package(self) -> str:
        return ".".join(self.key.split(".")[:2])


def scan(src: Path) -> Dict[str, Function]:
    """Every ``def`` under *src*, keyed by module-qualified name."""
    functions: Dict[str, Function] = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> int:
            """Record the defs under *node*; return the lines they span."""
            nested = 0
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    span = child.end_lineno - first + 1
                    nested += span
                    if _declares_only(child):
                        continue
                    inner = visit(child, f"{prefix}{child.name}.")
                    key = f"{prefix}{child.name}"
                    twin = 2
                    while key in functions:  # a property setter, a conditional def
                        key, twin = f"{prefix}{child.name}#{twin}", twin + 1
                    functions[key] = Function(key, path.resolve(), first, span - inner)
                elif isinstance(child, ast.ClassDef):
                    nested += visit(child, f"{prefix}{child.name}.")
                else:
                    nested += visit(child, prefix)
            return nested

        visit(tree, ".".join(parts) + ".")
    return functions


def _declares_only(function: ast.AST) -> bool:
    """True for an interface stub: a body of only a docstring and ``pass``,
    ``...`` or ``raise NotImplementedError``.  It has no code to enter, so
    the census does not count it."""
    body = list(function.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant) \
            and statement.value.value is Ellipsis:
        return True
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def entered_functions(functions: Mapping[str, Function], codes: Iterable[CodeKey]) -> Set[str]:
    """The keys of *functions* whose code is among *codes*."""
    by_place = {(str(f.path), f.first): key for key, f in functions.items()}
    real = {name: os.path.realpath(name) for name, _ in codes}
    found = (by_place.get((real[name], line)) for name, line in codes)
    return {key for key in found if key is not None}


def totals(functions: Mapping[str, Function], entered: Set[str]) -> Dict[str, Dict[str, int]]:
    """Per package: functions and lines, entered and not."""
    table: Dict[str, Dict[str, int]] = {}
    for key, function in sorted(functions.items()):
        row = table.setdefault(function.package, {
            "entered_functions": 0, "unentered_functions": 0,
            "entered_lines": 0, "unentered_lines": 0,
        })
        side = "entered" if key in entered else "unentered"
        row[f"{side}_functions"] += 1
        row[f"{side}_lines"] += function.lines
    return table


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EntryPoint:
    """One row of the table."""

    kind: str               # "cli", "script", "serve" or "store"
    args: Tuple[str, ...]   # CLI argv, the script path then its argv, or a campaign file

    @property
    def name(self) -> str:
        return " ".join((self.kind,) + self.args)


#: The simulated-time scale of every campaign entry.
TIME_SCALE = "0.05"


def entry_points() -> List[EntryPoint]:
    """The declared table, in run order (later rows read earlier rows' files)."""
    from repro.experiments.figures import FIGURES
    from repro.faults.registry import fault_profile_names
    from repro.workloads.registry import workload_names

    def cli(*args: str) -> EntryPoint:
        return EntryPoint("cli", args)

    table = [cli("list")]
    table += [cli("run", name, "--time-scale", "0.02") for name in sorted(FIGURES)]
    table += [
        cli("run", "fig06", "--time-scale", "0.02", "--json"),
        cli("run", "fig06", "--time-scale", "0.02", "--metrics", "--trace", "--profile",
            "--obs-dir", "obs", "--faults", "link-flap"),
        cli("quickstart", "--rate", "10.5"),
    ]
    for spec in sorted((REPO / "examples" / "campaigns").glob("*.yaml")):
        store = f"serial/{spec.stem}.jsonl"
        table += [
            cli("campaign", "run", str(spec), "--workers", "1", "--time-scale", TIME_SCALE, "--store", store),
            cli("campaign", "status", str(spec), "--time-scale", TIME_SCALE, "--store", store),
            cli("campaign", "report", str(spec), "--time-scale", TIME_SCALE, "--store", store),
            # The default store, results/<campaign>.jsonl, as `obs runs` reads it.
            cli("campaign", "run", str(spec), "--workers", "2", "--time-scale", TIME_SCALE, "--json"),
            EntryPoint("store", (str(spec),)),
        ]
    smoke = REPO / "examples" / "campaigns" / "serve_smoke.yaml"
    table.append(EntryPoint("serve", ("campaign", "serve", str(smoke), "--time-scale", TIME_SCALE)))
    table += [cli("obs", "runs", "--root", "results"), cli("obs", "runs", "--root", "results", "--json")]
    table += [cli("workload", "list"), cli("workload", "list", "--names")]
    for name in workload_names():
        table += [cli("workload", "describe", name), cli("workload", "preview", name, "--packets", "500"),
                  cli("validate", "run", "--scenario", "workload", "-p", f"workload={name}",
                      "--time-scale", "0.1", "--relations", "")]
    table += [cli("faults", "list"), cli("faults", "list", "--names")]
    for name in fault_profile_names():
        table += [cli("faults", "describe", name), cli("faults", "preview", name, "--horizon-us", "6000"),
                  cli("observe", "profile", "--faults", name, "--time-scale", "0.2")]
    table += [
        cli("validate", "run", "--scenario", "fw_nat_lb_10ge", "--time-scale", "0.05"),
        cli("validate", "run", "--scenario", "functional_equivalence", "--time-scale", "0.05",
            "--relations", "determinism,time_scale,rate_monotonicity", "--json"),
        cli("validate", "fuzz", "--scenarios", "4", "--seed", "0", "--no-corpus"),
        cli("validate", "fuzz", "--scenarios", "1", "--budget", "10m", "--seed", "1", "--no-corpus", "--json"),
        cli("validate", "replay", "--corpus", str(REPO / "tests" / "validation_corpus")),
    ]
    common = ("--scenario", "workload", "-p", "workload=enterprise-poisson", "-p", "chain=fw_nat_lb",
              "--deployment", "both", "--faults", "link-flap", "--time-scale", "0.2")
    table += [
        cli("observe", "run", *common, "--out", "observe"),
        cli("observe", "metrics", "--time-scale", "0.2", "--out", "metrics-a.json"),
        cli("observe", "metrics", "--time-scale", "0.2", "--seed", "2", "--out", "metrics-b.json"),
        cli("observe", "trace", *common, "--format", "chrome", "--out", "trace.json"),
        cli("observe", "profile", *common, "--json"),
        cli("obs", "diff", "metrics-a.json", "metrics-b.json", "--top", "5"),
    ]
    table += [EntryPoint("script", (str(path),)) for path in sorted((REPO / "examples").glob("*.py"))]
    ledger = REPO / "benchmarks" / "perf" / "run.py"
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            table.append(EntryPoint("script", (str(ledger), "--workload", workload["name"],
                                               "--trace", trace, "--quick")))
    return table


def cli_leaves(parser: argparse.ArgumentParser) -> List[Tuple[str, ...]]:
    """Every leaf command path of *parser*, read from its subparsers."""
    leaves: List[Tuple[str, ...]] = []

    def walk(node: argparse.ArgumentParser, path: Tuple[str, ...]) -> None:
        groups = [a for a in node._actions if isinstance(a, argparse._SubParsersAction)]
        if not groups:
            leaves.append(path)
        for group in groups:
            for name, child in group.choices.items():
                walk(child, path + (name,))

    walk(parser, ())
    return leaves


def leaf_of(argv: Sequence[str], leaves: Iterable[Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """The leaf command *argv* invokes, if any."""
    for leaf in sorted(leaves, key=len, reverse=True):
        if tuple(argv[: len(leaf)]) == leaf:
            return leaf
    return None


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _run_entry(entry: EntryPoint, cli_main: Callable[[List[str]], int]) -> int:
    if entry.kind == "cli":
        return cli_main(list(entry.args))
    if entry.kind == "script":
        path, *argv = entry.args
        saved = sys.argv, list(sys.path)
        sys.argv = [path, *argv]
        sys.path.insert(0, str(Path(path).parent))
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            sys.argv, sys.path[:] = saved
        return 0
    if entry.kind == "serve":
        return _serve_and_validate(entry, cli_main)
    if entry.kind == "store":
        return _check_store(entry.args[0])
    raise ValueError(f"unknown entry kind {entry.kind!r}")


def _serve_and_validate(entry: EntryPoint, cli_main: Callable[[List[str]], int]) -> int:
    """Serve a campaign, fetch every endpoint once and validate each
    JSON payload against its ``repro.campaign/v1`` schema, as CI does."""
    from repro.obs.schema import (
        validate_campaign_cells,
        validate_campaign_event,
        validate_campaign_status,
        validate_campaign_violations,
    )

    validators = {
        "/status": validate_campaign_status,
        "/cells": validate_campaign_cells,
        "/violations": validate_campaign_violations,
    }
    port = _free_port()
    argv = [*entry.args, "--port", str(port), "--max-seconds", "10"]
    status: List[int] = []
    server = threading.Thread(target=lambda: status.append(cli_main(argv)))
    server.start()
    base = f"http://127.0.0.1:{port}"
    payloads: Dict[str, bytes] = {}
    for endpoint in ("/", "/status", "/cells", "/violations", "/events?n=20", "/metrics", "/nope"):
        for _ in range(50):
            try:
                payloads[endpoint] = urllib.request.urlopen(base + endpoint, timeout=5).read()
                break
            except urllib.error.HTTPError:
                break
            except OSError:
                time.sleep(0.1)
    server.join()
    for endpoint, validate in validators.items():
        validate(json.loads(payloads[endpoint]))
    for line in payloads["/events?n=20"].splitlines():
        validate_campaign_event(json.loads(line))
    return status[0] if status else 1


def _check_store(spec: str) -> int:
    """Read back the store a campaign run left at its default path: one
    record per cell, counted by ``ResultStore.record_count`` as CI does."""
    from repro.orchestrator import CampaignSpec, ResultStore, default_store_path

    campaign = CampaignSpec.from_file(spec)
    store = ResultStore(default_store_path(campaign.name))
    cells = len(campaign.expand())
    return 0 if store.record_count() == len(store.latest_by_hash()) == cells else 1


def run_census(
    entries: Sequence[EntryPoint],
    recorder: Recorder,
    cli_main: Callable[[List[str]], int],
    workdir: Path,
    worker_mains: Iterable[Tuple[str, str]] = WORKER_MAINS,
    log: Callable[[str], None] = print,
) -> Tuple[Set[CodeKey], List[str]]:
    """Run *entries* from *workdir*; return what they entered and what failed."""
    dumps = workdir / ".reach-workers"
    dumps.mkdir(parents=True, exist_ok=True)
    restore = recorder.wrap_workers(worker_mains, dumps)
    entered: Set[CodeKey] = set()
    failures: List[str] = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for entry in entries:
            started = time.perf_counter()
            output = io.StringIO()
            recorder.install()
            try:
                with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                    status = _run_entry(entry, cli_main)
            except Exception as exc:  # noqa: BLE001 - a crash is a census failure, named below
                status = f"{type(exc).__name__}: {exc}"
            entered |= recorder.take() | collect_workers(dumps)
            line = f"{entry.name}  [{time.perf_counter() - started:.1f} s]"
            if status != 0:
                failures.append(f"entry point exited {status!r}: {entry.name}")
                line += f"  FAILED ({status!r})\n" + output.getvalue()[-2000:]
            log(line)
    finally:
        os.chdir(cwd)
        restore()
    return entered, failures


# ---------------------------------------------------------------------- #
# Named tests
# ---------------------------------------------------------------------- #


def run_tests(
    nodeids: Sequence[str],
    recorder: Recorder,
    rootdir: Path,
    worker_mains: Iterable[Tuple[str, str]] = WORKER_MAINS,
) -> Dict[str, Set[CodeKey]]:
    """Run *nodeids* in one pytest session; what each test (with its set-up) entered."""
    import pytest

    per_test: Dict[str, Set[CodeKey]] = {}
    with tempfile.TemporaryDirectory(prefix="reach-tests-") as tmp:
        dumps = Path(tmp)

        class PerTest:
            @pytest.hookimpl(hookwrapper=True)
            def pytest_runtest_protocol(self, item, nextitem):
                recorder.take()
                recorder.install()  # again: a test may have set a profiler of its own
                yield
                per_test[item.nodeid] = recorder.take() | collect_workers(dumps)

        restore = recorder.wrap_workers(worker_mains, dumps)
        cwd = os.getcwd()
        os.chdir(rootdir)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(rootdir), *nodeids],
                        plugins=[PerTest()])
        finally:
            os.chdir(cwd)
            restore()
    return per_test


# ---------------------------------------------------------------------- #
# The check
# ---------------------------------------------------------------------- #


def problems(
    functions: Mapping[str, Function],
    entered: Set[str],
    reach: Mapping[str, object],
    leaves: Iterable[Tuple[str, ...]],
    entries: Iterable[EntryPoint],
    test_entered: Mapping[str, Set[str]],
) -> List[str]:
    """Everything the census and *reach* (a loaded REACH.json) disagree on."""
    found: List[str] = []
    classified: Mapping[str, Mapping[str, object]] = reach.get("unentered", {})
    for key in sorted(set(functions) - entered - set(classified)):
        function = functions[key]
        found.append(f"unentered and unclassified: {key} ({function.path}:{function.first})")
    for key in sorted(classified):
        entry = classified[key]
        if key not in functions:
            found.append(f"classified but gone: {key}")
        elif key in entered:
            found.append(f"classified but entered by an entry point: {key}")
        elif entry.get("class") not in CLASSES:
            found.append(f"unknown class {entry.get('class')!r} for {key} (one of {', '.join(CLASSES)})")
        elif not entry.get("tests"):
            found.append(f"classified without a named test: {key}")
        else:
            for test in entry["tests"]:
                if key not in test_entered.get(test, ()):
                    found.append(f"named test does not enter its function: {test} -> {key}")
    covered = {leaf_of(e.args, leaves) for e in entries if e.kind in ("cli", "serve")}
    for leaf in leaves:
        if leaf not in covered:
            found.append(f"leaf command without an entry point: {' '.join(leaf)}")
    if reach.get("totals") != totals(functions, entered):
        found.append(f"{REACH_FILE.name} totals are stale: rerun python tools/reach.py")
    return found


def census(
    recorder: Recorder,
    src: Path,
    entries: Sequence[EntryPoint],
    cli_main: Callable[[List[str]], int],
    parser: argparse.ArgumentParser,
    reach: Mapping[str, object],
    rootdir: Path = REPO,
    worker_mains: Iterable[Tuple[str, str]] = WORKER_MAINS,
    log: Callable[[str], None] = print,
) -> Tuple[Dict[str, Function], Set[str], List[str]]:
    """Run *entries*, then the tests *reach* names, under *recorder*.

    The recorder must have been installed before the code under *src*
    was imported.  Returns the functions, the entered ones, and the
    problems :func:`problems` finds.
    """
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        codes, failures = run_census(entries, recorder, cli_main, Path(tmp), worker_mains, log)
    functions = scan(src)
    entered = entered_functions(functions, codes)
    nodeids = sorted({test for entry in reach.get("unentered", {}).values()
                      for test in entry.get("tests", ())})
    raw = run_tests(nodeids, recorder, rootdir, worker_mains) if nodeids else {}
    test_entered = {test: entered_functions(functions, keys) for test, keys in raw.items()}
    leaves = cli_leaves(parser)
    return functions, entered, failures + problems(functions, entered, reach, leaves, entries, test_entered)


def render(functions: Mapping[str, Function], entered: Set[str], reach: Mapping[str, object]) -> str:
    """REACH.json's text: fresh totals, and the classifications of what is still unentered."""
    classified = reach.get("unentered", {})
    kept = {key: classified[key] for key in sorted(classified) if key in functions and key not in entered}
    document = {
        "about": "Written by tools/reach.py: per-package totals of the functions under src/ "
                 "that the declared entry points enter, and a classification with named tests "
                 "for each function they do not. python tools/reach.py --check verifies it.",
        "totals": totals(functions, entered),
        "unentered": kept,
    }
    return json.dumps(document, indent=1) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="verify REACH.json instead of rewriting it; exit 1 on any problem")
    args = parser.parse_args(argv)

    recorder = Recorder()
    recorder.install()  # before the first repro import
    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser, main as cli_main

    reach = json.loads(REACH_FILE.read_text(encoding="utf-8")) if REACH_FILE.exists() else {}
    try:  # without --check the named tests do not run: only the totals are rewritten
        functions, entered, found = census(
            recorder, SRC, entry_points(), cli_main, build_parser(), reach if args.check else {},
            log=lambda line: print(line, file=sys.__stdout__, flush=True),
        )
    finally:
        recorder.uninstall()
    unentered = set(functions) - entered
    print(f"census: {len(entered)} of {len(functions)} functions entered; "
          f"{len(unentered)} unentered ({sum(functions[k].lines for k in unentered)} lines)")
    if not args.check:
        REACH_FILE.write_text(render(functions, entered, reach), encoding="utf-8")
        print(f"wrote {REACH_FILE.name}; unclassified:")
        for key in sorted(unentered - set(reach.get("unentered", {}))):
            print(f"  {key}")
        return 0
    for problem in found:
        print(f"reach: {problem}")
    print("reach: ok" if not found else f"reach: {len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
