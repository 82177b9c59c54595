"""The reach census's check (``tools/reach.py``) on a small fixture package.

The fixture is a package with a three-command CLI (one command forks a
worker the way a campaign dispatcher does) and one test file.  The
census runs its entry points and named tests under the profiler and
must name exactly the problems planted in the fixture.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reach.py"

FILES = {
    "src/reachfix/__init__.py": "",
    "src/reachfix/core.py": """
        def entered():
            return 1


        def unclassified():
            return 2


        def classified():
            return 3


        def misnamed():
            return 4


        def stale():
            return 5
    """,
    "src/reachfix/workers.py": """
        import multiprocessing

        from reachfix import core


        def only_in_worker():
            return 6


        def _worker_main():
            only_in_worker()


        def run_forked():
            process = multiprocessing.get_context("fork").Process(target=_worker_main)
            process.start()
            process.join()
            assert process.exitcode == 0
    """,
    "src/reachfix/cli.py": """
        import argparse

        from reachfix import core, workers


        def build_parser():
            parser = argparse.ArgumentParser(prog="reachfix")
            sub = parser.add_subparsers(dest="command")
            sub.add_parser("go")
            sub.add_parser("fork")
            sub.add_parser("orphan")
            return parser


        def main(argv):
            args = build_parser().parse_args(argv)
            if args.command == "go":
                core.entered()
                core.stale()
            elif args.command == "fork":
                workers.run_forked()
            return 0
    """,
    "tests/test_fixture.py": """
        from reachfix import core


        def test_classified():
            assert core.classified() == 3


        def test_elsewhere():
            assert True
    """,
}


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach_tool"] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["reach_tool"]


@pytest.fixture(scope="module")
def outcome(reach, tmp_path_factory):
    """One census over the fixture: (functions, entered, problems)."""
    root = tmp_path_factory.mktemp("reachfix")
    for name, text in FILES.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip(), encoding="utf-8")
    entries = [reach.EntryPoint("cli", ("go",)), reach.EntryPoint("cli", ("fork",))]
    recorder = reach.Recorder()
    sys.path.insert(0, str(root / "src"))
    recorder.install()  # before the fixture's first import, as the tool does
    try:
        from reachfix import cli

        functions = reach.scan(root / "src")
        unentered = {
            "reachfix.core.classified": {"class": "test-api", "tests": ["tests/test_fixture.py::test_classified"]},
            "reachfix.core.misnamed": {"class": "failure-only", "tests": ["tests/test_fixture.py::test_elsewhere"]},
            "reachfix.core.stale": {"class": "failure-only", "tests": ["tests/test_fixture.py::test_classified"]},
            "reachfix.core.gone": {"class": "oracle", "tests": ["tests/test_fixture.py::test_classified"]},
        }
        # Totals as the tool would write them once the census is known;
        # a first pass computes them so that staleness is not a problem here.
        first = reach.census(recorder, root / "src", entries, cli.main, cli.build_parser(),
                             {"unentered": {}}, rootdir=root,
                             worker_mains=[("reachfix.workers", "_worker_main")], log=lambda _: None)
        document = {"totals": reach.totals(first[0], first[1]), "unentered": unentered}
        result = reach.census(recorder, root / "src", entries, cli.main, cli.build_parser(),
                              document, rootdir=root,
                              worker_mains=[("reachfix.workers", "_worker_main")], log=lambda _: None)
    finally:
        recorder.uninstall()
        sys.path.remove(str(root / "src"))
        for name in [name for name in sys.modules if name.split(".")[0] == "reachfix"]:
            del sys.modules[name]
    assert set(functions) == set(result[0])
    return result


def _naming(problems, key):
    return [problem for problem in problems if key in problem]


def test_an_entered_function_passes(outcome):
    _functions, entered, problems = outcome
    assert "reachfix.core.entered" in entered
    assert _naming(problems, "reachfix.core.entered") == []


def test_an_unentered_unclassified_function_fails_by_name(outcome):
    _functions, entered, problems = outcome
    assert "reachfix.core.unclassified" not in entered
    (problem,) = _naming(problems, "reachfix.core.unclassified")
    assert problem.startswith("unentered and unclassified: reachfix.core.unclassified")


def test_a_classified_function_its_named_test_enters_passes(outcome):
    _functions, _entered, problems = outcome
    assert _naming(problems, "reachfix.core.classified") == []


def test_a_named_test_that_does_not_enter_its_function_fails(outcome):
    _functions, _entered, problems = outcome
    assert _naming(problems, "reachfix.core.misnamed") == [
        "named test does not enter its function: "
        "tests/test_fixture.py::test_elsewhere -> reachfix.core.misnamed"
    ]


def test_stale_classifications_fail(outcome):
    _functions, _entered, problems = outcome
    assert _naming(problems, "reachfix.core.stale") == [
        "classified but entered by an entry point: reachfix.core.stale"
    ]
    assert _naming(problems, "reachfix.core.gone") == ["classified but gone: reachfix.core.gone"]


def test_a_function_entered_only_in_a_forked_worker_counts(outcome):
    _functions, entered, problems = outcome
    assert {"reachfix.workers.only_in_worker", "reachfix.workers._worker_main"} <= entered
    assert _naming(problems, "reachfix.workers") == []


def test_a_leaf_command_without_an_entry_fails(outcome):
    _functions, _entered, problems = outcome
    assert _naming(problems, "leaf command") == ["leaf command without an entry point: orphan"]


def test_nothing_else_is_reported(outcome):
    _functions, _entered, problems = outcome
    assert len(problems) == 5, problems


def test_stale_totals_fail(reach, outcome):
    functions, entered, _problems = outcome
    fresh = reach.totals(functions, entered)
    assert reach.problems(functions, entered, {"totals": fresh}, [], [], {}) == [
        f"unentered and unclassified: {key} ({functions[key].path}:{functions[key].first})"
        for key in sorted(set(functions) - entered)
    ]
    stale = reach.problems(functions, entered, {"totals": {}}, [], [], {})
    assert stale[-1] == "REACH.json totals are stale: rerun python tools/reach.py"


def test_functions_are_keyed_by_module_qualified_name(reach, tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("def top():\n    return 0\n")
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent("""
        import functools


        class Thing:
            @property
            def size(self):
                return 1

            @size.setter
            def size(self, value):
                self._size = value

            def interface(self):
                raise NotImplementedError  # subclasses implement it

            @functools.lru_cache(maxsize=None)
            def cached(self):
                def inner():
                    return 2
                return inner()
    """))
    functions = reach.scan(tmp_path)
    assert sorted(functions) == [
        "pkg.mod.Thing.cached", "pkg.mod.Thing.cached.inner",
        "pkg.mod.Thing.size", "pkg.mod.Thing.size#2", "pkg.top",
    ]
    # interface() is a stub: no code to enter, so not a function here.
    cached = functions["pkg.mod.Thing.cached"]
    assert cached.first == 17  # the decorator line, as co_firstlineno reports it
    assert cached.lines == 3   # its own lines; inner's two are inner's
