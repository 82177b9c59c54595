"""Lazy package re-exports hand out the defining modules' own objects.

Every package ``__init__`` re-exports through
:func:`repro.lazy.lazy_exports`: a name's module is imported on its
first read.  These tests hold that to what the eager imports it
replaced guaranteed — the same object as the defining module's, for
``getattr``, ``dir`` and ``import *`` alike — and hold the registries to
one set of keys however they are reached.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.netsim",
    "repro.nf",
    "repro.obs",
    "repro.orchestrator",
    "repro.packet",
    "repro.switchsim",
    "repro.telemetry",
    "repro.traffic",
    "repro.validation",
    "repro.workloads",
)


def _cold_import_line():
    spec = importlib.util.spec_from_file_location(
        "import_budget", Path(__file__).with_name("import_budget.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COLD_IMPORT


def _fresh(code):
    """What *code* prints as JSON, run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_the_defining_modules_own_object(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        value = getattr(package, export)
        try:
            resolved = package.__getattr__(export)  # the defining module's attribute
        except AttributeError:
            assert export in vars(package), export  # the package's own (``__version__``)
            continue
        assert resolved is value, export
        if inspect.isclass(value) or inspect.isfunction(value):
            assert vars(sys.modules[value.__module__])[export] is value, export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_and_star_import_cover_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export), export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_export'"):
        package.no_such_export


def test_importing_every_package_loads_no_submodule():
    loaded = _fresh(
        f"import sys, {', '.join(LAZY_PACKAGES)}\n"
        "import json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert loaded == sorted({*LAZY_PACKAGES, "repro.lazy"})


def test_registries_have_the_same_keys_however_they_are_reached():
    keys = (
        "print(json.dumps({name: sorted(registry) for name, registry in ("
        "('workloads', WORKLOAD_REGISTRY), ('scenarios', SCENARIO_REGISTRY), "
        "('figures', FIGURES), ('faults', FAULT_REGISTRY))}))"
    )
    through_cold_import = _fresh(
        f"{_cold_import_line()}\nimport json\n"
        "from repro.workloads.registry import WORKLOAD_REGISTRY\n"
        "from repro.orchestrator.spec import SCENARIO_REGISTRY\n"
        "from repro.experiments.figures import FIGURES\n"
        "from repro.faults.registry import FAULT_REGISTRY\n"
        f"{keys}"
    )
    through_cli = _fresh(
        "import json, repro.cli\n"
        "from repro.workloads import WORKLOAD_REGISTRY\n"
        "from repro.orchestrator import SCENARIO_REGISTRY\n"
        "from repro.experiments.figures import FIGURES\n"
        "from repro.faults import FAULT_REGISTRY\n"
        f"{keys}"
    )
    assert through_cold_import == through_cli
    assert all(through_cli.values())
