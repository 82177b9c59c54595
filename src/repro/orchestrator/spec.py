"""Declarative campaign specs: scenario registry, parameter grids, run descriptors.

A campaign names a base scenario from :data:`SCENARIO_REGISTRY` and a
parameter grid; :meth:`CampaignSpec.expand` takes the cartesian product
and yields one :class:`RunSpec` per grid point.  A ``RunSpec`` carries
only JSON-serializable data (scenario *name* plus parameter values), so
it can cross a process boundary and be hashed into a stable identity —
the key the result store uses to resume interrupted campaigns.

Campaigns load from YAML or JSON files (see ``examples/campaigns/``) or
are built programmatically.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.config import PayloadParkConfig
from repro.errors import require_positive_finite
from repro.experiments import scenarios
from repro.experiments.runner import ScenarioConfig
from repro.nf.framework import NETBRICKS, OPENNETVM
from repro.traffic.workload import Workload

#: Campaign run modes — a baseline-vs-PayloadPark comparison at a fixed
#: operating point, or the §6.3.1 peak-goodput binary search — and the
#: ``options`` keys each one reads (see ``executor.execute_run``).
MODE_OPTIONS: Dict[str, frozenset] = {
    "compare": frozenset({"validate", "observe"}),
    "peak": frozenset(
        {
            "validate",
            "observe",
            "deployment",
            "rate_bounds_gbps",
            "tolerance_gbps",
            "require_zero_premature_evictions",
        }
    ),
}
MODES = tuple(MODE_OPTIONS)

#: Scenario name → builder returning a fresh :class:`ScenarioConfig`.
SCENARIO_REGISTRY: Dict[str, Callable[..., ScenarioConfig]] = {
    "fw_nat_lb_10ge": scenarios.fw_nat_lb_10ge,
    "fw_nat_lb_10ge_recirculation": scenarios.fw_nat_lb_10ge_recirculation,
    "fw_nat_40ge_enterprise": scenarios.fw_nat_40ge_enterprise,
    "fixed_size_40ge": scenarios.fixed_size_40ge,
    "multi_server_384b": scenarios.multi_server_384b,
    "explicit_drop": scenarios.explicit_drop_scenario,
    "memory_sweep": scenarios.memory_sweep_scenario,
    "nf_cycles": scenarios.nf_cycles_scenario,
    "small_packet_40ge": scenarios.small_packet_40ge,
    "functional_equivalence": scenarios.functional_equivalence_scenario,
    "workload": scenarios.workload_scenario,
}

#: Parameters applied directly onto :class:`ScenarioConfig` fields: the
#: ones its declaration marks as overridable.
SCENARIO_OVERRIDES = frozenset(
    spec.name for spec in fields(ScenarioConfig) if spec.metadata.get("override")
)

#: Parameters applied onto the scenario's nested ``PayloadParkConfig``:
#: every field but the bindings, which the testbed's port layout decides.
#: An override named here reaches the scenario's ``PayloadParkConfig``
#: and nothing else, which :attr:`RunSpec.baseline_hash` relies on.
PAYLOADPARK_OVERRIDES = frozenset(
    spec.name for spec in fields(PayloadParkConfig) if spec.name != "bindings"
)

#: Framework name (as written in campaign files) → framework object.
FRAMEWORKS = {"opennetvm": OPENNETVM, "netbricks": NETBRICKS}

#: Every parameter :func:`apply_overrides` accepts.
OVERRIDE_PARAMS = SCENARIO_OVERRIDES | PAYLOADPARK_OVERRIDES | {"framework", "packet_size"}


def register_scenario(name: str, builder: Callable[..., ScenarioConfig]) -> None:
    """Add *builder* to the registry so campaigns can reference it by *name*.

    For parallel execution on platforms whose multiprocessing start
    method is ``spawn`` (macOS, Windows), the registration must happen
    at import time of a module the workers also import — workers rebuild
    the registry from module state.  Registrations done at runtime only
    reach ``workers=1`` (serial) execution there; ``fork`` platforms
    (Linux) inherit them either way.
    """
    if name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    SCENARIO_REGISTRY[name] = builder


def _jsonable(value: Any) -> Any:
    """Normalize *value* for canonical JSON (tuples become lists, recursively)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"campaign parameters must be JSON-serializable, got {value!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for spec hashing."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def _hash16(value: Any) -> str:
    import hashlib  # OpenSSL loads at the first hash, not with this module

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()[:16]


def _split_params(
    scenario: str, params: Mapping[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(builder kwargs, overrides)``: the builder takes what it names."""
    builder_params = inspect.signature(SCENARIO_REGISTRY[scenario]).parameters
    builder_kwargs: Dict[str, Any] = {}
    overrides: Dict[str, Any] = {}
    for key, value in params.items():
        if key in builder_params:
            builder_kwargs[key] = value
        else:
            overrides[key] = value
    return builder_kwargs, overrides


@dataclass(frozen=True)
class RunSpec:
    """One concrete run of a campaign: scenario name + parameter values.

    Everything here is plain data, so a ``RunSpec`` pickles cheaply into
    worker processes and hashes into a stable identity.
    """

    scenario: str
    mode: str = "compare"
    params: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_REGISTRY:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {sorted(SCENARIO_REGISTRY)}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        require_positive_finite("time_scale", self.time_scale)

    def canonical(self) -> Dict[str, Any]:
        """The hashed identity of this run."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "params": _jsonable(dict(self.params)),
            "options": _jsonable(dict(self.options)),
            "time_scale": self.time_scale,
        }

    @property
    def spec_hash(self) -> str:
        """Stable 16-hex-digit identity of this run (resume key)."""
        return _hash16(self.canonical())

    @property
    def baseline_hash(self) -> str:
        """Identity of this run's baseline deployment (the control arm).

        The spec hash with mode ``baseline`` and without the overrides
        :func:`build_scenario` routes only into the scenario's
        ``PayloadParkConfig``, which the baseline never reads: compare
        cells that differ only in PayloadPark knobs name the same
        baseline.  A parameter the scenario builder takes stays in,
        whatever its name.
        """
        _, overrides = _split_params(self.scenario, self.params)
        identity = self.canonical()
        identity["mode"] = "baseline"
        identity["params"] = _jsonable(
            {
                key: value
                for key, value in self.params.items()
                if not (key in overrides and key in PAYLOADPARK_OVERRIDES)
            }
        )
        return _hash16(identity)

    @property
    def shares_baseline(self) -> bool:
        """Whether a campaign may reuse an equal-``baseline_hash`` run's baseline.

        Compare cells only, and not ``observe:`` ones: their plane exports
        go to one directory per cell, so each runs its own baseline.
        """
        return self.mode == "compare" and not self.options.get("observe")


def derived_seed(scenario: str, params: Mapping[str, Any]) -> int:
    """A deterministic per-run seed from the run's parameter point."""
    import hashlib

    payload = canonical_json({"scenario": scenario, "params": dict(params)})
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % (2**31 - 1)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: base parameters × grid over a registry scenario.

    Attributes
    ----------
    name:
        Campaign identity; the default result store is
        ``results/<name>.jsonl``.
    scenario:
        Key into :data:`SCENARIO_REGISTRY`.
    mode:
        ``"compare"`` (baseline vs. PayloadPark at each point) or
        ``"peak"`` (peak-goodput binary search at each point).
    base:
        Parameters shared by every run.
    grid:
        Parameter name → list of values; runs are the cartesian product.
    options:
        Per-run knobs, the keys :data:`MODE_OPTIONS` lists for the mode:
        ``validate`` and ``observe`` (an observe spec, plus an optional
        ``out_dir``), and in peak mode ``deployment``,
        ``rate_bounds_gbps``, ``tolerance_gbps`` and
        ``require_zero_premature_evictions``.
    validate:
        When true, every grid point runs with the invariant engine
        attached (:mod:`repro.validation`): violations are recorded on
        the run's result record and the point is reported as failed.
    seed_policy:
        ``"fixed"`` leaves seeds to ``base``/scenario defaults;
        ``"per-run"`` derives a deterministic seed from each grid point.
    """

    name: str
    scenario: str
    mode: str = "compare"
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, List[Any]] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    time_scale: float = 1.0
    seed_policy: str = "fixed"
    description: str = ""
    validate: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if self.scenario not in SCENARIO_REGISTRY:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {sorted(SCENARIO_REGISTRY)}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.seed_policy not in ("fixed", "per-run"):
            raise ValueError("seed_policy must be 'fixed' or 'per-run'")
        require_positive_finite("time_scale", self.time_scale)
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid axis {key!r} must be a non-empty list")
            if key in self.base:
                raise ValueError(f"parameter {key!r} appears in both base and grid")
        # Checked here, not in the workers: a misspelt axis would
        # otherwise run every cell just to record the same error.
        builder_params = inspect.signature(SCENARIO_REGISTRY[self.scenario]).parameters
        for key in (*self.base, *self.grid):
            if key not in builder_params and key not in OVERRIDE_PARAMS:
                raise ValueError(
                    f"unknown campaign parameter {key!r}; scenario "
                    f"{self.scenario!r} takes {sorted(builder_params)}, "
                    f"overrides: {sorted(OVERRIDE_PARAMS)}"
                )
        accepted = MODE_OPTIONS[self.mode]
        unknown = sorted(set(self.options) - accepted)
        if unknown:
            raise ValueError(
                f"unknown campaign option(s) {unknown} for mode {self.mode!r}; "
                f"accepted: {sorted(accepted)}"
            )
        observe = self.options.get("observe")
        if observe is not None:
            from repro.obs.config import ObserveSpec

            if isinstance(observe, Mapping):
                observe = {key: value for key, value in observe.items() if key != "out_dir"}
            ObserveSpec.from_spec(observe)  # raises ObserveSpecError
        faults = [self.base["faults"]] if "faults" in self.base else self.grid.get("faults", ())
        for value in faults:
            if value is not None:
                from repro.faults.schedule import EventSchedule

                EventSchedule.from_spec(value)  # raises FaultSpecError

    @property
    def point_count(self) -> int:
        """Number of runs the grid expands into."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    def expand(self) -> List[RunSpec]:
        """Materialize the grid into concrete, ordered run descriptors."""
        axes = sorted(self.grid)
        runs: List[RunSpec] = []
        options = dict(self.options)
        if self.validate:
            options.setdefault("validate", True)
        for point in itertools.product(*(self.grid[axis] for axis in axes)):
            params = dict(self.base)
            params.update(dict(zip(axes, point)))
            if self.seed_policy == "per-run" and "seed" not in params:
                params["seed"] = derived_seed(self.scenario, params)
            runs.append(
                RunSpec(
                    scenario=self.scenario,
                    mode=self.mode,
                    params=params,
                    options=options,
                    time_scale=self.time_scale,
                )
            )
        return runs

    def with_time_scale(self, time_scale: float) -> "CampaignSpec":
        """A copy of this campaign at a different simulated-time scale."""
        return replace(self, time_scale=time_scale)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, round-trippable through :meth:`from_dict`."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "mode": self.mode,
            "base": _jsonable(dict(self.base)),
            "grid": _jsonable(dict(self.grid)),
            "options": _jsonable(dict(self.options)),
            "time_scale": self.time_scale,
            "seed_policy": self.seed_policy,
            "description": self.description,
            "validate": self.validate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a campaign from a parsed YAML/JSON mapping."""
        known = {
            "name", "scenario", "mode", "base", "grid", "options",
            "time_scale", "seed_policy", "description", "validate",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        for required in ("name", "scenario"):
            if required not in data:
                raise ValueError(f"campaign file is missing the {required!r} key")
        return cls(
            name=data["name"],
            scenario=data["scenario"],
            mode=data.get("mode", "compare"),
            base=dict(data.get("base", {})),
            grid={key: list(values) for key, values in data.get("grid", {}).items()},
            options=dict(data.get("options", {})),
            time_scale=float(data.get("time_scale", 1.0)),
            seed_policy=data.get("seed_policy", "fixed"),
            description=data.get("description", ""),
            validate=bool(data.get("validate", False)),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a campaign from a ``.yaml``/``.yml`` or ``.json`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env without PyYAML
                raise RuntimeError(
                    f"PyYAML is not installed; convert {path.name} to JSON or "
                    "install the 'yaml' extra"
                ) from exc
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ValueError(f"campaign file {path} is not valid YAML: {exc}") from exc
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"campaign file {path} must contain a mapping")
        return cls.from_dict(data)


# ---------------------------------------------------------------------- #
# Scenario materialization
# ---------------------------------------------------------------------- #


def build_scenario(run: RunSpec) -> ScenarioConfig:
    """Materialize a run descriptor into a concrete :class:`ScenarioConfig`.

    Parameters the registered builder accepts by name are passed to it;
    the rest are applied as overrides on the returned config (scenario
    fields, PayloadPark fields, ``framework`` and ``packet_size``).
    """
    builder_kwargs, overrides = _split_params(run.scenario, run.params)
    try:
        scenario = SCENARIO_REGISTRY[run.scenario](**builder_kwargs)
    except TypeError as exc:
        raise ValueError(
            f"scenario {run.scenario!r} could not be built from "
            f"{sorted(builder_kwargs)}: {exc}"
        ) from exc
    return apply_overrides(scenario, overrides)


def apply_overrides(scenario: ScenarioConfig, overrides: Mapping[str, Any]) -> ScenarioConfig:
    """Apply generic parameter overrides to an already-built scenario."""
    scenario_fields = {}
    payloadpark_fields = {}
    for key, value in overrides.items():
        if key in PAYLOADPARK_OVERRIDES:
            payloadpark_fields[key] = value
        elif key in SCENARIO_OVERRIDES:
            scenario_fields[key] = value
        elif key == "framework":
            framework = FRAMEWORKS.get(str(value).lower())
            if framework is None:
                raise ValueError(
                    f"unknown framework {value!r}; expected one of {sorted(FRAMEWORKS)}"
                )
            scenario_fields["framework"] = framework
        elif key == "packet_size":
            scenario_fields["workload"] = Workload.fixed_size(int(value))
        else:
            raise ValueError(
                f"unknown campaign parameter {key!r}; known: {sorted(OVERRIDE_PARAMS)}"
            )
    if payloadpark_fields:
        scenario_fields["payloadpark"] = replace(scenario.payloadpark, **payloadpark_fields)
    if scenario_fields:
        scenario = replace(scenario, **scenario_fields)
    return scenario


def dedupe_specs(specs: Iterable[RunSpec]) -> List[RunSpec]:
    """Drop duplicate run descriptors (same spec hash), preserving order."""
    seen: Dict[str, None] = {}
    result = []
    for spec in specs:
        key = spec.spec_hash
        if key not in seen:
            seen[key] = None
            result.append(spec)
    return result
