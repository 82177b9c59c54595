"""Declarative fault schedules: explicit events plus seeded generators.

An :class:`EventSchedule` is plain data — a name, a list of explicit
event records, and a list of *generators* that expand into periodic
event trains with seeded random phase — so it loads from YAML/JSON/dict
specs, travels inside campaign grids and fuzz descriptors, and hashes
stably.  :meth:`EventSchedule.materialize` resolves it against a
concrete run horizon and seed into a sorted list of
:class:`~repro.faults.events.FaultEvent` instances; the same
``(spec, seed, horizon)`` triple always yields the same events, which
is what lets the fast-vs-slow and seed-determinism metamorphic
relations hold under active fault schedules.

Spec format (YAML shown; the dict form is identical)::

    name: my-chaos            # optional
    description: ...          # optional
    events:
      - {kind: link_down, at_frac: 0.3, duration_frac: 0.1, link: server}
      - {kind: expiry_threshold, at_us: 2000, value: 5}
    generators:
      - {kind: backend_churn, period_frac: 0.2, action: flap}
      - {kind: link_loss, period_frac: 0.25, duration_frac: 0.05,
         probability: 0.05, jitter: 0.3}

A generator fires every ``period_us``/``period_frac`` from
``start_us``/``start_frac`` (default: one period in) until the horizon
(or ``count`` firings); ``jitter`` (a fraction of the period) perturbs
each firing time with the schedule's seeded RNG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import FaultSpecError
from repro.faults.events import (
    EVENT_KINDS,
    FaultEvent,
    WINDOW_KINDS,
    as_integer,
    as_number,
    validate_event_record,
)
from repro.workloads.base import derived_rng

#: RNG salt namespace for generator phase jitter (distinct from the
#: packet-content and arrival-gap salts used elsewhere).
_GENERATOR_SALT = 0x_FA_01

_TIMING_KEYS = {"at_us", "at_frac", "duration_us", "duration_frac"}
_GENERATOR_KEYS = {"kind", "start_us", "start_frac", "period_us", "period_frac",
                   "repeat", "jitter", "duration_us", "duration_frac"}


def _validate_generator(record: Mapping[str, Any]) -> None:
    if not isinstance(record, Mapping):
        raise FaultSpecError(f"fault generator must be a mapping, got {record!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        raise FaultSpecError(
            f"fault generator needs a known 'kind'; got {kind!r} "
            f"(expected one of {sorted(EVENT_KINDS)})"
        )
    if "period_us" not in record and "period_frac" not in record:
        raise FaultSpecError(f"fault generator {kind!r} needs 'period_us' or 'period_frac'")
    for key in ("period_us", "period_frac"):
        if key in record and as_number(key, record[key]) <= 0:
            raise FaultSpecError(f"generator {key} must be positive, got {record[key]}")
    for key in ("start_us", "start_frac"):
        if key in record:
            as_number(key, record[key])
    jitter = as_number("jitter", record.get("jitter", 0.0))
    if not 0.0 <= jitter <= 1.0:
        raise FaultSpecError(f"generator jitter must lie in [0, 1], got {jitter}")
    repeat = record.get("repeat")
    if repeat is not None and as_integer("repeat", repeat) < 1:
        raise FaultSpecError(f"generator repeat must be at least 1, got {repeat}")
    for duration_key in ("duration_us", "duration_frac"):
        if duration_key not in record:
            continue
        if kind not in WINDOW_KINDS:
            raise FaultSpecError(f"fault generator {kind!r} does not take a duration")
        if as_number(duration_key, record[duration_key]) < 0:
            raise FaultSpecError(
                f"generator {duration_key} must be non-negative, got {record[duration_key]}"
            )
    # Validate the event payload the generator will emit (timing keys are
    # supplied per firing, so stub them for the structural check).
    required, optional = EVENT_KINDS[kind]
    payload = {
        key: value for key, value in record.items()
        if key in required or key in optional or key == "kind"
    }
    unknown = set(record) - _GENERATOR_KEYS - required - optional
    if unknown:
        raise FaultSpecError(
            f"fault generator {kind!r} has unknown key(s) {sorted(unknown)}"
        )
    validate_event_record({**payload, "at_us": 0.0})


@dataclass(frozen=True)
class EventSchedule:
    """A declarative, seed-reproducible fault schedule."""

    name: str = "custom"
    description: str = ""
    events: Sequence[Mapping[str, Any]] = field(default_factory=tuple)
    generators: Sequence[Mapping[str, Any]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.events and not self.generators:
            raise FaultSpecError(
                "a fault schedule needs at least one event or generator"
            )
        for record in self.events:
            validate_event_record(record)
        for record in self.generators:
            _validate_generator(record)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(cls, spec: Any) -> "EventSchedule":
        """Build a schedule from a profile name, a dict spec, or a schedule.

        This is the resolution point for ``ScenarioConfig.faults``: a
        string names a registered profile, a mapping is an inline spec,
        and an existing schedule passes through unchanged.
        """
        if isinstance(spec, EventSchedule):
            return spec
        if isinstance(spec, str):
            from repro.faults.registry import get_fault_profile

            return get_fault_profile(spec)
        if isinstance(spec, Mapping):
            known = {"name", "description", "events", "generators"}
            unknown = set(spec) - known
            if unknown:
                raise FaultSpecError(
                    f"unknown fault-schedule key(s) {sorted(unknown)}; known: {sorted(known)}"
                )
            events = spec.get("events") or ()  # YAML 'events:' parses to None
            generators = spec.get("generators") or ()
            if not isinstance(events, (list, tuple)) or not isinstance(
                generators, (list, tuple)
            ):
                raise FaultSpecError(
                    "fault-schedule 'events'/'generators' must be lists of mappings"
                )
            return cls(
                name=str(spec.get("name", "custom")),
                description=str(spec.get("description", "")),
                events=tuple(dict(event) for event in events),
                generators=tuple(dict(gen) for gen in generators),
            )
        raise FaultSpecError(
            f"faults spec must be a profile name, mapping or EventSchedule; got {spec!r}"
        )

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #

    def materialize(self, seed: int, horizon_ns: int) -> List[FaultEvent]:
        """Resolve the schedule against a run horizon into concrete events.

        Fractional times resolve against *horizon_ns*; absolute events
        beyond the horizon are silently dropped (they would never fire).
        Events are returned sorted by time with materialization order as
        the tie-break, so the injector schedules them deterministically.
        """
        if horizon_ns <= 0:
            raise FaultSpecError(f"horizon_ns must be positive, got {horizon_ns}")
        raw: List[FaultEvent] = []
        sequence = 0
        for record in self.events:
            event = self._resolve_event(record, horizon_ns, sequence)
            if event is not None:
                raw.append(event)
            sequence += 1
        for gen_index, record in enumerate(self.generators):
            rng = derived_rng(seed, _GENERATOR_SALT + gen_index)
            period_ns = self._resolve_ns(record, "period", horizon_ns)
            if period_ns <= 0:
                # Spec validation bounds the *expressed* period, but a
                # sub-nanosecond period_us or a period_frac of a tiny
                # horizon truncates to 0 here — which would never advance
                # the firing cursor and generate events forever.
                raise FaultSpecError(
                    f"fault generator {record['kind']!r}: period resolves to "
                    f"{period_ns} ns against a {horizon_ns} ns horizon; the "
                    "period must be at least 1 ns"
                )
            start_ns = self._resolve_ns(record, "start", horizon_ns, default=period_ns)
            repeat = record.get("repeat")
            jitter = float(record.get("jitter", 0.0))
            payload = {
                key: value for key, value in record.items()
                if key not in _GENERATOR_KEYS or key in ("duration_us", "duration_frac")
            }
            fired = 0
            when_ns = start_ns
            while when_ns < horizon_ns and (repeat is None or fired < int(repeat)):
                at_ns = when_ns
                if jitter > 0.0:
                    at_ns += int((rng.random() - 0.5) * jitter * period_ns)
                event = self._resolve_event(
                    {**payload, "kind": record["kind"], "at_us": max(at_ns, 0) / 1_000.0},
                    horizon_ns,
                    sequence,
                )
                if event is not None:
                    raw.append(event)
                sequence += 1
                fired += 1
                when_ns += period_ns
        raw.sort(key=lambda event: (event.at_ns, event.sequence))
        return raw

    @staticmethod
    def _resolve_ns(
        record: Mapping[str, Any], prefix: str, horizon_ns: int,
        default: Optional[int] = None,
    ) -> int:
        if f"{prefix}_us" in record:
            return int(float(record[f"{prefix}_us"]) * 1_000)
        if f"{prefix}_frac" in record:
            return int(float(record[f"{prefix}_frac"]) * horizon_ns)
        if default is not None:
            return default
        return 0

    @classmethod
    def _resolve_event(
        cls, record: Mapping[str, Any], horizon_ns: int, sequence: int
    ) -> Optional[FaultEvent]:
        at_ns = cls._resolve_ns(record, "at", horizon_ns)
        if at_ns >= horizon_ns:
            return None
        params = {
            key: value for key, value in record.items()
            if key not in _TIMING_KEYS and key != "kind"
        }
        duration_ns = cls._resolve_ns(record, "duration", horizon_ns)
        if duration_ns and record["kind"] in WINDOW_KINDS:
            params["duration_ns"] = duration_ns
        return FaultEvent(
            kind=record["kind"], at_ns=at_ns, params=params, sequence=sequence
        )

    def describe(self) -> Dict[str, Any]:
        """Human-oriented summary for ``repro faults describe``."""
        return {
            "name": self.name,
            "description": self.description or "(no description)",
            "events": json.dumps([dict(event) for event in self.events]),
            "generators": json.dumps([dict(gen) for gen in self.generators]),
        }
