"""Fault events: the atomic operations a chaos schedule injects.

A :class:`FaultEvent` is one timed control-plane or environment action
applied to a *running* testbed: a link going down, a loss or latency
window opening on a link, a Maglev backend draining out of the pool, a
firewall rule burst, an expiry-threshold change, or a parked-payload
drain.  Events are plain data (kind + time + parameter mapping), so
schedules serialize into campaign specs and fuzz corpus entries
unchanged, and the injector resolves targets (links, NFs, bindings)
only at execution time against the live topology.

Times are expressed either absolutely (``at_us``, simulated
microseconds from traffic start) or as a fraction of the run horizon
(``at_frac`` in ``[0, 1]``); fraction-based events let one profile
adapt to any scenario duration or ``--time-scale`` setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.errors import FaultSpecError
from repro.nf.firewall import FirewallRule

#: Event kind -> (required params, optional params).  ``at_us``/``at_frac``
#: and ``duration_us``/``duration_frac`` are handled generically.
EVENT_KINDS: Dict[str, Tuple[frozenset, frozenset]] = {
    # Take the targeted link(s) down; with a duration, schedule the
    # matching link_up automatically.
    "link_down": (frozenset(), frozenset({"link", "binding"})),
    "link_up": (frozenset(), frozenset({"link", "binding"})),
    # Open a random-loss window: each frame is dropped with
    # ``probability`` while the window is active.
    "link_loss": (frozenset({"probability"}), frozenset({"link", "binding"})),
    # Open a latency-jitter window: each frame's propagation delay gains
    # a uniform extra in [0, jitter_ns].
    "link_jitter": (frozenset({"jitter_ns"}), frozenset({"link", "binding"})),
    # Maglev pool churn: drain (remove), add, or flap (remove + re-add)
    # ``count`` backends on every load balancer in the NF chains.
    "backend_churn": (frozenset(), frozenset({"action", "count"})),
    # Firewall ACL churn: add/remove ``count`` rules (an added rule may
    # carry a ``subnet`` to actually blacklist traffic).
    "firewall_churn": (frozenset(), frozenset({"action", "count", "subnet"})),
    # Mid-run expiry-threshold reconfiguration (PayloadPark runs only).
    "expiry_threshold": (frozenset({"value"}), frozenset()),
    # Control-plane SRAM reclamation: drain a fraction of the occupied
    # parking slots, accounting each as an eviction (PayloadPark only).
    "park_drain": (frozenset(), frozenset({"fraction", "binding"})),
}

#: Kinds that open a window and close it ``duration`` later.
WINDOW_KINDS = frozenset({"link_down", "link_loss", "link_jitter"})

#: Link selectors the injector understands (besides explicit names).
LINK_SELECTORS = ("server", "gen", "gen0", "gen1", "all")

#: Backend churn actions.
CHURN_ACTIONS = ("remove", "add", "flap")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injection: *kind* applied at *at_ns* with *params*.

    Instances are produced by :meth:`EventSchedule.materialize
    <repro.faults.schedule.EventSchedule.materialize>`, which has already
    resolved fractional times against the run horizon; ``at_ns`` is
    absolute simulated time from traffic start.
    """

    kind: str
    at_ns: int
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Materialization order; salts the per-event RNGs so two loss
    #: windows on the same link draw independent sequences.
    sequence: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise FaultSpecError(
                f"unknown fault event kind {self.kind!r}; "
                f"expected one of {sorted(EVENT_KINDS)}"
            )
        if self.at_ns < 0:
            raise FaultSpecError(f"event time must be non-negative, got {self.at_ns}")

    @property
    def duration_ns(self) -> int:
        """Window length in nanoseconds (0 for instantaneous events)."""
        return int(self.params.get("duration_ns", 0))

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for preview tables and JSON output."""
        row: Dict[str, Any] = {"at_us": self.at_ns / 1_000.0, "kind": self.kind}
        for key, value in sorted(self.params.items()):
            if key == "duration_ns":
                row["duration_us"] = value / 1_000.0
            else:
                row[key] = value
        return row


def as_number(key: str, value: Any) -> float:
    """*value* as a finite float, or a :class:`FaultSpecError` naming *key*."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise FaultSpecError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise FaultSpecError(f"{key} must be finite, got {value!r}")
    return number


def as_integer(key: str, value: Any) -> int:
    """*value* as ``int(value)``, or a :class:`FaultSpecError` naming *key*."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise FaultSpecError(f"{key} must be an integer, got {value!r}") from None


def validate_event_record(record: Mapping[str, Any]) -> None:
    """Structurally validate one raw event record from a spec.

    Raises :class:`~repro.errors.FaultSpecError` naming the offending
    key, so campaign files and CLI specs fail with actionable messages
    before any simulation starts.
    """
    if not isinstance(record, Mapping):
        raise FaultSpecError(f"fault event must be a mapping, got {record!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        raise FaultSpecError(
            f"fault event needs a known 'kind'; got {kind!r} "
            f"(expected one of {sorted(EVENT_KINDS)})"
        )
    required, optional = EVENT_KINDS[kind]
    timing = {"at_us", "at_frac", "duration_us", "duration_frac"}
    allowed = required | optional | timing | {"kind"}
    unknown = set(record) - allowed
    if unknown:
        raise FaultSpecError(
            f"fault event {kind!r} has unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = required - set(record)
    if missing:
        raise FaultSpecError(f"fault event {kind!r} is missing {sorted(missing)}")
    if "at_us" not in record and "at_frac" not in record:
        raise FaultSpecError(f"fault event {kind!r} needs 'at_us' or 'at_frac'")
    if "at_us" in record and "at_frac" in record:
        raise FaultSpecError(f"fault event {kind!r}: give 'at_us' or 'at_frac', not both")
    if "at_frac" in record and not 0.0 <= as_number("at_frac", record["at_frac"]) <= 1.0:
        raise FaultSpecError(f"at_frac must lie in [0, 1], got {record['at_frac']}")
    for key in ("at_us", "duration_us", "duration_frac"):
        if key in record and as_number(key, record[key]) < 0:
            raise FaultSpecError(f"{key} must be non-negative, got {record[key]}")
    if ("duration_us" in record or "duration_frac" in record) and kind not in WINDOW_KINDS:
        raise FaultSpecError(f"fault event {kind!r} does not take a duration")
    _validate_params(kind, record)


def _validate_params(kind: str, record: Mapping[str, Any]) -> None:
    if kind == "link_loss":
        probability = as_number("probability", record["probability"])
        if not 0.0 < probability <= 1.0:
            raise FaultSpecError(f"loss probability must lie in (0, 1], got {probability}")
    if kind == "link_jitter" and as_integer("jitter_ns", record["jitter_ns"]) <= 0:
        raise FaultSpecError(f"jitter_ns must be positive, got {record['jitter_ns']}")
    if kind == "backend_churn":
        action = record.get("action", "flap")
        if action not in CHURN_ACTIONS:
            raise FaultSpecError(
                f"backend_churn action must be one of {CHURN_ACTIONS}, got {action!r}"
            )
    if kind == "firewall_churn":
        action = record.get("action", "add")
        if action not in ("add", "remove"):
            raise FaultSpecError(
                f"firewall_churn action must be 'add' or 'remove', got {action!r}"
            )
        subnet = record.get("subnet")
        if subnet is not None:
            try:
                FirewallRule.blacklist(subnet)
            except ValueError as error:
                raise FaultSpecError(
                    f"firewall_churn subnet {subnet!r}: {error}"
                ) from None
    if kind == "expiry_threshold" and as_integer("value", record["value"]) < 1:
        raise FaultSpecError("expiry_threshold value must be at least 1")
    if kind == "park_drain":
        fraction = as_number("fraction", record.get("fraction", 1.0))
        if not 0.0 < fraction <= 1.0:
            raise FaultSpecError(f"park_drain fraction must lie in (0, 1], got {fraction}")
    if as_integer("count", record.get("count", 1)) < 1:
        raise FaultSpecError("event count must be at least 1")
    link = record.get("link")
    if link is not None and not is_link_selector(link):
        raise FaultSpecError(
            f"unknown link selector {link!r}; expected one of "
            f"{LINK_SELECTORS} or genN"
        )


def is_link_selector(selector: Any) -> bool:
    """True when *selector* names a resolvable link target (server/gen/genN/all)."""
    if not isinstance(selector, str):
        return False
    if selector in LINK_SELECTORS:
        return True
    return selector.startswith("gen") and selector[3:].isdigit()
