"""Domain error types shared across the package.

This module is intentionally import-free so any layer (traffic
primitives, workloads, experiments) can raise the shared types without
creating import cycles.
"""

from __future__ import annotations

import math
from typing import Optional, Type


class FaultSpecError(ValueError):
    """An invalid fault-injection specification.

    Raised by the fault subsystem's validators — event records, schedule
    specs, generator descriptions and the fault-profile registry — so
    callers can catch one domain error type.  Subclasses
    :class:`ValueError`, so pre-existing ``except ValueError`` handlers
    (the CLI, campaign loaders) keep working.
    """


class ObserveSpecError(ValueError):
    """An invalid observability specification.

    Raised by :meth:`repro.obs.config.ObserveSpec.from_spec` and the
    observability plane's validators — unknown spec keys, out-of-range
    sampling intervals, malformed export schemas — so callers can catch
    one domain error type.  Subclasses :class:`ValueError`, so
    pre-existing ``except ValueError`` handlers (the CLI, campaign
    loaders) keep working.
    """


class WorkloadSpecError(ValueError):
    """An invalid workload/traffic specification.

    Raised by every workload validator — size distributions, arrival
    models, flow models, schedules, generative/replay workload
    specs and the workload registry — so callers can catch one domain
    error type instead of mixed ``ValueError``/``AssertionError``.
    Subclasses :class:`ValueError`, so pre-existing ``except ValueError``
    handlers keep working.
    """


class LinkSpecError(ValueError):
    """An invalid link parameter: a non-positive or non-finite rate, a
    negative or non-integer propagation delay, or an egress buffer that
    holds no byte.

    Raised by :class:`repro.netsim.link.Link` at construction, so a bad
    topology fails before its first event instead of mid-run.
    Subclasses :class:`ValueError`, so pre-existing ``except
    ValueError`` handlers keep working.
    """


class PayloadParkConfigError(ValueError):
    """An invalid :class:`repro.core.config.PayloadParkConfig` field: a
    non-integer or out-of-range size, count or clock, or a non-finite
    SRAM fraction.

    Raised by the config at construction, and so by a campaign spec or
    scenario that overrides the field, before any cell runs.  Subclasses
    :class:`ValueError`, so pre-existing ``except ValueError`` handlers
    keep working.
    """


class EmptyWindowError(ValueError):
    """A deployment's traffic generator sent no packet in the measurement
    window.

    Every rate, latency and gain of such a run is 0 by construction, not
    a measurement, so the experiment runner raises this after the run
    instead of reporting it.  The message names the scenario and the
    time scale: a longer ``--time-scale`` (or a higher send rate) gives
    the generator time to send.  Subclasses :class:`ValueError`, so the
    CLI prints one ``error:`` line and a campaign cell becomes an error
    record.
    """


def require_positive_finite(
    field: str, value: float, error: Type[ValueError] = ValueError
) -> None:
    """Raise *error*, naming *field*, unless *value* is a finite number > 0.

    The check for every rate / scale knob that ends up as a divisor or
    inside an ``int(...)``: ``inf`` passes a bare ``<= 0`` test and then
    paces a generator at the 1 ns floor forever or overflows the
    conversion, and ``nan`` passes every comparison.
    """
    _require_finite(field, value, error)
    if value <= 0:
        raise error(f"{field} must be positive")


def require_non_negative_finite(field: str, value: float) -> None:
    """Raise ``ValueError``, naming *field*, unless *value* is a finite number >= 0."""
    _require_finite(field, value, ValueError)
    if value < 0:
        raise ValueError(f"{field} must be non-negative, got {value}")


def require_integer(
    field: str,
    value: int,
    minimum: Optional[int] = None,
    error: Type[ValueError] = ValueError,
    maximum: Optional[int] = None,
) -> None:
    """Raise *error*, naming *field*, unless *value* is an int (not a bool)
    in *minimum* .. *maximum*."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{field} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise error(f"{field} must be at most {maximum}, got {value}")


def _require_finite(field: str, value: float, error: Type[ValueError]) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{field} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{field} must be finite, got {value}")
