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


def require_integer(field: str, value: int, minimum: Optional[int] = None) -> None:
    """Raise ``ValueError``, naming *field*, unless *value* is an int (not a bool) >= *minimum*."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field} must be at least {minimum}, got {value}")


def _require_finite(field: str, value: float, error: Type[ValueError]) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{field} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{field} must be finite, got {value}")
