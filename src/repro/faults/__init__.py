"""Fault injection & control-plane churn: the chaos axis of the evaluation.

The paper's claim is that payload parking survives *real* operating
conditions — NF backends coming and going, rules being pushed, links
degrading — not just static testbeds.  This package makes those
conditions a first-class, declarative scenario dimension:

* :mod:`~repro.faults.events` — the atomic timed operations (link
  down/up, loss and latency-jitter windows, Maglev backend churn,
  firewall rule bursts, expiry-threshold reconfiguration, parked-payload
  drains);
* :mod:`~repro.faults.schedule` — :class:`EventSchedule`, a plain-data
  YAML/dict spec of explicit events plus seeded periodic generators,
  materialized deterministically against a run horizon;
* :mod:`~repro.faults.injector` — :class:`FaultInjectorNode`, the
  simulation node that executes a schedule against the live testbed
  and switch program;
* :mod:`~repro.faults.registry` — named profiles (``link-flap``,
  ``backend-churn``, ``chaos-mix``, …) swept by campaigns and the
  scenario fuzzer.

CLI: ``repro faults list|describe|preview`` and ``repro run <fig>
--faults <profile>``.  Campaigns sweep profiles via a ``faults`` grid
axis; every mutation preserves fast-vs-slow equality and seed
determinism (the chaos test suite proves it).
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.events": ("EVENT_KINDS", "FaultEvent", "validate_event_record"),
        "repro.faults.injector": ("FaultInjectorNode",),
        "repro.faults.registry": (
            "FAULT_REGISTRY",
            "fault_profile_names",
            "get_fault_profile",
            "register_fault_profile",
        ),
        "repro.faults.schedule": ("EventSchedule",),
    },
)
