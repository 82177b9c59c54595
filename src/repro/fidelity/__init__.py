"""Tiered-fidelity engine: a calibrated fluid tier over the packet engine.

PR 3's fast path hit the per-event dispatch wall (~1.6x steady-state);
this package breaks it by not paying per-packet cost where nothing
interesting happens.  A *steady traffic segment* — constant offered
rate, no fault window, no arrival-model burstiness — reaches a
statistical steady state within a short lead-in, after which every
calibration-window's worth of simulated time produces (statistically)
the same counter increments.  The fluid tier therefore:

1. plans the run into steady segments and boundary regions
   (:mod:`repro.fidelity.segments`): fault windows from the
   :class:`~repro.faults.schedule.EventSchedule`, rate discontinuities
   and ramps from the :class:`~repro.workloads.schedule.TraceSchedule`,
   and arrival-model/replay workloads (never steady);
2. inside a long-enough steady segment, simulates a packet-level
   *lead-in* (settle) and a *calibration window* (measure), then
   performs one closed-form batch update for the largest integer
   multiple ``k`` of the calibration window that fits before the
   boundary: every monotone counter advances by ``k x`` its calibration
   delta (exact integers — conservation identities survive by
   construction), absolute-time hardware cursors shift with the clock,
   and pending machinery events ride along via
   :meth:`~repro.netsim.eventloop.EventLoop.translate_events`
   (:mod:`repro.fidelity.state`, :mod:`repro.fidelity.controller`);
3. re-enters the packet engine for the sub-window remainder, so every
   boundary (fault onset, phase change, measurement horizon) is crossed
   packet-level with genuine in-flight state.

A calibration is *rejected* — the controller stays packet-level — when
the system was still drifting across it (queue growth, server backlog,
SRAM occupancy movement), which is exactly the SRAM-pressure /
saturation regime where fluid extrapolation would lie.

The ``fidelity`` knob on
:class:`~repro.experiments.runner.ScenarioConfig` selects the tier:
``packet`` (default) never leaves the packet engine, ``auto`` uses the
fluid tier on eligible segments and silently degrades to pure packet
when none exist, and ``fluid`` is ``auto`` that raises
:class:`FidelityError` when the scenario admits no steady segment.
Figure-level agreement between ``auto`` and ``packet`` is certified by
the ``fluid_vs_packet`` metamorphic relation and gated in CI by
``repro bench --fidelity-check``.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.errors": ("FidelityError",),
        "repro.fidelity.controller": (
            "FluidParams",
            "TierController",
            "TierJump",
            "fluid_eligible",
        ),
        "repro.fidelity.segments": ("SteadySegment", "plan_steady_segments"),
        "repro.fidelity.state": ("FluidStateMap",),
    },
)
