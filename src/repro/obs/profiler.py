"""The phase profiler: wall-time attribution to engine stages.

The profiler attaches from outside the engine.  :data:`STAGES` maps
each stage to the seams it times — methods the engine looks up per
call — and :meth:`PhaseProfiler.wrap` replaces each seam, on the
instances of one wired testbed, with a wrapper that brackets the call
with ``enter(stage)`` / ``exit()``; :meth:`PhaseProfiler.unwrap`
restores them (the runner calls it in a ``finally``).  Nothing in the
engine knows a profiler exists, and no class is touched, so a profiled
run takes the same engine path as an unobserved one.

The runner wraps every ``run_until`` call in :meth:`measure_total`.
Stages nest (a burst transmits on a link); the accounting is
*exclusive* — a frame's self time is its elapsed time minus the time
spent in frames it opened — so stage wall times are disjoint and sum
to at most the total.  Whatever the named stages do not cover is the
event loop's own dispatch overhead (heap pops, calendar bookkeeping,
callback indirection), reported as the residual ``event_dispatch``
stage.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Report schema identifier; bump on incompatible layout changes.
PROFILE_SCHEMA = "repro.profile/v1"

#: The residual stage name (total minus every named stage).
DISPATCH_STAGE = "event_dispatch"

#: Stage -> the seams it times, as ``(role, method)`` pairs: the method
#: is wrapped on every object of the testbed that plays the role (see
#: :func:`seam_owners`).  ``_on_complete`` is the server's completion
#: callback, bound in ``__init__`` and read per packet; ``_apply`` is
#: the injector's per-event work behind the ``apply_event`` the
#: calendar already holds.
STAGES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "pipeline_walk": (("program", "process"),),
    "nf_processing": (("server", "handle_packet"), ("server", "_on_complete")),
    "traffic_gen": (("pktgen", "_emit_burst"),),
    "link_transmit": (("link", "transmit"),),
    "fault_injection": (("fault_injector", "_apply"),),
}


def seam_owners(topology: Any, program: Any) -> Dict[str, Tuple[Any, ...]]:
    """Role -> the objects of one wired testbed that play it."""
    attachments = topology.attachments
    injector = topology.fault_injector
    return {
        "program": (program,),
        "server": tuple(attachment.server for attachment in attachments),
        "pktgen": tuple(attachment.pktgen for attachment in attachments),
        "link": tuple(
            link for a in attachments for link in (*a.gen_links, a.server_link)
        ),
        "fault_injector": () if injector is None else (injector,),
    }


class PhaseProfiler:
    """Accumulates exclusive wall time and event counts per stage."""

    __slots__ = ("_self_ns", "_events", "_stack", "_wrapped", "total_wall_ns")

    def __init__(self) -> None:
        self._self_ns: Dict[str, int] = {}
        self._events: Dict[str, int] = {}
        #: Open frames: [stage, start_ns, child_ns].
        self._stack: List[List[Any]] = []
        #: ``(owner, method, original)`` per installed wrapper;
        #: ``original`` is None where the method came from the class.
        self._wrapped: List[Tuple[Any, str, Any]] = []
        self.total_wall_ns = 0

    def enter(self, stage: str) -> None:
        """Open a frame for *stage* (stages may nest)."""
        self._stack.append([stage, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        """Close the innermost frame, crediting its exclusive time."""
        stage, start_ns, child_ns = self._stack.pop()
        elapsed = time.perf_counter_ns() - start_ns
        self._self_ns[stage] = self._self_ns.get(stage, 0) + max(elapsed - child_ns, 0)
        self._events[stage] = self._events.get(stage, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def _timed(self, stage: str, method: Callable[..., Any]) -> Callable[..., Any]:
        enter, exit_ = self.enter, self.exit

        def timed(*args: Any) -> Any:
            enter(stage)
            try:
                return method(*args)
            finally:
                exit_()

        return timed

    def wrap(self, topology: Any, program: Any) -> None:
        """Time every seam of *topology* until :meth:`unwrap`."""
        owners = seam_owners(topology, program)
        for stage, seams in STAGES.items():
            for role, name in seams:
                for owner in owners[role]:
                    method = getattr(owner, name)
                    self._wrapped.append((owner, name, vars(owner).get(name)))
                    setattr(owner, name, self._timed(stage, method))

    def unwrap(self) -> None:
        """Restore every seam :meth:`wrap` replaced."""
        while self._wrapped:
            owner, name, original = self._wrapped.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @contextmanager
    def measure_total(self) -> Iterator[None]:
        """Accumulate the wall time of the enclosed ``run_until`` window."""
        start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            self.total_wall_ns += time.perf_counter_ns() - start_ns

    @property
    def measured_ns(self) -> int:
        """Exclusive nanoseconds credited to named stages so far."""
        return sum(self._self_ns.values())

    def report(self) -> Dict[str, Any]:
        """The attribution report (``repro.profile/v1``).

        ``event_dispatch`` is the residual, so the listed stages always
        account for 100% of the measured total; ``measured_fraction``
        says how much was directly bracketed by the seam wrappers.
        """
        total_ns = self.total_wall_ns
        measured_ns = min(self.measured_ns, total_ns) if total_ns else self.measured_ns
        stages: Dict[str, Dict[str, Any]] = {
            stage: {"wall_ns": self_ns, "events": self._events.get(stage, 0)}
            for stage, self_ns in self._self_ns.items()
        }
        if total_ns:
            stages[DISPATCH_STAGE] = {
                "wall_ns": total_ns - measured_ns,
                "events": 0,
            }
        denominator = total_ns if total_ns else max(measured_ns, 1)
        rows = [
            {
                "name": name,
                "wall_ns": data["wall_ns"],
                "events": data["events"],
                "fraction": data["wall_ns"] / denominator,
            }
            for name, data in stages.items()
        ]
        rows.sort(key=lambda row: (-row["wall_ns"], row["name"]))
        return {
            "schema": PROFILE_SCHEMA,
            "total_wall_ns": total_ns,
            "measured_fraction": (measured_ns / denominator) if denominator else 0.0,
            "attributed_fraction": (
                sum(row["fraction"] for row in rows) if rows else 0.0
            ),
            "stages": rows,
        }
