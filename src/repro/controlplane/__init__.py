"""Control plane: runtime management of a PayloadPark deployment.

The paper's prototype is managed through switch configuration (which
ports are PayloadPark-enabled, how much memory is reserved and how it is
sliced) and monitored through its eight dataplane counters; §7 sketches
an *adaptive payload eviction policy* driven by the premature-eviction
counter as future work.  This subpackage provides that management layer:
a controller that reads runtime state off a running program, installs
forwarding entries and NF rule sets, and an implementation of the
adaptive eviction-policy controller the paper proposes.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.controlplane.manager": (
            "ControlPlaneManager",
            "PayloadParkController",
            "AdaptiveEvictionPolicy",
        ),
        "repro.controlplane.rules": ("DeploymentSpec", "build_chain"),
    },
)
