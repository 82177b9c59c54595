"""PayloadPark reproduction library.

This package reproduces *Parking Packet Payload with P4* (Goswami et al.,
CoNEXT 2020).  The paper's contribution — parking packet payloads in the
stateful memory of an RMT switch so that only headers traverse the
switch ↔ NF-server link — lives in :mod:`repro.core`.  Everything the paper
depends on (a Tofino-like RMT pipeline, an NF framework with firewall /
NAT / Maglev load-balancer NFs, a discrete-event network with NICs and a
PCIe model, traffic generation, and telemetry) is implemented as substrate
subpackages so the full evaluation can be regenerated on a laptop.

Every package ``__init__`` re-exports lazily (:mod:`repro.lazy`): a name
is imported on its first read, so ``import repro`` — and importing any
one submodule — loads nothing the caller does not use.

Quickstart
----------
>>> from repro import quickstart
>>> report = quickstart()                      # doctest: +SKIP
>>> report.goodput_gain_percent                # doctest: +SKIP
"""

from repro.lazy import lazy_exports

#: The one version: pyproject.toml reads it from here.
__version__ = "1.0.0"

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("PayloadParkConfig",),
        "repro.core.header": ("PayloadParkHeader",),
        "repro.core.program": ("PayloadParkProgram", "BaselineProgram"),
        "repro.experiments.runner": ("ExperimentRunner", "ExperimentResult", "ScenarioConfig"),
    },
)
__all__ = [*_EXPORTS, "quickstart", "__version__"]


def quickstart():
    """Run a small PayloadPark-vs-baseline comparison and return the report.

    This is the programmatic equivalent of ``examples/quickstart.py``: a
    FW → NAT chain behind a 10 GbE link fed with the enterprise packet-size
    mix, simulated for a few milliseconds under both deployments.
    """
    from repro.experiments.quickstart import run_quickstart

    return run_quickstart()
