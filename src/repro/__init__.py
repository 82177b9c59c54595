"""PayloadPark reproduction library.

This package reproduces *Parking Packet Payload with P4* (Goswami et al.,
CoNEXT 2020).  The paper's contribution — parking packet payloads in the
stateful memory of an RMT switch so that only headers traverse the
switch ↔ NF-server link — lives in :mod:`repro.core`.  Everything the paper
depends on (a Tofino-like RMT pipeline, an NF framework with firewall /
NAT / Maglev load-balancer NFs, a discrete-event network with NICs and a
PCIe model, traffic generation, and telemetry) is implemented as substrate
subpackages so the full evaluation can be regenerated on a laptop.

Quickstart
----------
>>> from repro import quickstart
>>> report = quickstart()                      # doctest: +SKIP
>>> report.goodput_gain_percent                # doctest: +SKIP
"""

from repro.core.config import PayloadParkConfig
from repro.core.header import PayloadParkHeader
from repro.core.program import BaselineProgram, PayloadParkProgram

__all__ = [
    "PayloadParkConfig",
    "PayloadParkHeader",
    "PayloadParkProgram",
    "BaselineProgram",
    "ExperimentRunner",
    "ExperimentResult",
    "ScenarioConfig",
    "quickstart",
    "__version__",
]

#: The one version: pyproject.toml reads it from here.
__version__ = "1.0.0"

_EXPERIMENT_EXPORTS = ("ExperimentRunner", "ExperimentResult", "ScenarioConfig")


def __getattr__(name):
    """Lazily expose the experiment-harness classes.

    The experiment runner pulls in the whole simulation stack; deferring
    its import keeps ``import repro`` cheap for users who only need the
    dataplane classes.
    """
    if name in _EXPERIMENT_EXPORTS:
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quickstart():
    """Run a small PayloadPark-vs-baseline comparison and return the report.

    This is the programmatic equivalent of ``examples/quickstart.py``: a
    FW → NAT chain behind a 10 GbE link fed with the enterprise packet-size
    mix, simulated for a few milliseconds under both deployments.
    """
    from repro.experiments.quickstart import run_quickstart

    return run_quickstart()
