"""Clock-free cost budgets: Python calls and engine events per packet.

Wall-clock rows need alternating pairs and a quiet host; this one needs
neither.  After one discarded run (lazy imports, memo fills), the number
of Python-level ``call`` events ``sys.setprofile`` sees while
``ExperimentRunner.compare`` runs a scenario — set-up included — divided
by the packets the two deployments sent in their measured windows is a
pure function of the code and the seed.  It was measured equal, to the
last digit printed, on a second run in the same process (asserted
below), in a fresh process, under ``PYTHONHASHSEED=0`` and between
CPython 3.11.7 and ``~/.pyenv/versions/3.9.18/bin/python`` (which has no
pytest: run this file as a script there, it prints the figures).

Each of the perf ledger's four engine workloads is held to a committed
ceiling of *measured × 1.03*, so a change that adds a Python frame or
two per hop fails here, on any machine, before anyone times anything
(ROADMAP item 1(a)).  A change that *lowers* a figure should lower its
ceiling in the same commit; ``python tests/integration/test_call_budget.py``
prints the new ones.  The time scales are small (a few hundred packets
per deployment) to keep the module to a few seconds, so set-up weighs
more here than at ledger size and the figures sit above the ledger's.

The second figure is engine events per packet: the events both
deployments' loops executed in one compare, over its window packets.
It is simulated-time only, so it is exact on any interpreter, and its
ceiling (*measured × 1.03*) fails a change that
brings back a per-hop event — a link frame's serialization end is not
one unless another event shares its nanosecond (``repro.netsim.link``).
"""

import gc
import sys
from dataclasses import replace

from repro.experiments import scenarios
from repro.experiments.runner import ExperimentRunner, RunObserver, run_observer

SEED = 91

#: workload -> (scenario builder, time scale, ceiling = measured × 1.03).
#: Measured 65.597, 66.183, 58.263, 87.426 — equal on CPython 3.11.7
#: and 3.9.18 — with the fused split, merge and baseline kernels building
#: their PipelinePacket, MetadataEntry and header records in place
#: instead of through the dataclass constructors (69.226, 69.650,
#: 61.564, 91.783 before; 81.707, 80.770, 74.954, 105.239 before the NF
#: server did its own NIC / PCIe arithmetic).
BUDGETS = {
    "fig07_sat": (lambda: scenarios.fw_nat_lb_10ge(10.5), 0.1, 67.5),
    "multi8_macswap": (lambda: scenarios.multi_server_384b(8, 9.0), 0.01, 67.8),
    "evict_pressure": (lambda: scenarios.memory_sweep_scenario(0.05, 30.0), 0.02, 60.0),
    "incast_closed": (lambda: scenarios.workload_scenario("incast-collapse"), 0.2, 90.0),
}

#: workload -> ceiling on engine events per packet (measured × 1.03).
#: Measured 10.289, 10.527, 9.948, 13.117 with lazily drained
#: serialization ends (15.382, 15.820, 14.589, 19.605 with one
#: serialization-end event per link frame).
EVENT_BUDGETS = {
    "fig07_sat": 10.60,
    "multi8_macswap": 10.84,
    "evict_pressure": 10.25,
    "incast_closed": 13.51,
}


class _EventCount(RunObserver):
    """Sums the events every deployment run's loop executed."""

    def __init__(self) -> None:
        self.events = 0

    def on_run_end(self, scenario, deployment, topology, program, reports) -> None:
        self.events += topology.env.events_executed


def _compare(name):
    build, time_scale, _ceiling = BUDGETS[name]
    # A fresh scenario per run: its flow population is lazy and would
    # otherwise carry the previous run's flows.
    result = ExperimentRunner(time_scale=time_scale).compare(replace(build(), seed=SEED))
    comparison = result.comparison
    return comparison.baseline.packets_sent + comparison.payloadpark.packets_sent


def events_per_packet(name):
    """Engine events per window packet of one compare."""
    with run_observer(_EventCount()) as counter:
        packets = _compare(name)
    return counter.events / packets


def python_calls_per_packet(name, runs=1):
    """``call`` events per window packet over *runs* compares, after one
    discarded compare; one figure per run.

    The collector is emptied before and held off during each counted
    compare: the simulator's own objects have no Python-level finalizers,
    but garbage left by whatever ran earlier in the process (hypothesis
    does) can, and a collection inside the window would count them.
    """
    _compare(name)
    figures = []
    for _ in range(runs):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        gc.collect()
        gc.disable()
        sys.setprofile(count)
        try:
            packets = _compare(name)
        finally:
            sys.setprofile(None)
            gc.enable()
        figures.append(calls / packets)
    return figures


def pytest_generate_tests(metafunc):
    if "workload" in metafunc.fixturenames:
        metafunc.parametrize("workload", list(BUDGETS))


def test_engine_events_per_packet_stay_under_the_ceiling(workload):
    figure = events_per_packet(workload)
    ceiling = EVENT_BUDGETS[workload]
    assert figure <= ceiling, (
        f"{workload}: {figure:.2f} engine events per packet, ceiling {ceiling:.2f}"
    )


def test_python_calls_per_packet_stay_under_the_ceiling(workload):
    first, second = python_calls_per_packet(workload, runs=2)
    assert first == second, "the count must not depend on the run"
    ceiling = BUDGETS[workload][2]
    assert first <= ceiling, (
        f"{workload}: {first:.2f} Python calls per packet, ceiling {ceiling:.2f}"
    )


if __name__ == "__main__":
    print(f"{'':16s} {'calls/pkt':>21s}  {'events/pkt':>21s}")
    for workload in BUDGETS:
        (calls,) = python_calls_per_packet(workload)
        events = events_per_packet(workload)
        print(
            f"{workload:16s} {calls:8.3f}  x1.03 = {calls * 1.03:5.1f}"
            f"  {events:8.3f}  x1.03 = {events * 1.03:5.2f}"
        )
