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

Run as a script, it also prints interpreted bytecodes per packet (see
:func:`bytecodes_per_packet`), a third clock-free figure.  Counting it
takes minutes, so no test gates it; ``--check-bytecodes`` holds each
workload to the running interpreter's ceiling in
:data:`BYTECODE_BUDGETS` and exits 1 when one is exceeded (CI's
bench-smoke job runs it on 3.9 and 3.11).  ``--by-function [WORKLOAD
...]`` adds, for the named workloads (all four when none is named), the
functions that ran the most of those bytecodes, per packet — the
breakdown to size a change by::

    PYTHONPATH=src python tests/integration/test_call_budget.py --by-function multi8_macswap
    PYTHONPATH=src python tests/integration/test_call_budget.py --check-bytecodes
"""

import argparse
import gc
import os
import sys
from collections import defaultdict
from dataclasses import replace

from repro.experiments import scenarios
from repro.experiments.runner import ExperimentRunner, RunObserver, run_observer

SEED = 91

#: workload -> (scenario builder, time scale, ceiling = measured × 1.03).
#: Measured 50.411, 50.639, 44.230, 72.089 with no flight-recorder
#: guard left in the engine (the recorder wraps its seams from outside),
#: equal on CPython 3.11.7 and 3.9.18;
#: 50.411, 50.639, 44.561, 72.386 — unchanged when the phase
#: profiler's branches left the engine — with flows, Maglev tables and
#: host hash prefixes memoized per process (the counted compare, after
#: the discarded one, derives none of them); 52.571, 50.854, 45.750,
#: 72.458 with a parked payload stored
#: as one value (the per-packet calls are unchanged; the block helpers
#: that port-plan compilation called are gone); 52.599, 50.995, 45.771,
#: 72.477 with a switch pass returning its egress decision, NF verdicts
#: without cycles and one generator send loop per burst; 55.230, 55.188,
#: 48.436, 74.370 before that — equal on CPython 3.11.7 and 3.9.18 —
#: with the hop sites inserting into the calendar; 65.597, 66.183,
#: 58.263, 87.426 before that; 69.226, 69.650, 61.564, 91.783 before the
#: fused kernels built their records in place; 81.707, 80.770, 74.954,
#: 105.239 before the NF server did its own NIC / PCIe arithmetic.
BUDGETS = {
    "fig07_sat": (lambda: scenarios.fw_nat_lb_10ge(10.5), 0.1, 51.9),
    "multi8_macswap": (lambda: scenarios.multi_server_384b(8, 9.0), 0.01, 52.2),
    "evict_pressure": (lambda: scenarios.memory_sweep_scenario(0.05, 30.0), 0.02, 45.6),
    "incast_closed": (lambda: scenarios.workload_scenario("incast-collapse"), 0.2, 74.3),
}

#: (major, minor) interpreter -> workload -> ceiling on bytecodes per
#: packet (measured × 1.03), for ``--check-bytecodes``.  Measured on
#: 3.11.7: 3454.8, 2792.9, 3010.2, 4570.2; on 3.9.18: 3450.8, 2797.8,
#: 3010.3, 4552.8 — with no flight-recorder guard left in the engine
#: either (3489.0, 2829.9, 3046.8, 4625.8 on 3.11.7 and 3497.1, 2847.8,
#: 3059.4, 4625.3 on 3.9.18 with no profiler branch left in the engine;
#: the phase profiler wraps its seams from outside; calls per packet
#: did not move) (3553.9, 2890.5, 3110.2, 4706.2 on 3.11.7 and 3572.4,
#: 2926.2, 3134.5, 4719.1 on 3.9.18 with flows, Maglev tables and host
#: hash prefixes memoized per process; 3787.8, 2904.3, 3188.0, 4713.6
#: on 3.11.7 and 3799.2, 2939.0, 3206.4, 4725.7 on 3.9.18 with a parked
#: payload stored and taken as one value; 3928.3, 3105.4, 3328.1, 4967.7
#: and 3934.5, 3133.1, 3343.2, 4971.0 with ten 16-byte blocks sliced and
#: joined).
BYTECODE_BUDGETS = {
    (3, 9): {
        "fig07_sat": 3554.3,
        "multi8_macswap": 2881.7,
        "evict_pressure": 3100.6,
        "incast_closed": 4689.4,
    },
    (3, 11): {
        "fig07_sat": 3558.5,
        "multi8_macswap": 2876.7,
        "evict_pressure": 3100.5,
        "incast_closed": 4707.3,
    },
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
    # A fresh scenario per run.  Its flows, Maglev table and host hash
    # prefixes come from the process-wide memos the discarded run filled.
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


def bytecodes_per_packet(name):
    """Interpreted bytecodes per window packet of one compare, after one
    discarded compare: ``opcode`` events under ``sys.settrace``.

    Returns the total and, per function (see :func:`_function_label`),
    its share of it.  A third clock-free figure, for sizing a change
    before timing it.  Unlike calls it differs between interpreter
    versions (3.11 specializes and fuses instructions that 3.9 does
    not), so its ceilings are kept per interpreter
    (:data:`BYTECODE_BUDGETS`).  Tracing every opcode is slow: this
    takes about a minute per workload.
    """
    _compare(name)
    opcodes = defaultdict(int)  # code object -> opcodes it ran

    def count(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return count

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return count

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        packets = _compare(name)
    finally:
        sys.settrace(None)
        gc.enable()
    by_function = defaultdict(float)
    for code, ran in opcodes.items():
        by_function[_function_label(code)] += ran / packets
    return sum(opcodes.values()) / packets, dict(by_function)


def _function_label(code):
    """``path:qualified name`` of a code object, the path from the
    package root (``repro/netsim/link.py``) for the project's own code."""
    path = code.co_filename
    marker = os.sep + "src" + os.sep
    path = path.rsplit(marker, 1)[1] if marker in path else os.path.basename(path)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


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


#: Functions the ``--by-function`` breakdown lists per workload.
TOP_FUNCTIONS = 20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--by-function",
        nargs="*",
        choices=list(BUDGETS),
        metavar="WORKLOAD",
        help="also list the functions that ran the most bytecodes per packet "
        "on these workloads (all when none is named)",
    )
    parser.add_argument(
        "--check-bytecodes",
        action="store_true",
        help="exit 1 when a workload's bytecodes per packet exceed this "
        "interpreter's ceiling",
    )
    args = parser.parse_args(argv)
    ceilings = None
    if args.check_bytecodes:
        version = sys.version_info[:2]
        ceilings = BYTECODE_BUDGETS.get(version)
        if ceilings is None:
            parser.error("no bytecode ceilings for Python %d.%d" % version)
    breakdown = [] if args.by_function is None else args.by_function or list(BUDGETS)
    print(f"{'':16s} {'calls/pkt':>21s}  {'events/pkt':>21s}  {'bytecodes/pkt':>24s}")
    functions, over = {}, []
    for workload in BUDGETS:
        (calls,) = python_calls_per_packet(workload)
        events = events_per_packet(workload)
        bytecodes, functions[workload] = bytecodes_per_packet(workload)
        print(
            f"{workload:16s} {calls:8.3f}  x1.03 = {calls * 1.03:5.1f}"
            f"  {events:8.3f}  x1.03 = {events * 1.03:5.2f}"
            f"  {bytecodes:8.1f}  x1.03 = {bytecodes * 1.03:6.1f}",
            flush=True,
        )
        if ceilings is not None and bytecodes > ceilings[workload]:
            over.append(
                f"{workload}: {bytecodes:.1f} bytecodes per packet, "
                f"ceiling {ceilings[workload]:.1f}"
            )
    for workload in breakdown:
        print(f"\n{workload}: top {TOP_FUNCTIONS} functions by bytecodes per packet")
        ranked = sorted(functions[workload].items(), key=lambda item: (-item[1], item[0]))
        for label, per_packet in ranked[:TOP_FUNCTIONS]:
            print(f"  {per_packet:9.1f}  {label}")
    for line in over:
        print(line, file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
