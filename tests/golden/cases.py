"""Reduced-grid golden cases for every figure/table experiment.

Each case maps a name to a zero-argument callable returning the
experiment's JSON-serializable payload on a deliberately small grid
(two grid points, scaled-down simulated duration) so the whole suite
runs in seconds while still exercising every experiment end to end.

The same definitions serve two consumers:

* ``tests/golden/regenerate.py`` writes ``<name>.json`` next to this
  file from the **slow (reference) path** — the reference semantics are
  the ground truth; and
* ``tests/integration/test_golden_figures.py`` re-runs every case on
  the default engine and on the reference one and asserts exact
  equality against the committed JSON.

Determinism: every case pins its seed through the experiments' default
seed (42; fig06 uses its historical 7) and runs serially in-process, so
the payloads are bit-stable across runs and platforms.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments import (
    chaos,
    fig06_packet_size_cdf,
    fig07_goodput_latency,
    fig08_fixed_sizes,
    fig09_pcie,
    fig10_multi_server,
    fig11_multi_server_latency,
    fig12_explicit_drops,
    fig13_recirculation,
    fig14_memory_sweep,
    fig15_nf_cycles,
    fig16_small_packets,
    table1_resources,
)
from repro.experiments.runner import ExperimentRunner


def _runner(time_scale: float) -> ExperimentRunner:
    return ExperimentRunner(time_scale=time_scale)


GOLDEN_CASES: Dict[str, Callable[[], object]] = {
    "fig06": lambda: fig06_packet_size_cdf.run(sample_count=4_000),
    "fig07": lambda: fig07_goodput_latency.run(
        rates_gbps=(6.0, 10.5), runner=_runner(0.1)
    ),
    "fig08": lambda: fig08_fixed_sizes.run(
        sizes=(256, 1024), chain_names=("fw_nat",), runner=_runner(0.05)
    ),
    "fig09": lambda: fig09_pcie.run(sizes=(512, 1472), runner=_runner(0.05)),
    "fig10": lambda: fig10_multi_server.run(server_count=2, runner=_runner(0.1)),
    "fig11": lambda: fig11_multi_server_latency.run(
        server_count=2, runner=_runner(0.1)
    ),
    "fig12": lambda: fig12_explicit_drops.run(
        drop_fractions=(0.1,), policies=((1, False), (1, True)), runner=_runner(0.1)
    ),
    "fig13": lambda: fig13_recirculation.run(rates_gbps=(10.5,), runner=_runner(0.1)),
    "fig14": lambda: fig14_memory_sweep.run(
        sram_fractions=(0.10, 0.26),
        runner=_runner(0.05),
        rate_bounds_gbps=(10.0, 26.0),
        tolerance_gbps=8.0,
        include_baseline=False,
    ),
    "fig15": lambda: fig15_nf_cycles.run(
        sizes=(512,), nf_kinds=("light", "heavy"), runner=_runner(0.05)
    ),
    "fig16": lambda: fig16_small_packets.run(
        rates_gbps=(20.0, 36.0), runner=_runner(0.05)
    ),
    "table1": table1_resources.run,
    # The canonical fault scenario: chaos profiles must reproduce
    # bit-identically across the fast and reference paths (mid-run cache
    # invalidation, Maglev rebuilds and parking-slot drains included).
    "chaos": lambda: chaos.run(
        profiles=(None, "link-flap", "chaos-mix"), runner=_runner(0.1)
    ),
}
