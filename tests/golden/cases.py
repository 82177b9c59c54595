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

from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentRunner


def _runner(time_scale: float) -> ExperimentRunner:
    return ExperimentRunner(time_scale=time_scale)


GOLDEN_CASES: Dict[str, Callable[[], object]] = {
    "fig06": lambda: FIGURES["fig06"].run(sample_count=4_000),
    # The declared sweeps (fig07/08/09/15/16) take their reduced grid as
    # axis overrides, keyed by the scenario builder's keyword.
    "fig07": lambda: FIGURES["fig07"].run(
        runner=_runner(0.1), send_rate_gbps=(6.0, 10.5)
    ),
    "fig08": lambda: FIGURES["fig08"].run(
        runner=_runner(0.05), packet_size=(256, 1024), chain_name=("fw_nat",)
    ),
    "fig09": lambda: FIGURES["fig09"].run(
        runner=_runner(0.05), packet_size=(512, 1472)
    ),
    "fig10": lambda: FIGURES["fig10"].run(server_count=2, runner=_runner(0.1)),
    "fig11": lambda: FIGURES["fig11"].run(server_count=2, runner=_runner(0.1)),
    "fig12": lambda: FIGURES["fig12"].run(
        drop_fractions=(0.1,), policies=((1, False), (1, True)), runner=_runner(0.1)
    ),
    "fig13": lambda: FIGURES["fig13"].run(rates_gbps=(10.5,), runner=_runner(0.1)),
    "fig14": lambda: FIGURES["fig14"].run(
        sram_fractions=(0.10, 0.26),
        runner=_runner(0.05),
        rate_bounds_gbps=(10.0, 26.0),
        tolerance_gbps=8.0,
        include_baseline=False,
    ),
    "fig15": lambda: FIGURES["fig15"].run(
        runner=_runner(0.05), packet_size=(512,), nf_kind=("light", "heavy")
    ),
    "fig16": lambda: FIGURES["fig16"].run(
        runner=_runner(0.05), send_rate_gbps=(20.0, 36.0)
    ),
    "table1": FIGURES["table1"].run,
    # The canonical fault scenario: chaos profiles must reproduce
    # bit-identically across the fast and reference paths (mid-run cache
    # invalidation, Maglev rebuilds and parking-slot drains included).
    "chaos": lambda: FIGURES["chaos"].run(
        profiles=(None, "link-flap", "chaos-mix"), runner=_runner(0.1)
    ),
}
