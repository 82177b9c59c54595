"""``repro workload preview`` shows the traffic a run offers, row for row.

``WorkloadSpec.trace`` runs the workload's own traffic generator with
its TX port wired to a capture.  These tests hold it to the live
testbed: the first frames generator 0 of a ``workload`` scenario emits
(time, size, 5-tuple) must equal the preview's rows.  A closed-loop
transport is held to that only until the testbed's first delivery;
after it the ideal preview path and the simulated network diverge, as
they should.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import workload_scenario
from repro.netsim.link import Link
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.workloads import get_workload, summarize, workload_names
from repro.workloads.stats import TracedPacket

FRAMES = 1_024


class _Enough(Exception):
    """Ends a live run once the frames under comparison are captured."""


def _live_rows(monkeypatch, name, seed, rate_gbps, until_delivery=False):
    """Generator 0's first :data:`FRAMES` frames in a ``workload`` scenario
    run, or those before its first delivery with *until_delivery*."""
    scenario = replace(workload_scenario(name, send_rate_gbps=rate_gbps), seed=seed)
    rows = []
    transmit, handle = Link.transmit, TrafficGenNode.handle_packet

    def recording_transmit(link, packet, sender):
        if isinstance(sender, TrafficGenNode) and sender.config.seed == seed:
            rows.append(TracedPacket.of(sender.env.now, packet))
            if len(rows) == FRAMES:
                raise _Enough
        return transmit(link, packet, sender)

    def first_delivery(node, packet, port):
        if node.config.seed == seed:
            raise _Enough
        handle(node, packet, port)

    monkeypatch.setattr(Link, "transmit", recording_transmit)
    if until_delivery:
        monkeypatch.setattr(TrafficGenNode, "handle_packet", first_delivery)
    with pytest.raises(_Enough):
        ExperimentRunner(time_scale=1.0).run_deployment(scenario, DeploymentKind.PAYLOADPARK)
    monkeypatch.undo()
    return rows


@pytest.mark.parametrize("seed, rate_gbps", [(5, None), (9, 6.0)])
@pytest.mark.parametrize("name", workload_names())
def test_preview_rows_equal_the_live_generator(monkeypatch, name, seed, rate_gbps):
    spec = get_workload(name)
    preview = spec.trace(seed, FRAMES, rate_gbps=rate_gbps)
    closed_loop = spec.kind == "closed-loop"
    live = _live_rows(monkeypatch, name, seed, rate_gbps, until_delivery=closed_loop)
    assert len(preview) == FRAMES
    if closed_loop:
        # Every frame before the first delivery; the window is open by then.
        assert len(live) >= 32
        assert preview[: len(live)] == live
    else:
        assert preview == live


@pytest.mark.parametrize("rate_gbps", [16.0, 4.0])
def test_rate_rescaling_through_trace(monkeypatch, rate_gbps):
    # The exact half: the rescaled preview is the rescaled run.
    spec = get_workload("enterprise-poisson")
    preview = spec.trace(5, FRAMES, rate_gbps=rate_gbps)
    assert preview == _live_rows(monkeypatch, "enterprise-poisson", 5, rate_gbps)
    # The statistical half: 32-frame bursts paced by Poisson gaps reach
    # the requested mean only over many bursts (2,000 frames are ~62).
    long_run = summarize(spec.trace(5, 32_000, rate_gbps=rate_gbps))
    assert long_run.mean_rate_gbps == pytest.approx(rate_gbps, rel=0.15)
