"""Isolated layer probes (``probe.*``).

Each probe drives a fixed number of operations straight into one
public function with nothing else running, five times (once under
``--quick``), and reports the median of the host-corrected times.  They are the per-component rows ROADMAP item 2 needs to
decide which fast-path pieces pay: both event loops, both packet
builders, the switch program with and without parking, the NF chain,
and the result store.
"""

from __future__ import annotations

import shutil
import statistics
from typing import Callable, Dict, Tuple

from hostclock import stopwatch
from repro.core.config import PayloadParkConfig
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.experiments import chains
from repro.experiments.runner import default_binding
from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.orchestrator.store import ResultStore
from repro.packet.flows import FlowGenerator
from repro.packet.pool import FramePool
from repro.traffic.pktgen import PktGenConfig, build_udp_frame

SRC_MAC = PktGenConfig.src_mac
DST_MAC = PktGenConfig.dst_mac


def _noop() -> None:
    pass


def _eventloop(loop_class) -> Callable[[], Tuple[float, int]]:
    events = 40_000

    def run() -> Tuple[float, int]:
        env = loop_class()
        with stopwatch() as watch:
            # Eight events per timestamp, like a paced burst.
            for index in range(events):
                env.schedule_at(index // 8 * 100, _noop)
            env.run_until(events * 100)
        return watch.corrected_s, env.events_executed

    return run


def _frames(pooled: bool) -> Callable[[], Tuple[float, int]]:
    frames = 8_000
    flows = FlowGenerator(flow_count=64).flows()

    def run() -> Tuple[float, int]:
        pool = FramePool(SRC_MAC, DST_MAC)
        with stopwatch() as watch:
            for index in range(frames):
                flow = flows[index % len(flows)]
                if pooled:
                    pool.frame(384, flow)
                else:
                    build_udp_frame(384, flow, src_mac=SRC_MAC, dst_mac=DST_MAC)
        return watch.corrected_s, frames

    return run


def _program(parking: bool) -> Callable[[], Tuple[float, int]]:
    packets = 2_000
    binding = default_binding()
    flows = FlowGenerator(flow_count=64).flows()

    def run() -> Tuple[float, int]:
        if parking:
            program = PayloadParkProgram(
                PayloadParkConfig(sram_fraction=0.26), bindings=[binding]
            )
        else:
            program = BaselineProgram([binding])
        program.enable_fast_path()
        pool = FramePool(SRC_MAC, DST_MAC)
        batch = [pool.frame(384, flows[i % len(flows)]) for i in range(packets)]
        ingress, nf_port = binding.ingress_ports[0], binding.nf_port
        with stopwatch() as watch:
            for packet in batch:
                program.process(packet, ingress)  # split (or plain forward)
                if parking:
                    program.process(packet, nf_port)  # merge on the way back
        return watch.corrected_s, packets

    return run


def _nf_chain() -> Tuple[float, int]:
    packets = 4_000
    chain = chains.fw_nat_lb(rule_count=20)()
    for nf in chain:
        nf.enable_fast_path()
    pool = FramePool(SRC_MAC, DST_MAC)
    flows = FlowGenerator(flow_count=64).flows()
    batch = [pool.frame(384, flows[i % len(flows)]) for i in range(packets)]
    with stopwatch() as watch:
        for packet in batch:
            chain.process(packet)
    return watch.corrected_s, packets


def _store(out_dir, refresh: bool) -> Callable[[], Tuple[float, int]]:
    records = 1_000
    metrics = {f"metric_{index}": index * 1.5 for index in range(60)}

    def run() -> Tuple[float, int]:
        store_dir = out_dir / "probe-store"
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            store = ResultStore(store_dir / "probe.jsonl", shards=4)
            with stopwatch() as appended:
                for index in range(records):
                    store.append(
                        {"spec_hash": f"{index:016x}", "status": "ok", "metrics": metrics}
                    )
            if not refresh:
                return appended.corrected_s, records
            with stopwatch() as folded:  # the cursor fold alone
                if store.refresh() != records:
                    raise RuntimeError("store refresh did not fold every record")
            return folded.corrected_s, records
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    return run


def run_probes(out_dir, repeats: int) -> Dict[str, float]:
    """Every ``probe.*`` metric, median of *repeats* runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rate_probes = {
        "probe.eventloop.fast.events_per_s": _eventloop(FastEventLoop),
        "probe.eventloop.ref.events_per_s": _eventloop(EventLoop),
        "probe.packet.pooled.frames_per_s": _frames(pooled=True),
        "probe.packet.parsed.frames_per_s": _frames(pooled=False),
        "probe.store.append_per_s": _store(out_dir, refresh=False),
        "probe.store.refresh_per_s": _store(out_dir, refresh=True),
    }
    cost_probes = {
        "probe.core.baseline.us_per_pkt": _program(parking=False),
        "probe.core.payloadpark.us_per_roundtrip": _program(parking=True),
        "probe.nf.fw_nat_lb.us_per_pkt": _nf_chain,
    }
    results: Dict[str, float] = {}
    for name, probe in rate_probes.items():
        results[name] = statistics.median(
            count / seconds for seconds, count in (probe() for _ in range(repeats))
        )
    for name, probe in cost_probes.items():
        results[name] = statistics.median(
            seconds / count * 1e6 for seconds, count in (probe() for _ in range(repeats))
        )
    return results
