"""§6.2.6: functional equivalence of PayloadPark and baseline deployments.

The paper validates that PayloadPark is transparent by capturing the
packets returning to the traffic generator under both deployments and
diffing the PCAPs (with a MAC-swapping NF), and by checking that the
switch reports zero premature payload evictions.  This experiment does
the same at the dataplane level: the same packet stream is pushed
through the PayloadPark switch + NF chain + merge path and through the
baseline switch + NF chain, and the resulting wire images are compared
byte for byte.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.core.config import PayloadParkConfig
from repro.experiments.runner import current_options, default_binding
from repro.nf.chain import NfChain
from repro.nf.macswap import MacSwapper
from repro.packet.pcap import write_pcap
from repro.traffic.pktgen import PacketFactory, PktGenConfig
from repro.traffic.workload import Workload


def run(
    packet_count: int = 2_000,
    seed: Optional[int] = None,
    pcap_prefix: Optional[str] = None,
) -> Dict[str, object]:
    """Push the same stream through both deployments and compare outputs.

    Returns a report with the number of packets compared, whether every
    wire image matched, and the PayloadPark counters (premature
    evictions must be zero for the comparison to be meaningful).
    ``seed`` defaults to the CLI's ``--seed`` override when one is
    active, else the historical 11.  Both programs run on the port
    plans unless the reference engine is asked for.
    """
    options = current_options()
    if seed is None:
        seed = options.seed_or(11)
    binding = default_binding()
    payloadpark = PayloadParkProgram(
        PayloadParkConfig(sram_fraction=0.26, expiry_threshold=1), bindings=[binding]
    )
    baseline = BaselineProgram([binding])
    for program in (payloadpark, baseline):
        program.enable_fast_path(not options.reference)
    chain_pp = NfChain([MacSwapper()])
    chain_base = NfChain([MacSwapper()])

    factory = PacketFactory(
        PktGenConfig(rate_gbps=10.0, workload=Workload.enterprise(), seed=seed)
    )
    rng = random.Random(seed)

    mismatches = 0
    compared = 0
    pp_frames = []
    base_frames = []
    timestamp = 0.0
    for index in range(packet_count):
        packet = factory.next_packet()
        twin = packet.copy()
        ingress = binding.ingress_ports[index % len(binding.ingress_ports)]

        # PayloadPark deployment: split, NF, merge.  A decision's last
        # element is its drop reason, None when the packet leaves.
        assert payloadpark.process(packet, ingress)[2] is None, (
            "split path must not drop healthy traffic"
        )
        chain_pp.process(packet)
        dropped = payloadpark.process(packet, binding.nf_port)[2] is not None
        pp_out = b"" if dropped else packet.to_bytes()

        # Baseline deployment: forward, NF, forward.
        assert baseline.process(twin, ingress)[2] is None
        chain_base.process(twin)
        baseline.process(twin, binding.nf_port)
        base_out = twin.to_bytes()

        compared += 1
        if pp_out != base_out:
            mismatches += 1
        if pcap_prefix is not None:
            pp_frames.append((timestamp, pp_out))
            base_frames.append((timestamp, base_out))
            timestamp += rng.random() * 1e-6

    if pcap_prefix is not None:
        write_pcap(f"{pcap_prefix}-payloadpark.pcap", pp_frames)
        write_pcap(f"{pcap_prefix}-baseline.pcap", base_frames)

    counters = payloadpark.counters_for()
    return {
        "packets_compared": compared,
        "identical": mismatches == 0,
        "mismatches": mismatches,
        "premature_evictions": counters.premature_evictions,
        "splits": counters.splits,
        "merges": counters.merges,
        "split_disabled_small_payload": counters.split_disabled_small_payload,
    }
