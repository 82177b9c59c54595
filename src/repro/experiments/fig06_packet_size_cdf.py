"""Fig. 6: packet-size CDF of the enterprise datacenter workload.

The paper replays a PCAP whose packet sizes follow the distribution
Benson et al. measured in enterprise datacenters: bimodal with a mean of
882 bytes, with ≈ 30 % of packets too small to be split (payload under
160 bytes).  This experiment emits the CDF points of our synthetic
version of that distribution together with its summary statistics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.experiments.runner import current_options
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES
from repro.traffic.distributions import enterprise_datacenter_distribution, split_eligible_fraction


def run(sample_count: int = 20_000, seed: Optional[int] = None) -> Dict[str, object]:
    """Return the CDF points plus sampled statistics of the workload.

    ``seed`` defaults to the CLI's ``--seed`` override when one is
    active, else the historical 7.
    """
    distribution = enterprise_datacenter_distribution()
    if seed is None:
        seed = current_options().seed_or(7)
    rng = random.Random(seed)
    samples = [distribution.sample(rng) for _ in range(sample_count)]
    sampled_mean = sum(samples) / len(samples)
    small_threshold = ETHERNET_UDP_HEADER_BYTES + 160
    small_fraction = sum(1 for size in samples if size < small_threshold) / len(samples)
    rows: List[Dict[str, object]] = [
        {"packet_size_bytes": size, "cdf": round(cdf, 4)}
        for size, cdf in distribution.cdf_points()
    ]
    return {
        "rows": rows,
        "analytic_mean_bytes": round(distribution.mean(), 1),
        "sampled_mean_bytes": round(sampled_mean, 1),
        "fraction_below_160B_payload": round(small_fraction, 4),
        "split_eligible_fraction": round(split_eligible_fraction(distribution), 4),
        "paper_mean_bytes": 882,
        "paper_fraction_below_160B_payload": 0.30,
    }
