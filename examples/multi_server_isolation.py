#!/usr/bin/env python3
"""Multi-tenant setup: several NF servers share one switch (§6.2.3).

The switch reserves ≈40 % of its stateful memory and slices it statically
between the NF servers on each pipe.  Each server has its own traffic
generator; this script reports per-server goodput and latency under both
deployments and checks that the gains are consistent across servers —
the performance-isolation property that static slicing buys.

Run with:

    python examples/multi_server_isolation.py [server_count]
"""

import sys

from repro.experiments.multi_server import per_server_rows, run_comparison
from repro.experiments.runner import ExperimentRunner
from repro.telemetry.report import render_table


def main() -> None:
    server_count = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(f"Running {server_count} NF servers (MAC swappers, 384-byte packets)...")
    result = run_comparison(
        server_count=server_count,
        send_rate_gbps=9.0,
        runner=ExperimentRunner(time_scale=0.75),
    )

    goodput = per_server_rows(
        result,
        ("baseline_goodput_gbps", "payloadpark_goodput_gbps", "goodput_gain_percent"),
    )
    latency = per_server_rows(
        result, ("baseline_latency_us", "payloadpark_latency_us", "latency_win_percent")
    )
    print()
    print("Per-server goodput (Fig. 10 shape):")
    print(render_table(goodput))
    print()
    print("Per-server latency (Fig. 11 shape):")
    print(render_table(latency))
    print()

    gains = [row["goodput_gain_percent"] for row in goodput]
    print(f"goodput gain spread across servers: min {min(gains):.1f}% / max {max(gains):.1f}%")
    aggregate = result.comparison
    print(f"aggregate premature evictions: {aggregate.payloadpark.premature_evictions} "
          f"(must be 0 for functional equivalence)")


if __name__ == "__main__":
    main()
