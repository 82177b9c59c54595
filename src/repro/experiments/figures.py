"""The figure registry: every ``repro run <name>`` experiment, declared once.

:data:`FIGURES` is the only list of the evaluation's experiments —
``repro list``, ``repro run`` (text and ``--json``), the README table
and the golden cases are all checked against it.  Importing it loads
all fourteen experiment modules, so :mod:`repro.experiments` itself
does not: campaign workers and the perf ledger import the runner
without paying for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

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
    functional_equivalence,
    table1_resources,
)
from repro.telemetry.report import render_table


def _field_lines(result) -> str:
    """A mapping's scalar entries, one ``key: value`` line each."""
    return "\n".join(
        f"{key}: {value}" for key, value in result.items() if key != "rows"
    )


def _fig07_epilogue(_rows) -> str:
    row = fig07_goodput_latency.run_40ge_fw_nat()
    return "\n".join(
        ["", "§6.2.1 — FW -> NAT on OpenNetVM, 40 GbE NIC", render_table([row])]
    )


def _average_line(label: str, column: str, paper: str) -> Callable[[list], str]:
    def epilogue(rows) -> str:
        average = sum(row[column] for row in rows) / len(rows)
        return f"average {label}: {average:.2f}% (paper: {paper}%)"

    return epilogue


@dataclass(frozen=True)
class Figure:
    """One experiment of the evaluation.

    Attributes
    ----------
    summary:
        The experiment's ``repro list`` line.
    title:
        First line ``repro run`` prints.
    run:
        The experiment module's ``run``; called without arguments it
        reproduces the figure and returns the JSON-serializable result:
        a list of row dicts, or a mapping (with its table under
        ``"rows"``, if it has one).
    epilogue:
        What ``repro run`` prints below the result table, for the
        experiments that print more than one table; called with the
        result inside the run's options, so it may simulate.
    """

    summary: str
    title: str
    run: Callable[..., object]
    epilogue: Optional[Callable[[object], str]] = None

    def render(self, result) -> str:
        """The text ``repro run`` prints for *result* (what :attr:`run` returned)."""
        rows = result.get("rows") if isinstance(result, dict) else result
        body = _field_lines(result) if rows is None else render_table(rows)
        parts = [self.title, body]
        if self.epilogue is not None:
            parts.append(self.epilogue(result))
        return "\n".join(parts)


FIGURES: Dict[str, Figure] = {
    "fig06": Figure(
        "Enterprise packet-size CDF",
        "Fig. 6 — enterprise datacenter packet-size distribution (CDF)",
        fig06_packet_size_cdf.run,
        _field_lines,
    ),
    "fig07": Figure(
        "Goodput/latency vs. rate, FW->NAT->LB, 10GbE",
        "Fig. 7 — FW -> NAT -> LB on NetBricks, 10 GbE NIC",
        fig07_goodput_latency.run,
        _fig07_epilogue,
    ),
    "fig08": Figure(
        "Goodput vs. fixed packet size, 40GbE",
        "Fig. 8 — goodput with fixed packet sizes (40 GbE, OpenNetVM)",
        fig08_fixed_sizes.run,
    ),
    "fig09": Figure(
        "PCIe bandwidth vs. packet size",
        "Fig. 9 — PCIe bandwidth utilization with fixed packet sizes",
        fig09_pcie.run,
    ),
    "fig10": Figure(
        "Per-server goodput, 8 NF servers",
        "Fig. 10 — per-server goodput, 8 NF servers, 384-byte packets",
        fig10_multi_server.run,
        _average_line("goodput gain", "goodput_gain_percent", "31.22"),
    ),
    "fig11": Figure(
        "Per-server latency, 8 NF servers",
        "Fig. 11 — per-server latency, 8 NF servers, 384-byte packets",
        fig11_multi_server_latency.run,
        _average_line("latency win", "latency_win_percent", "9.4"),
    ),
    "fig12": Figure(
        "Eviction policies vs. Explicit Drops",
        "Fig. 12 — goodput with/without Explicit Drops (FW -> NAT, enterprise mix)",
        fig12_explicit_drops.run,
    ),
    "fig13": Figure(
        "Recirculation (384 parked bytes)",
        "Fig. 13 — recirculation (384 parked bytes), FW -> NAT -> LB, 10 GbE",
        fig13_recirculation.run,
    ),
    "fig14": Figure(
        "Peak goodput vs. reserved memory",
        "Fig. 14 — peak goodput vs. reserved switch memory (384-byte packets, EXP=1)",
        fig14_memory_sweep.run,
    ),
    "fig15": Figure(
        "NF CPU cost vs. benefit",
        "Fig. 15 — goodput with NF-Light / NF-Medium / NF-Heavy",
        fig15_nf_cycles.run,
    ),
    "fig16": Figure(
        "512-byte packets, FW->NAT, 40GbE",
        "Fig. 16 — 512-byte packets, FW -> NAT, 40 GbE NIC",
        fig16_small_packets.run,
    ),
    "table1": Figure(
        "Switch resource utilization",
        "Table 1 — resource utilization on the simulated ASIC",
        table1_resources.run,
    ),
    "equivalence": Figure(
        "Functional equivalence check (§6.2.6)",
        "§6.2.6 — functional equivalence (MAC-swapping NF, enterprise mix)",
        functional_equivalence.run,
    ),
    "chaos": Figure(
        "Fault profiles vs. static run (repro-original)",
        "Chaos suite: FW->NAT->LB + enterprise mix under fault profiles",
        chaos.run,
    ),
}
