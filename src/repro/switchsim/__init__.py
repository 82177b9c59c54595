"""RMT switch simulator substrate.

The paper's prototype runs on a Barefoot Tofino: a Reconfigurable
Match-Action Table (RMT) ASIC whose pipeline is a fixed sequence of
stages, each with local SRAM (register arrays for stateful memory), TCAM,
VLIW action slots, and match crossbars, fed by a programmable parser and
drained by a deparser.  This subpackage models that architecture closely
enough that the PayloadPark program in :mod:`repro.core` can be expressed
as match-action tables and register arrays subject to the same
restrictions as the hardware:

* one stateful (register) access per register array per packet pass,
* a bounded number of stages per pipe,
* per-stage SRAM / TCAM / VLIW / crossbar budgets,
* per-pipe isolation of stateful memory (ports only see their pipe), and
* recirculation as the only way to get more stages per packet.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.switchsim.asic": ("TofinoAsic", "AsicConfig"),
        "repro.switchsim.context": ("PipelinePacket",),
        "repro.switchsim.mat": ("MatchActionTable",),
        "repro.switchsim.parser": ("Parser", "Deparser"),
        "repro.switchsim.pipe": ("Pipe",),
        "repro.switchsim.pipeline": ("Pipeline",),
        "repro.switchsim.registers": ("RegisterArray", "RegisterAccessError"),
        "repro.switchsim.resources": ("ResourceBudget", "ResourceReport", "StageResources"),
        "repro.switchsim.stage": ("Stage",),
    },
)
