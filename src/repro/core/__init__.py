"""PayloadPark: the paper's primary contribution.

The core package implements the PayloadPark dataplane program — the
Split and Merge operations of Algorithms 1 and 2, the packet tagger, the
lookup table (metadata + payload register arrays), the payload evictor,
Explicit Drops and the monitoring counters — on top of the RMT switch
substrate in :mod:`repro.switchsim`, plus the baseline L2-forwarding
program used for comparison throughout the evaluation.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("PayloadParkConfig", "NfServerBinding"),
        "repro.core.header": ("PayloadParkHeader", "OP_MERGE", "OP_EXPLICIT_DROP"),
        "repro.core.counters": ("PayloadParkCounters",),
        "repro.core.lookup_table": ("LookupTable", "MetadataEntry"),
        "repro.core.tagger": ("PacketTagger",),
        "repro.core.program": ("PayloadParkProgram", "BaselineProgram", "SwitchProgram"),
    },
)
