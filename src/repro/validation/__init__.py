"""Validation subsystem: invariants, metamorphic relations, fuzzing.

Three layers, each usable on its own:

* the **invariant engine** (:mod:`~repro.validation.invariants`,
  :mod:`~repro.validation.engine`) attaches machine-checked correctness
  conditions — packet conservation, goodput bounds, latency causality,
  register bounds, parking-slot leak detection — to any simulation run
  via the experiment runner's observer hook;
* the **metamorphic layer** (:mod:`~repro.validation.metamorphic`)
  checks relations across paired runs: fast-vs-slow-path equality at
  arbitrary operating points, seed determinism, time-scale invariance
  and workload-rate monotonicity;
* the **differential fuzzer** (:mod:`~repro.validation.fuzzer`,
  :mod:`~repro.validation.corpus`) generates seeded random scenarios
  from the campaign registries, checks them, shrinks failures to
  minimal repros and persists them in a replayable corpus.

CLI: ``repro validate run|fuzz|replay``.  Campaigns opt in with
``validate: true`` in their spec file.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.validation.corpus": (
            "DEFAULT_CORPUS_DIR",
            "corpus_entries",
            "load_entry",
            "replay_corpus",
            "replay_entry",
            "run_spec_from_entry",
            "validate_entry_names",
            "write_entry",
        ),
        "repro.validation.engine": ("ValidationObserver", "ValidationReport", "check_scenario"),
        "repro.validation.fuzzer": (
            "FuzzFailure",
            "FuzzResult",
            "check_run",
            "descriptor_size",
            "fuzz",
            "generate_run",
            "parse_budget",
            "shrink",
        ),
        "repro.validation.invariants": (
            "DEFAULT_INVARIANTS",
            "GoodputBound",
            "Invariant",
            "LatencyCausality",
            "NfStateConsistency",
            "NoOrphanedPayload",
            "PacketConservation",
            "ParkingSlotLeak",
            "RegisterBounds",
            "RetransmitAccounting",
            "RunObservation",
            "Violation",
        ),
        "repro.validation.metamorphic": (
            "DEFAULT_RELATION_NAMES",
            "RELATION_REGISTRY",
            "FastSlowEquivalence",
            "MetamorphicRelation",
            "RateMonotonicity",
            "SeedDeterminism",
            "TimeScaleInvariance",
            "build_relations",
            "comparison_metrics",
        ),
    },
)
