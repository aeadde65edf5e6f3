"""Layout verification: invariants, differential execution, watchdogs.

The paper's premise (Sec. 3) is that reordering ``.text``/``.svm_heap`` is
semantics-preserving; this package is the machinery that *proves* it for
every build instead of assuming it:

* :mod:`repro.validation.invariants` — structural checks over the laid-out
  sections (placement, alignment, overlap, bounds, permutation-invariant
  sizes, reference resolvability) producing a typed
  :class:`LayoutVerificationReport`;
* :mod:`repro.validation.differential` — the execution oracle: baseline and
  optimized binaries must behave identically; any divergence is a layout
  bug, never a perf artifact;
* :mod:`repro.validation.watchdog` — step/deadline budgets around workload
  runs so a pathological layout or hung benchmark is reported, not wedged;
* :mod:`repro.validation.mutate` — seeded layout mutations that the checker
  must catch (test matrix, CI fuzz, CLI demo);
* :mod:`repro.validation.quarantine` + :mod:`repro.validation.oracle` —
  conviction plumbing: a failed verification quarantines the ordering
  profile and rolls the build back to the default layout, surfacing through
  :class:`repro.robustness.degradation.DegradationReport` and the
  ``repro verify`` CLI subcommand.
"""

from .differential import (
    CallCountRecorder,
    DifferentialReport,
    Divergence,
    ObservedRun,
    run_differential,
)
from .invariants import (
    ALL_VIOLATION_CODES,
    LayoutVerificationError,
    LayoutVerificationReport,
    LayoutViolation,
    verify_layout,
)
from .mutate import (
    ALL_MUTATION_KINDS,
    EXPECTED_VIOLATIONS,
    LayoutMutation,
    LayoutMutationPlan,
    LayoutMutator,
    restore_layout,
    snapshot_layout,
)
from .oracle import VerificationOutcome, VerificationPolicy, verify_strategy
from .quarantine import QuarantineEntry, QuarantineRegistry
from .watchdog import (
    WatchdogBudget,
    WatchdogReport,
    call_with_deadline,
    run_with_watchdog,
)

__all__ = [
    "CallCountRecorder", "DifferentialReport", "Divergence", "ObservedRun",
    "run_differential",
    "ALL_VIOLATION_CODES", "LayoutVerificationError",
    "LayoutVerificationReport", "LayoutViolation", "verify_layout",
    "ALL_MUTATION_KINDS", "EXPECTED_VIOLATIONS", "LayoutMutation",
    "LayoutMutationPlan", "LayoutMutator", "restore_layout", "snapshot_layout",
    "VerificationOutcome", "VerificationPolicy", "verify_strategy",
    "QuarantineEntry", "QuarantineRegistry",
    "WatchdogBudget", "WatchdogReport", "call_with_deadline",
    "run_with_watchdog",
]
