"""Robustness substrate: validation, invariants, fault injection.

The headline numbers of the reproduction are only as trustworthy as the
simulator's failure behaviour.  This package makes failures *loud and
typed* instead of silent or hanging:

* :mod:`repro.robustness.validate` — pre-simulation validation of
  configurations, register assignments, machine programs, and traces;
* :mod:`repro.robustness.invariants` — the opt-in per-cycle invariant
  checker behind ``ProcessorConfig.self_check`` (observes, never perturbs);
* :mod:`repro.robustness.faultinject` — composable fault injectors used
  by the test matrix to prove every fault surfaces as a typed
  :class:`~repro.errors.ReproError`.

PR 3 adds the *resilient sweep orchestration* layer on top:

* :mod:`repro.robustness.retry` — deterministic seeded retry policy and
  transient/permanent failure classification;
* :mod:`repro.robustness.journal` — append-only JSONL run journal behind
  ``--resume`` (crash-safe sweeps, bit-identical resumed tables);
* :mod:`repro.robustness.replay` — self-contained replay bundles and the
  ``repro replay`` verifier (imported lazily: it needs the experiments
  layer, which imports this package);
* :mod:`repro.robustness.chaos` — the seeded chaos soak harness behind
  ``repro chaos`` (also lazily imported);
* :mod:`repro.robustness.atomicio` — atomic, fsync'd file writes shared
  by the journal, bundles, and exported reports.
"""

from repro.robustness.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.robustness.faultinject import (
    DropPendingEvents,
    DropTransferEntry,
    DuplicateTransferEntry,
    FaultPlan,
    FaultSpec,
    StuckFunctionalUnit,
    corrupt_operand,
    truncate_trace,
)
from repro.robustness.faultinject import WORKER_FAULT_KINDS
from repro.robustness.journal import (
    JournalEntry,
    MergeReport,
    RunJournal,
    merge_journals,
    options_fingerprint,
    parse_journal_line,
    shard_journal_paths,
    workload_fingerprint,
)
from repro.robustness.retry import (
    AttemptRecord,
    RetryOutcome,
    RetryPolicy,
    backoff_schedule,
    classify_error,
    run_with_retry,
)
from repro.robustness.invariants import InvariantChecker
from repro.robustness.validate import (
    validate_assignment,
    validate_trace_length,
    validate_config,
    validate_machine_program,
    validate_run,
    validate_trace,
)

__all__ = [
    "DropPendingEvents",
    "DropTransferEntry",
    "DuplicateTransferEntry",
    "FaultPlan",
    "FaultSpec",
    "StuckFunctionalUnit",
    "corrupt_operand",
    "truncate_trace",
    "InvariantChecker",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "JournalEntry",
    "MergeReport",
    "RunJournal",
    "WORKER_FAULT_KINDS",
    "merge_journals",
    "options_fingerprint",
    "parse_journal_line",
    "shard_journal_paths",
    "workload_fingerprint",
    "AttemptRecord",
    "RetryOutcome",
    "RetryPolicy",
    "backoff_schedule",
    "classify_error",
    "run_with_retry",
    "validate_assignment",
    "validate_config",
    "validate_machine_program",
    "validate_run",
    "validate_trace",
    "validate_trace_length",
]
