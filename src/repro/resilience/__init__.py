"""repro.resilience — fault tolerance for the experiment engine.

The paper's premise is graceful adaptation under changing conditions;
this package gives the *experiment engine* the same property.  Three
cooperating layers:

:mod:`repro.resilience.policy`
    :class:`RetryPolicy` — attempt budgets, capped exponential backoff
    with deterministic jitter, per-chunk timeouts, and the pool-respawn
    budget that gates serial fallback.
:mod:`repro.resilience.executor`
    :class:`ResilientExecutor` — runs cell chunks to completion through
    worker crashes (``BrokenProcessPool`` → respawn + re-queue), hangs
    (timeout → pool kill), transient exceptions (backoff + retry) and,
    past the respawn budget, graceful degradation to serial execution.
:mod:`repro.resilience.faults`
    :class:`FaultPlan` / :class:`FaultEvent` — deterministic fault
    injection (worker crashes, hangs, transient exceptions) and
    :func:`corrupt_cache_entry`, used by ``tests/test_resilience.py``
    to prove each recovery path.

Every recovery action is surfaced through :mod:`repro.obs` — span
events plus ``repro_engine_retries_total``-family counters — and the
retry policy keys off the typed taxonomy in :mod:`repro.errors`
(:class:`~repro.errors.TransientError` retries,
:class:`~repro.errors.FatalError` escalates,
:class:`~repro.errors.CacheCorruptionError` quarantines).

See ``docs/resilience.md`` for the failure semantics and the fault
taxonomy.
"""

from repro.resilience.executor import (
    ExecutionReport,
    ResilientExecutor,
)
from repro.resilience.faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    corrupt_cache_entry,
    evaluate_chunk_with_faults,
)
from repro.resilience.policy import RetryPolicy

__all__ = [
    "CRASH_EXIT_CODE",
    "ExecutionReport",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ResilientExecutor",
    "RetryPolicy",
    "corrupt_cache_entry",
    "evaluate_chunk_with_faults",
]
