"""repro.service — the multi-tenant TPI-optimization sweep service.

An asyncio job-queue + HTTP service answering
:class:`~repro.api.OptimizationRequest` queries through the shared
experiment engine.  The layers, transport-independent first:

* :mod:`repro.service.quotas` — per-tenant token-bucket admission with
  ``429`` + ``Retry-After`` backpressure;
* :mod:`repro.service.warmcache` — the shared in-memory warm result
  store (admission policy + LRU eviction);
* :mod:`repro.service.jobs` — job lifecycle and the bounded job table;
* :mod:`repro.service.journal` — the durable job journal (fsynced
  JSONL WAL) behind crash recovery and idempotent resubmission;
* :mod:`repro.service.breaker` — the circuit breaker shedding load
  while the engine fails batches back to back;
* :mod:`repro.service.broker` — single-flight dedup and batching of
  compatible requests into one ``engine.map`` fan-out;
* :mod:`repro.service.server` — the HTTP/1.1 face
  (``POST /v1/optimize``, ``GET /v1/jobs/{id}``, ``GET /metrics``,
  ``GET /healthz``) plus hosting helpers;
* :mod:`repro.service.client` — a typed stdlib client;
* :mod:`repro.service.loadtest` — the load/SLO harness behind
  ``repro loadtest`` and the benchmark trajectory file.

Crash recovery, breaker shedding and journal corruption are checked by
``tests/test_service_robustness.py``.

Boot one with ``repro serve`` or, in process::

    from repro.service import ServiceConfig, ServiceThread
    with ServiceThread(engine, ServiceConfig(port=0)) as svc:
        client = ServiceClient(svc.url)
"""

from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.broker import SweepBroker
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobStore
from repro.service.journal import JobJournal, JournalReplay
from repro.service.loadtest import (
    LoadReport,
    SloPolicy,
    append_bench,
    run_loadtest,
)
from repro.service.quotas import QuotaPolicy, TenantQuotas
from repro.service.server import (
    ServiceConfig,
    ServiceThread,
    SweepService,
    run_service,
)
from repro.service.warmcache import WarmResultStore

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Job",
    "JobJournal",
    "JobStore",
    "JournalReplay",
    "LoadReport",
    "QuotaPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceThread",
    "SloPolicy",
    "SweepBroker",
    "SweepService",
    "TenantQuotas",
    "WarmResultStore",
    "append_bench",
    "run_loadtest",
    "run_service",
]
