"""Durable job journal: a write-ahead log for the service's job table.

Every acked job used to live only in the in-memory
:class:`~repro.service.jobs.JobStore`, so a crashed or restarted server
silently lost all queued and running work.  :class:`JobJournal` fixes
that with an append-only JSONL file, each record
flushed and — for the records that carry durability — fsynced before the
write is acknowledged, so a server killed at any instant (including
SIGKILL, which runs no cleanup) can replay its admitted work.

Four record events cover the job lifecycle:

``admit``
    The durability point: written (and fsynced) *before* the client's
    POST is acknowledged, carrying everything needed to resurrect the
    job — id, tenant, cell key, the full request document and the
    client's ``Idempotency-Key`` if it sent one.
``running``
    A progress marker written when a batch picks the job up.  Flushed
    but **not** fsynced: losing it costs nothing (the job replays as
    queued and re-enters the batch loop), so the hot path does not pay
    an fsync per batch.
``done`` / ``failed``
    Terminal records (fsynced).  A job with one of these needs no
    recovery.

:meth:`JobJournal.replay` folds the file into the set of **incomplete**
jobs (admitted, no terminal record) plus the idempotency-key map, so a
restarted broker can resurrect exactly the work it acked but never
finished.  Recovery is idempotent by construction: resurrected jobs
re-enter the warm-store/single-flight ladder, and their cell keys are
re-derived from the replayed request under the *current* technology
fingerprint — a journal from before a recalibration resurrects the
question, never a stale answer.

A torn trailing line (the signature of a mid-append kill) is expected
and skipped; any unparseable or foreign-schema record is counted and
skipped with a warning rather than aborting the replay — a damaged
journal may cost recomputation, never correctness.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.api.types import OptimizationRequest
from repro.engine.cache import canonical_json
from repro.errors import ApiError
from repro.obs.metrics import metrics

#: Bump when the record layout changes; old records are ignored on load.
JOB_JOURNAL_SCHEMA_VERSION: int = 1

#: Events a journal record may carry, in lifecycle order.
JOB_JOURNAL_EVENTS: tuple[str, ...] = ("admit", "running", "done", "failed")

#: Events that terminate a job; an admitted job with none is incomplete.
_TERMINAL_EVENTS: frozenset[str] = frozenset({"done", "failed"})

_LOG = logging.getLogger("repro.service.journal")


@dataclass(frozen=True)
class JournaledJob:
    """One job reconstructed from the journal's ``admit`` record."""

    job_id: str
    tenant: str
    cell_key: str
    request: OptimizationRequest
    idempotency_key: str | None = None


@dataclass(frozen=True)
class JournalReplay:
    """Everything :meth:`JobJournal.replay` recovers from one file."""

    #: Jobs admitted but never finished, in admission order — the work
    #: a restarted broker must resurrect.
    incomplete: tuple[JournaledJob, ...]
    #: ``tenant:idempotency-key`` -> job id for every keyed admission.
    idempotency: dict[str, str]
    #: Parsed records (all events, duplicates included).
    n_records: int
    #: Jobs with a terminal record.
    n_complete: int
    #: Lines skipped as unparseable or malformed.
    n_corrupt: int


class JobJournal:
    """Append-only, fsynced write-ahead log of job state transitions."""

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync

    # -- appending ---------------------------------------------------------

    def _append(self, record: Mapping[str, Any], durable: bool) -> None:
        line = canonical_json(
            {"journal": JOB_JOURNAL_SCHEMA_VERSION, **record}
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            if durable and self.fsync:
                os.fsync(fh.fileno())
        metrics().counter(
            "repro_service_journal_records_total",
            "job-journal records appended",
        ).inc(event=str(record["event"]))

    def record_admit(
        self,
        job_id: str,
        tenant: str,
        cell_key: str,
        request: OptimizationRequest,
        idempotency_key: str | None = None,
    ) -> None:
        """Durably record one admission *before* it is acknowledged."""
        record: dict[str, Any] = {
            "event": "admit",
            "job_id": job_id,
            "tenant": tenant,
            "cell_key": cell_key,
            "request": request.to_dict(),
        }
        if idempotency_key is not None:
            record["idempotency_key"] = idempotency_key
        self._append(record, durable=True)

    def record_running(self, job_id: str) -> None:
        """Mark one job picked up by a batch (flushed, not fsynced)."""
        self._append({"event": "running", "job_id": job_id}, durable=False)

    def record_done(self, job_id: str, source: str) -> None:
        """Durably record one job's successful completion."""
        self._append(
            {"event": "done", "job_id": job_id, "source": source}, durable=True
        )

    def record_failed(self, job_id: str, error: str) -> None:
        """Durably record one job's terminal failure."""
        self._append(
            {"event": "failed", "job_id": job_id, "error": error}, durable=True
        )

    # -- replay ------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Fold the journal into the jobs a restarted broker must recover.

        A missing file is an empty journal.  Duplicate ``admit`` records
        for one job id (a resurrected job re-journaled by an earlier
        recovery) collapse to the first occurrence; any terminal record
        anywhere in the file completes the job.
        """
        admitted: dict[str, JournaledJob] = {}
        terminal: set[str] = set()
        idempotency: dict[str, str] = {}
        n_records = 0
        n_corrupt = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return JournalReplay((), {}, 0, 0, 0)
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                n_corrupt += 1
                _LOG.warning(
                    "%s:%d: skipping unparseable job-journal line "
                    "(torn write from a killed server?)",
                    self.path,
                    line_no,
                )
                continue
            if (
                not isinstance(record, dict)
                or record.get("journal") != JOB_JOURNAL_SCHEMA_VERSION
                or record.get("event") not in JOB_JOURNAL_EVENTS
                or not isinstance(record.get("job_id"), str)
            ):
                n_corrupt += 1
                _LOG.warning(
                    "%s:%d: skipping malformed job-journal record",
                    self.path,
                    line_no,
                )
                continue
            n_records += 1
            event = record["event"]
            job_id = record["job_id"]
            if event == "admit":
                job = self._job_from_admit(record, line_no)
                if job is None:
                    n_corrupt += 1
                    continue
                admitted.setdefault(job_id, job)
                if job.idempotency_key is not None:
                    idempotency[f"{job.tenant}:{job.idempotency_key}"] = job_id
            elif event in _TERMINAL_EVENTS:
                terminal.add(job_id)
        incomplete = tuple(
            job for job_id, job in admitted.items() if job_id not in terminal
        )
        if n_corrupt:
            metrics().counter(
                "repro_service_journal_corrupt_records_total",
                "job-journal lines skipped as torn or malformed on replay",
            ).inc(n_corrupt)
        return JournalReplay(
            incomplete=incomplete,
            idempotency=idempotency,
            n_records=n_records,
            n_complete=len(admitted.keys() & terminal),
            n_corrupt=n_corrupt,
        )

    def _job_from_admit(
        self, record: Mapping[str, Any], line_no: int
    ) -> JournaledJob | None:
        tenant = record.get("tenant")
        cell_key = record.get("cell_key")
        document = record.get("request")
        idem = record.get("idempotency_key")
        if (
            not isinstance(tenant, str)
            or not isinstance(cell_key, str)
            or not isinstance(document, Mapping)
            or not (idem is None or isinstance(idem, str))
        ):
            _LOG.warning(
                "%s:%d: skipping malformed admit record", self.path, line_no
            )
            return None
        try:
            request = OptimizationRequest.from_dict(document)
        except ApiError as exc:
            # A request the current schema rejects cannot be resurrected;
            # losing it is the documented cost of a damaged/ancient journal.
            _LOG.warning(
                "%s:%d: admit record no longer deserialises (%s); skipping",
                self.path,
                line_no,
                exc,
            )
            return None
        return JournaledJob(
            job_id=str(record["job_id"]),
            tenant=tenant,
            cell_key=cell_key,
            request=request,
            idempotency_key=idem,
        )
