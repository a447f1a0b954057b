"""Journaled campaign execution: run, crash, resume — bit-identically.

The write half of the store.  :func:`execute_spec` runs one campaign with
every completed chunk journaled and fsync'd; :func:`resume_run` restarts
an interrupted run from its journal's last durable record.  Both submit
their one spec to a :class:`~repro.scheduler.CampaignScheduler`, so a
single durable job lifecycle (:mod:`repro.scheduler.jobs`) serves them,
``repro queue``, the service and the fleet.  This module keeps the
durability primitives that lifecycle writes with
(:func:`journal_chunk_records`, :func:`finalise_journal`).

Three facts make the resumed output *bit-identical* to an uninterrupted
run:

1. every struck execution draws only from RNG streams derived from
   ``(seed, index)`` — records are a pure function of the spec and the
   index, independent of chunking and arrival order;
2. journal rows reuse the campaign-log serialisation
   (:func:`repro.beam.logs.record_to_row`), which round-trips exactly
   (raw array bytes), so a journaled record re-serialises byte-for-byte;
3. the final result is assembled by the same
   :meth:`~repro.beam.campaign.Campaign.result_from_records` arithmetic
   either way.

Records are committed in chunk order, so a journal lists them in index
order on every backend.  The golden kill-and-resume suite
(``tests/store/test_resume.py``) pins this across serial/thread/process
backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.beam.logs import record_to_row
from repro.observability import runtime as obs_runtime
from repro.store.journal import Journal, JournalError
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = [
    "RunOutcome",
    "execute_spec",
    "resume_run",
    "journal_chunk_records",
    "finalise_journal",
]

#: Corrupted-element cap for journaled rows — matches ``write_log``'s
#: default so journal rows and log rows are the same bytes.
JOURNAL_MAX_ELEMENTS = 4096


@dataclass
class RunOutcome:
    """What a journaled execution produced.

    Attributes:
        run_id: the store's content-addressed id for the spec.
        result: the (complete) campaign result.
        resumed: number of durable records reused from a prior journal.
        cached: the run was already complete in the store — nothing was
            simulated, the stored result was returned as-is.
    """

    run_id: str
    result: object
    resumed: int = 0
    cached: bool = False


def journal_chunk_records(
    journal: Journal, records, *, max_elements: int = JOURNAL_MAX_ELEMENTS
) -> int:
    """Append one chunk's records and fsync them as a single batch.

    The scheduler's durability unit: when this returns, the chunk
    survives a crash.  Returns the number of records made durable.
    """
    for record in records:
        journal.append(
            "record",
            index=record.index,
            row=record_to_row(record, max_elements=max_elements),
        )
    return journal.commit()


def journal_chunk_rows(journal: Journal, rows) -> int:
    """Append one chunk's *already serialised* rows as a single batch.

    The fleet coordinator's merge step: agents serialise records with
    :func:`~repro.beam.logs.record_to_row` (at :data:`JOURNAL_MAX_ELEMENTS`)
    and push the rows over the wire; committing them verbatim — rather
    than re-serialising reconstructed records — makes the journal
    byte-for-byte the agent's output.  The row → record → row round trip
    is exact (pinned by the log-format tests), so both choices agree;
    this one keeps the merge point honest.  Returns the number of rows
    made durable.
    """
    for row in rows:
        journal.append("record", index=row["index"], row=row)
    return journal.commit()


def finalise_journal(journal: Journal, result, *, sampling: "dict | None" = None) -> None:
    """Append + fsync the close record sealing a complete run.

    ``sampling`` (an adaptive run's
    :meth:`~repro.sampling.SamplingEstimate.to_dict`) rides in the close
    record so the calibrated pooled estimate survives alongside the raw
    records and reloads into ``CampaignResult.aux["sampling"]``.
    """
    counts = {kind.value: n for kind, n in result.counts().items()}
    payload = dict(
        status="complete",
        fluence=result.fluence,
        cross_section=result.cross_section,
        n_executions=result.n_executions,
        n_records=len(result.records),
        outcomes=counts,
    )
    if sampling is not None:
        payload["sampling"] = sampling
    journal.append("close", **payload)
    journal.commit()


def _resolve_sampling(sampling):
    """Normalise a sampling request (policy / wire dict / None)."""
    if sampling is None:
        return None
    from repro.sampling import SamplingPolicy

    if isinstance(sampling, SamplingPolicy):
        return sampling
    if isinstance(sampling, dict):
        return SamplingPolicy.from_dict(sampling)
    raise TypeError(
        f"sampling must be a SamplingPolicy or dict, not {type(sampling).__name__}"
    )


def execute_spec(
    store: CampaignStore,
    spec: CampaignSpec,
    *,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    timeout: "float | None" = None,
    backend: str = "auto",
    sampling=None,
    reuse: bool = True,
) -> RunOutcome:
    """Run a spec with durable journaling (resuming/deduping via the store).

    * no stored run → fresh journal, every chunk fsync'd as it lands;
    * stored but incomplete → resume from the last durable record;
    * stored and complete → content-addressed cache hit (with ``reuse``),
      returning the stored result without simulating anything.

    The spec runs as the only job of a
    :class:`~repro.scheduler.CampaignScheduler` — the same lifecycle
    ``repro queue`` and the service use — with retries off: a failed
    chunk raises its :class:`~repro.beam.executor.CampaignExecutionError`
    and leaves the journal resumable.

    ``sampling`` (a :class:`~repro.sampling.SamplingPolicy` or its wire
    dict) switches the run to adaptive importance sampling — like the
    worker count it is execution strategy, **not** spec identity, so the
    adaptive run shares its run id and journal with the fixed run of the
    same spec.  A journal that already holds ``plan``
    rows always resumes adaptively under its *journaled* policy; a fixed
    journal (records, no plan rows) always finishes as the fixed plan
    even when ``sampling`` is passed — switching strategies mid-journal
    would break the byte-identical resume guarantee.
    """
    from repro.scheduler.retry import FAIL_FAST
    from repro.scheduler.scheduler import CampaignScheduler

    scheduler = CampaignScheduler(
        store, workers=workers, chunk_size=chunk_size, backend=backend,
        timeout=timeout, retry=FAIL_FAST, reuse=reuse,
    )
    scheduler.submit(spec, sampling=sampling)
    (outcome,) = scheduler.run()
    if outcome.error is not None:
        raise outcome.error
    cached = outcome.status == "cached"
    _note_run("cached" if cached else "resumed" if outcome.resumed else "fresh")
    return RunOutcome(
        run_id=outcome.run_id, result=outcome.result,
        resumed=outcome.resumed, cached=cached,
    )


def resume_run(
    store: CampaignStore,
    run_id: str,
    *,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    timeout: "float | None" = None,
    backend: str = "auto",
    sampling=None,
) -> RunOutcome:
    """Resume a stored run by id (``repro resume <run-id>``).

    The journal header's spec rebuilds the campaign from the registries;
    already-durable records are skipped, the journal's torn tail (if the
    crash tore one) is dropped, and the finished journal is sealed with a
    close record.  Completing an already-complete run is a no-op cache
    hit.  An adaptive journal (one holding ``plan`` rows) resumes
    adaptively under its journaled policy regardless of ``sampling``.
    Past its header line the journal is scanned twice: once to load it,
    once to reopen it for append.
    """
    if not store.has(run_id):
        raise JournalError(
            f"no stored run {run_id!r} under {store.root} "
            f"(known: {', '.join(store.run_ids()) or 'none'})"
        )
    return execute_spec(
        store, store.spec_for(run_id), workers=workers,
        chunk_size=chunk_size, timeout=timeout, backend=backend,
        sampling=sampling,
    )


def _note_run(outcome: str) -> None:
    """Fold one store-run event into the observability switchboard."""
    metrics = obs_runtime.get_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_store_runs_total",
            "Journaled campaign runs, by how the store satisfied them",
            ("outcome",),
        ).inc(outcome=outcome)
