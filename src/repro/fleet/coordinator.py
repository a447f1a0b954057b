"""The fleet coordinator: admits campaigns, leases chunks, merges results.

:class:`FleetCoordinator` is the scheduler's distributed sibling.  Both
run the same job lifecycle (:mod:`repro.scheduler.jobs`: prepare → plan
rounds → seal) over the same unit of work (a chunk of fault indices);
they differ only in *who executes*.  The scheduler owns a pool of
futures it can cancel; the coordinator owns nothing — remote agents
come and go — so every grant is a time-bounded
:class:`~repro.scheduler.lease.ChunkLease` and every write passes one
gate:

* **Single merge point.**  Only the coordinator appends to run
  journals.  A push is validated against the lease ledger
  (:class:`~repro.fleet.leases.LeaseTable`) — correct fencing token,
  exact index set, matching tally delta — then committed in one fsync'd
  batch.  A stale push (the lease expired and the chunk was regranted)
  gets a structured 409 upstream and journals nothing; a duplicate push
  (the ack was lost, the agent retried) is answered idempotently.
* **Failure costs one chunk.**  Expired leases are reaped on every
  grant request and on the service's periodic tick; their chunks go
  back to the *front* of the job's queue, so a SIGKILL'd agent delays a
  campaign by one lease ttl, not forever.
* **Adaptive rounds stay home.**  Agents only execute granted indices;
  :func:`~repro.scheduler.jobs.advance_adaptive` plans (and journals)
  the next round coordinator-side when a round's last push lands —
  exactly as the in-process scheduler does, so a fleet-run adaptive
  campaign makes the same stopping decision as a pool-run one.

Because execution is a pure function of ``(spec, index)``, the records
agents push are bit-identical to what the local pool would have
produced, and the sealed journal renders the same log and report.

All public methods are thread-safe (HTTP handler threads call them
concurrently); ``on_finish`` callbacks fire *outside* the lock so
callers may take their own locks in them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.beam.executor import CampaignExecutor, _ChunkResult, emit_chunk_observability
from repro.beam.logs import row_to_record
from repro.fleet.leases import LeaseError, LeaseTable
from repro.sampling.tallies import tally_of
from repro.scheduler.jobs import (
    advance_adaptive,
    driver_settled,
    prepare_job,
    seal_job,
)
from repro.store.runner import journal_chunk_rows
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = ["FleetCoordinator", "Admission", "PushError"]


class PushError(ValueError):
    """A push batch that contradicts its lease (bad indices / tally).

    Surfaces as a structured 400 — the lease stays active, because the
    *grant* is fine; the *batch* is what's wrong, and the agent may
    retry it corrected before the deadline.
    """


@dataclass
class Admission:
    """How :meth:`FleetCoordinator.admit` disposed of a spec.

    ``disposition`` is ``"queued"`` (chunks now leasable), ``"deduped"``
    (already admitted and unfinished), ``"cached"`` (store already held
    the complete run — ``result`` carries it), or ``"complete"`` (a
    resume needed no work and sealed on admission).
    """

    run_id: str
    disposition: str
    result: object = None


@dataclass
class _WorkerState:
    """What the coordinator knows about one agent."""

    name: str
    first_seen: float
    last_seen: float
    leases_granted: int = 0
    heartbeats: int = 0
    chunks_committed: int = 0
    records_pushed: int = 0
    pushes_rejected: int = 0

    def snapshot(self, now: float, ttl: float, active: list) -> dict:
        return {
            "name": self.name,
            "alive": (now - self.last_seen) <= 2 * ttl,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "idle_for": max(0.0, now - self.last_seen),
            "leases_granted": self.leases_granted,
            "heartbeats": self.heartbeats,
            "chunks_committed": self.chunks_committed,
            "records_pushed": self.records_pushed,
            "pushes_rejected": self.pushes_rejected,
            "active_leases": [lease.to_dict() for lease in active],
        }


class _FleetJob:
    """Coordinator-internal state of one admitted campaign."""

    def __init__(self, order, prepared):
        self.order = order
        self.spec = prepared.spec
        self.run_id = prepared.run_id
        self.campaign = prepared.campaign
        self.journal = prepared.journal
        self.chunks = prepared.chunks        # chunk_no -> indices (grows)
        self.prior = prepared.prior
        self.driver = prepared.driver
        self.pending = list(range(len(prepared.chunks)))  # chunk_nos to grant
        self.leased: dict = {}               # chunk_no -> lease_id
        self.records: list = []              # records committed this session
        self.granted = 0                     # grants, incl. regrants
        self.result = None
        self.error: "str | None" = None
        self.status = "running"
        self.started = time.time()

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def label(self) -> str:
        return self.spec.resolved_label()

    def has_work(self) -> bool:
        return self.status == "running" and bool(self.pending)


class FleetCoordinator:
    """Leases chunks to agents and merges their pushes (see module doc).

    Args:
        store: the campaign store every sealed run lands in.
        workers: nominal chunk-planning width (``None`` = auto) — how
            many chunks a round is split into, *not* a fleet size cap;
            any number of agents may pull.
        chunk_size: executions per lease (``None`` = auto).
        lease_ttl: seconds a lease lives without a heartbeat.
        reuse: serve specs already complete in the store as cache hits.
        metrics: a :class:`~repro.observability.MetricsRegistry` for the
            lease/fleet counters (``None`` = no metrics).
        tracer: a tracer for ``lease``/``chunk`` events (``None`` = no
            tracing).
        on_finish: callback ``(run_id, status, result, error)`` invoked
            outside the coordinator lock whenever a job reaches a
            terminal status.
        clock: epoch-seconds source (test hook; drives lease expiry).
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        lease_ttl: float = 15.0,
        reuse: bool = True,
        metrics=None,
        tracer=None,
        on_finish=None,
        clock=time.time,
    ):
        self.store = store
        self._executor = CampaignExecutor(
            workers=workers, chunk_size=chunk_size, backend="serial",
        )
        self.reuse = reuse
        self._metrics = metrics
        self._tracer = tracer
        self._on_finish = on_finish
        self._clock = clock
        self._lock = threading.RLock()
        self._leases = LeaseTable(ttl=lease_ttl, clock=clock)
        self._jobs: dict = {}        # run_id -> _FleetJob
        self._order = 0
        self._workers: dict = {}     # name -> _WorkerState
        self._draining = False
        self._closed = False
        if metrics is not None:
            self._grants = metrics.counter(
                "repro_lease_grants_total",
                "Chunk leases granted to fleet agents",
            )
            self._heartbeats = metrics.counter(
                "repro_lease_heartbeats_total",
                "Lease deadline extensions requested by agents",
            )
            self._expirations = metrics.counter(
                "repro_lease_expirations_total",
                "Leases reaped after missing their deadline",
            )
            self._reassignments = metrics.counter(
                "repro_lease_reassignments_total",
                "Chunks regranted after a previous lease was lost",
            )
            self._pushes = metrics.counter(
                "repro_fleet_pushes_total",
                "Result batches pushed by agents, by how they were met",
                ("disposition",),
            )
            self._fleet_records = metrics.counter(
                "repro_fleet_records_total",
                "Execution records committed through fleet pushes",
            )
            self._jobs_total = metrics.counter(
                "repro_fleet_jobs_total",
                "Fleet campaign jobs, by how they ended",
                ("outcome",),
            )
            self._alive_gauge = metrics.gauge(
                "repro_fleet_workers_alive",
                "Agents seen within two lease ttls",
            )
        else:
            self._grants = self._heartbeats = self._expirations = None
            self._reassignments = self._pushes = self._fleet_records = None
            self._jobs_total = self._alive_gauge = None

    @property
    def lease_ttl(self) -> float:
        return self._leases.ttl

    def _plan_job_chunks(self, indices) -> list:
        return self._executor.plan_chunks(
            indices, self._executor.resolved_workers()
        )

    # -- admission ----------------------------------------------------------------

    def admit(self, spec: CampaignSpec, *, sampling=None,
              priority: "int | None" = None) -> Admission:
        """Admit one spec; its chunks become leasable immediately.

        Same dedup/cache/resume semantics as
        :meth:`~repro.scheduler.scheduler.CampaignScheduler.submit`
        (both delegate to :func:`repro.scheduler.jobs.prepare_job`).
        """
        finished = None
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            if priority is not None:
                spec = spec.with_priority(priority)
            run_id = spec.run_id()
            job = self._jobs.get(run_id)
            if job is not None and job.status == "running":
                return Admission(run_id, "deduped")
            prepared = prepare_job(
                self.store, spec, self._plan_job_chunks,
                sampling=sampling, reuse=self.reuse,
            )
            if prepared.cached is not None:
                return Admission(run_id, "cached", prepared.cached)
            job = _FleetJob(self._order, prepared)
            self._order += 1
            self._jobs[run_id] = job
            # A resume that already holds every record seals on admission.
            if self._seal_if_done(job):
                finished = job
        if finished is not None:
            self._notify_finish(finished)
            return Admission(run_id, "complete", finished.result)
        return Admission(run_id, "queued")

    # -- the lease surface (what agents call) -------------------------------------

    def request_lease(self, worker: str) -> "dict | None":
        """Grant the next chunk to ``worker`` (fair-share), or ``None``.

        Expired leases are reaped first, so a dead agent's chunk is
        regrantable the moment anyone asks for work.  The wire payload
        carries the lease, the spec to build the campaign from, and the
        ttl the agent should heartbeat against.
        """
        with self._lock:
            now = self._touch(worker)
            self._reap_locked()
            if self._draining or self._closed:
                return None
            candidates = [
                job for job in self._jobs.values() if job.has_work()
            ]
            if not candidates:
                return None
            job = min(
                candidates,
                key=lambda j: (j.granted / j.priority, j.order),
            )
            chunk_no = job.pending.pop(0)
            lease = self._leases.grant(
                job.run_id, chunk_no, job.chunks[chunk_no], worker
            )
            job.leased[chunk_no] = lease.lease_id
            job.granted += 1
            state = self._workers[worker]
            state.leases_granted += 1
            if self._grants is not None:
                self._grants.inc()
            if lease.token > 1 and self._reassignments is not None:
                self._reassignments.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "lease", f"{job.label}/chunk{chunk_no}",
                    start=now, duration=0.0,
                    attrs={
                        "event": "grant", "run_id": job.run_id,
                        "lease_id": lease.lease_id, "token": lease.token,
                        "worker": worker, "n_indices": len(lease.indices),
                    },
                )
            payload = lease.to_dict()
            payload.update(
                spec=job.spec.to_dict(),
                label=job.label,
                ttl=self._leases.ttl,
            )
            return payload

    def heartbeat(self, lease_id: str, worker: str = "") -> dict:
        """Extend one lease's deadline; raises if it is gone."""
        with self._lock:
            if worker:
                state = self._workers.get(worker)
                if state is not None:
                    state.heartbeats += 1
                self._touch(worker)
            lease = self._leases.heartbeat(lease_id)
            if self._heartbeats is not None:
                self._heartbeats.inc()
            return {
                "lease_id": lease.lease_id,
                "deadline": lease.expired_at,
                "token": lease.token,
            }

    def push_results(self, lease_id: str, payload: dict,
                     worker: str = "") -> dict:
        """Commit one lease's result batch exactly once.

        ``payload`` is the agent's wire batch: ``records`` (a list of
        journal rows), optional fastpath/cache ``counters``, an optional
        ``tally`` delta (cross-checked against the received records),
        and optional chunk timing.  Raises
        :class:`~repro.fleet.leases.StaleLeaseError` /
        :class:`~repro.fleet.leases.UnknownLeaseError` for fenced-off or
        unknown grants and :class:`PushError` for batches that
        contradict their lease.
        """
        finished = None
        with self._lock:
            now = self._touch(worker) if worker else self._clock()
            settled = self._leases.settled(lease_id)
            if settled is not None:
                # The commit already happened; the ack was lost.  Answer
                # idempotently so agent-side transport retries are safe.
                job = self._jobs.get(settled.run_id)
                if self._pushes is not None:
                    self._pushes.inc(disposition="duplicate")
                return {
                    "committed": 0,
                    "duplicate": True,
                    "status": job.status if job is not None else "complete",
                }
            try:
                lease = self._leases.checkout(lease_id)
            except LeaseError:
                if worker and worker in self._workers:
                    self._workers[worker].pushes_rejected += 1
                if self._pushes is not None:
                    self._pushes.inc(disposition="stale")
                if self._tracer is not None:
                    self._tracer.emit(
                        "lease", f"push/{lease_id}",
                        start=now, duration=0.0,
                        attrs={"event": "fenced", "lease_id": lease_id,
                               "worker": worker},
                    )
                raise
            job = self._jobs.get(lease.run_id)
            if job is None or job.status != "running":
                status = job.status if job is not None else "unknown"
                raise PushError(
                    f"lease {lease_id!r} belongs to a job that is no "
                    f"longer running (status {status!r})"
                )
            rows, records = self._validate_batch(lease, payload)
            # The single merge point: one fsync'd batch, exactly once.
            journal_chunk_rows(job.journal, rows)
            self._leases.settle(lease_id)
            job.leased.pop(lease.chunk_no, None)
            job.records.extend(records)
            if worker and worker in self._workers:
                state = self._workers[worker]
                state.chunks_committed += 1
                state.records_pushed += len(records)
            if self._pushes is not None:
                self._pushes.inc(disposition="committed")
            if self._fleet_records is not None:
                self._fleet_records.inc(len(records))
            self._emit_chunk(job, lease, records, payload, worker)
            if job.driver is not None and records:
                if job.driver.ingest(records):
                    new_chunks = advance_adaptive(
                        job.driver, job.journal, self._plan_job_chunks
                    )
                    base = len(job.chunks)
                    job.chunks.extend(new_chunks)
                    job.pending.extend(range(base, base + len(new_chunks)))
            if self._seal_if_done(job):
                finished = job
            answer = {
                "committed": len(records),
                "duplicate": False,
                "status": job.status,
            }
        if finished is not None:
            self._notify_finish(finished)
        return answer

    def _validate_batch(self, lease, payload):
        """Check a pushed batch against its lease; return (rows, records)."""
        rows = payload.get("records")
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) and "index" in row for row in rows
        ):
            raise PushError(
                "push body must carry 'records': a list of journal rows"
            )
        pushed = sorted(int(row["index"]) for row in rows)
        expected = sorted(lease.indices)
        if pushed != expected:
            raise PushError(
                f"push for lease {lease.lease_id!r} covers indices "
                f"{pushed} but the lease grants {expected}"
            )
        try:
            records = [row_to_record(row) for row in rows]
        except Exception as exc:
            raise PushError(
                f"push for lease {lease.lease_id!r} carries a row that "
                f"does not decode: {type(exc).__name__}: {exc}"
            ) from None
        claimed = payload.get("tally")
        if claimed is not None:
            actual = tally_of(records).as_row()
            if list(claimed) != actual:
                raise PushError(
                    f"push for lease {lease.lease_id!r} claims tally "
                    f"{list(claimed)} but its records fold to {actual}"
                )
        return rows, records

    def _emit_chunk(self, job, lease, records, payload, worker) -> None:
        """Fold the agent's counters into the shared registry, once."""
        counters = payload.get("counters") or {}

        def _count(name):
            try:
                return int(counters.get(name, 0))
            except (TypeError, ValueError):
                return 0

        result = _ChunkResult(
            records=records,
            start=float(payload.get("start") or 0.0),
            duration=float(payload.get("duration") or 0.0),
            worker=worker or lease.worker,
            cache_hits=_count("cache_hits"),
            cache_misses=_count("cache_misses"),
            fastpath_hits=_count("fastpath_hits"),
            fastpath_fallbacks=_count("fastpath_fallbacks"),
        )
        emit_chunk_observability(
            self._tracer, self._metrics, job.campaign.kernel,
            job.campaign.device, "fleet", lease.chunk_no, result,
            extra_attrs={
                "label": job.label, "run_id": job.run_id,
                "worker": worker or lease.worker,
                "lease_id": lease.lease_id, "token": lease.token,
            },
        )

    # -- coordinator-side upkeep --------------------------------------------------

    def tick(self) -> int:
        """Periodic upkeep: reap expired leases.  Returns how many."""
        with self._lock:
            return len(self._reap_locked())

    def _reap_locked(self) -> list:
        reaped = self._leases.reap()
        for lease in reaped:
            job = self._jobs.get(lease.run_id)
            if self._expirations is not None:
                self._expirations.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "lease", f"expire/{lease.lease_id}",
                    start=self._clock(), duration=0.0,
                    attrs={
                        "event": "expired", "run_id": lease.run_id,
                        "lease_id": lease.lease_id, "token": lease.token,
                        "worker": lease.worker, "chunk": lease.chunk_no,
                    },
                )
            if job is None or job.status != "running":
                continue
            if job.leased.get(lease.chunk_no) == lease.lease_id:
                del job.leased[lease.chunk_no]
                # Front of the queue: a lost chunk is the oldest work.
                job.pending.insert(0, lease.chunk_no)
        self._update_liveness()
        return reaped

    def _touch(self, worker: str) -> float:
        now = self._clock()
        state = self._workers.get(worker)
        if state is None:
            self._workers[worker] = _WorkerState(
                name=worker, first_seen=now, last_seen=now
            )
        else:
            state.last_seen = now
        self._update_liveness(now)
        return now

    def _update_liveness(self, now: "float | None" = None) -> None:
        if self._alive_gauge is None:
            return
        now = self._clock() if now is None else now
        window = 2 * self._leases.ttl
        alive = sum(
            1 for state in self._workers.values()
            if (now - state.last_seen) <= window
        )
        self._alive_gauge.set(alive)

    def _seal_if_done(self, job) -> bool:
        """Seal a job whose every chunk is committed (under the lock)."""
        if job.status != "running":
            return False
        if job.pending or job.leased:
            return False
        if not driver_settled(job.driver):
            return False
        result, _ = seal_job(
            job.journal, job.campaign, job.prior, job.records, job.driver,
            metrics=self._metrics,
        )
        job.result = result
        job.status = "complete"
        if self._jobs_total is not None:
            self._jobs_total.inc(outcome="complete")
        if self._tracer is not None:
            self._tracer.emit(
                "job", job.label,
                start=job.started, duration=time.time() - job.started,
                attrs={
                    "run_id": job.run_id, "status": "complete",
                    "priority": job.priority, "resumed": len(job.prior),
                    "n_records": result.n_executions, "dispatch": "fleet",
                },
            )
        return True

    def _notify_finish(self, job) -> None:
        if self._on_finish is not None:
            self._on_finish(job.run_id, job.status, job.result, job.error)

    # -- drain / shutdown ---------------------------------------------------------

    def request_drain(self) -> None:
        """Stop granting leases; in-flight pushes are still accepted."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> list:
        """Tear everything down; unfinished jobs end ``interrupted``.

        Their journals are valid and resumable — re-admitting the spec
        (or restarting the service with ``resume_incomplete``) picks up
        exactly where the fleet left off.  Returns the interrupted run
        ids.
        """
        interrupted = []
        with self._lock:
            if self._closed:
                return []
            self._draining = True
            self._closed = True
            for lease in self._leases.active():
                self._leases.revoke(lease.lease_id, "revoked")
            for job in self._jobs.values():
                if job.status != "running":
                    continue
                job.status = "interrupted"
                job.journal.close()
                interrupted.append(job.run_id)
                if self._jobs_total is not None:
                    self._jobs_total.inc(outcome="interrupted")
        for run_id in interrupted:
            job = self._jobs[run_id]
            self._notify_finish(job)
        return interrupted

    # -- introspection ------------------------------------------------------------

    def job_status(self, run_id: str) -> "str | None":
        with self._lock:
            job = self._jobs.get(run_id)
            return None if job is None else job.status

    def snapshot(self) -> dict:
        """The ``GET /v1/workers`` payload: fleet state at a glance."""
        with self._lock:
            now = self._clock()
            workers = [
                state.snapshot(
                    now, self._leases.ttl, self._leases.active_for(name)
                )
                for name, state in sorted(self._workers.items())
            ]
            jobs = {
                job.run_id: {
                    "label": job.label,
                    "status": job.status,
                    "chunks": len(job.chunks),
                    "pending": len(job.pending),
                    "leased": len(job.leased),
                    "committed": len(job.records),
                    "resumed": len(job.prior),
                }
                for job in self._jobs.values()
            }
            return {
                "fleet": True,
                "draining": self._draining,
                "lease_ttl": self._leases.ttl,
                "workers": workers,
                "leases": self._leases.counts(),
                "jobs": jobs,
            }
