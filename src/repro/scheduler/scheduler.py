"""Multi-campaign scheduler: N queued campaigns, one shared worker pool.

The paper's beam sessions multiplex several boards under one beam: each
board runs its own code, the host interleaves their I/O, and losing one
board must not lose the session.  :class:`CampaignScheduler` is the
simulator-side analogue for *campaigns*:

* **Fair-share interleaving.**  Submitted specs are split into worker
  chunks (via :meth:`~repro.beam.executor.CampaignExecutor.plan_chunks`)
  and dispatched over one shared pool.  The next chunk always comes from
  the job with the smallest ``dispatched / priority`` ratio (ties broken
  by submit order), so equal-priority campaigns interleave chunk-for-chunk
  and a priority-2 campaign gets twice the share of a priority-1 one.
* **Durability per chunk, in chunk order.**  Every completed chunk is
  appended to the job's store journal and fsync'd as one batch, so
  anything the scheduler ran is resumable.  A job's chunks are committed
  in chunk order: one that finishes early waits until every chunk before
  it is durable, so the journal lists records in index order on every
  backend.  :func:`repro.store.execute_spec` and
  :func:`repro.store.resume_run` are one-job runs of this scheduler.
* **Backend choice.**  The pool backend and width come from
  :meth:`~repro.beam.executor.CampaignExecutor.resolved_backend` over the
  strikes queued at :meth:`CampaignScheduler.run`: one worker, a single
  chunk or fewer than ``MIN_PARALLEL_STRIKES`` strikes run inline, with
  no pool and no shared-memory golden export.
* **Bounded retry with backoff.**  A chunk whose worker fails is
  re-dispatched up to :attr:`RetryPolicy.max_retries` times, waiting an
  exponentially growing, jittered delay between attempts; only then does
  the failure surface as a :class:`~repro.beam.executor.
  CampaignExecutionError` on the job (other jobs keep running).
* **Graceful drain.**  :meth:`request_drain` (or SIGINT, when
  ``run(install_signal_handler=True)``) stops new dispatches; in-flight
  chunks finish and are journaled, then ``run`` returns with unfinished
  jobs marked ``interrupted`` — their journals are valid and resumable.

Observability rides the PR 2 switchboard: chunk spans carry the job's
``label`` and ``run_id`` (so interleaving is visible span by span),
retries emit ``retry`` events and ``repro_retries_total``, and each job
lands a ``job`` span plus ``repro_scheduler_jobs_total{outcome}``.
"""

from __future__ import annotations

import heapq
import itertools
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field

from repro.beam.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    ChunkWorkerError,
    _run_chunk,
    default_timeout,
    emit_chunk_observability,
)
from repro.observability import runtime as obs_runtime
from repro.scheduler.jobs import (
    advance_adaptive,
    driver_settled,
    prepare_job,
    seal_job,
)
from repro.scheduler.lease import ChunkLease
from repro.scheduler.retry import RetryPolicy
from repro.store.runner import journal_chunk_records
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = ["CampaignScheduler", "JobOutcome", "SchedulerTimeoutError"]


class SchedulerTimeoutError(RuntimeError):
    """The scheduler did not drain its queue within its timeout."""


@dataclass
class JobOutcome:
    """How one submitted campaign ended up.

    Attributes:
        run_id: the store's content-addressed id for the spec.
        label: the campaign's display label.
        status: ``"complete"`` (ran to the close record), ``"cached"``
            (store already held the finished run), ``"failed"`` (a chunk
            exhausted its retries), or ``"interrupted"`` (drained before
            finishing — the journal is resumable).
        result: the :class:`~repro.beam.campaign.CampaignResult` for
            complete/cached jobs, else ``None``.
        error: the surfaced :class:`CampaignExecutionError` for failed
            jobs, else ``None``.
        resumed: durable records reused from a prior journal.
        retries: chunk re-dispatches this run performed for the job.
        backoff: the delays (seconds) actually waited before retries,
            in order — the schedule tests pin.
    """

    run_id: str
    label: str
    status: str
    result: object = None
    error: "CampaignExecutionError | None" = None
    resumed: int = 0
    retries: int = 0
    backoff: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status in ("complete", "cached")


@dataclass
class _Task:
    """One dispatchable unit: a chunk of one job, under an in-process lease.

    The pool path uses the same :class:`~repro.scheduler.lease.ChunkLease`
    protocol as the fleet coordinator, with an infinite deadline (a pool
    worker cannot outlive its future, so leases never expire) — the
    fencing token still advances on every re-dispatch, mirroring the
    remote contract.
    """

    job: "_Job"
    lease: ChunkLease
    attempt: int = 0  # failures so far

    @property
    def chunk_no(self) -> int:
        return self.lease.chunk_no

    @property
    def indices(self) -> list:
        return list(self.lease.indices)


class _Job:
    """Scheduler-internal state of one submitted campaign."""

    def __init__(self, order, spec, run_id, campaign, journal, chunks, prior,
                 driver=None):
        self.order = order              # submit order (fair-share tiebreak)
        self.spec = spec
        self.run_id = run_id
        self.campaign = campaign
        self.journal = journal
        self.chunks = chunks            # index chunks still to dispatch
        self.prior = prior              # records resumed from the journal
        self.driver = driver            # AdaptiveCampaign for sampling jobs
        self._tokens: dict = {}         # chunk_no -> last fencing token
        self.next_chunk = 0
        self.dispatched = 0             # chunks submitted (incl. retries)
        self.records = []               # records committed this session
        self.landed: dict = {}          # chunk_no -> records awaiting commit
        self.next_commit = 0            # first chunk not yet committed
        self.retries = 0
        self.backoff: list = []         # delays waited, in order
        self.failed: "CampaignExecutionError | None" = None
        self.result = None
        self.status = "running"
        self.started = time.time()

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def label(self) -> str:
        return self.spec.resolved_label()

    def has_work(self) -> bool:
        """Has undispatched chunks (and is still eligible to run)."""
        return self.failed is None and self.next_chunk < len(self.chunks)

    def grant(self, chunk_no: int) -> ChunkLease:
        """Grant (or regrant, with a bumped token) one chunk's lease."""
        token = self._tokens.get(chunk_no, 0) + 1
        self._tokens[chunk_no] = token
        return ChunkLease(
            lease_id=f"{self.run_id[:12]}:{chunk_no}:{token}",
            run_id=self.run_id,
            chunk_no=chunk_no,
            indices=tuple(self.chunks[chunk_no]),
            token=token,
        )

    def outcome(self) -> JobOutcome:
        return JobOutcome(
            run_id=self.run_id,
            label=self.label,
            status=self.status,
            result=self.result,
            error=self.failed,
            resumed=len(self.prior),
            retries=self.retries,
            backoff=tuple(self.backoff),
        )


class CampaignScheduler:
    """Runs queued campaign specs over one shared pool (see module doc).

    Args:
        store: the campaign store journaling every run (and answering
            dedup/resume lookups).
        workers: shared pool size (``None``/``0`` = auto).
        chunk_size: executions per dispatched chunk (``None`` = auto).
        backend: ``"auto"``/``"process"``/``"thread"``/``"serial"``;
            resolved per :meth:`run` exactly as the executor resolves it
            (``"serial"`` — or a run too small to pool — runs chunks
            inline).
        timeout: wall-clock bound on one :meth:`run` (``None`` = the
            ``REPRO_POOL_TIMEOUT`` environment default).
        retry: the transient-failure policy (default
            :class:`RetryPolicy`).
        reuse: serve specs already complete in the store as cache hits.
        seed: seeds the jitter stream, making backoff schedules
            reproducible.
        chunk_runner: test hook replacing the worker entry point
            (signature of :func:`repro.beam.executor._run_chunk`); must
            be picklable for the process backend.
        sleep: test hook replacing :func:`time.sleep` for backoff waits.
        clock: test hook replacing :func:`time.monotonic`.
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        backend: str = "auto",
        timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        reuse: bool = True,
        seed: int = 0,
        chunk_runner=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.store = store
        self._executor = CampaignExecutor(
            workers=workers, chunk_size=chunk_size, backend=backend,
            timeout=timeout,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.reuse = reuse
        self._jitter = random.Random(seed)
        self._chunk_runner = chunk_runner if chunk_runner is not None else _run_chunk
        self._sleep = sleep
        self._clock = clock
        self._queue: list = []          # _Job | JobOutcome (cache hits)
        self._retry_heap: list = []     # (ready_at, seq, _Task)
        self._retry_seq = itertools.count()
        self._draining = False

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        spec: CampaignSpec,
        *,
        priority: "int | None" = None,
        sampling=None,
    ) -> str:
        """Queue one campaign spec; returns its content-addressed run id.

        Submitting a spec whose run id is already queued is a no-op
        (content-addressed dedup); a spec already *complete* in the store
        becomes an immediate ``cached`` outcome (with ``reuse``); an
        incomplete stored run is queued as a resume — only the missing
        indices are dispatched.

        ``sampling`` (a :class:`~repro.sampling.SamplingPolicy` or wire
        dict) queues the job in adaptive importance-sampled mode: rounds
        are planned as prior rounds' chunks land, and the job seals when
        its stopping rule fires instead of when ``n_faulty`` strikes are
        done.  Like the worker count the policy is execution
        strategy, not spec identity.  A stored journal holding ``plan``
        rows always resumes adaptively under its journaled policy; a
        stored fixed journal always finishes fixed even when ``sampling``
        is passed (see :func:`repro.store.runner.execute_spec`).
        """
        if priority is not None:
            spec = spec.with_priority(priority)
        run_id = spec.run_id()
        for entry in self._queue:
            if entry.run_id == run_id:
                return run_id
        prepared = prepare_job(
            self.store, spec, self._plan_job_chunks,
            sampling=sampling, reuse=self.reuse,
        )
        if prepared.cached is not None:
            self._queue.append(
                JobOutcome(
                    run_id=run_id,
                    label=spec.resolved_label(),
                    status="cached",
                    result=prepared.cached,
                    resumed=prepared.resumed,
                )
            )
            return run_id
        self._queue.append(
            _Job(
                order=len(self._queue), spec=spec, run_id=run_id,
                campaign=prepared.campaign, journal=prepared.journal,
                chunks=prepared.chunks, prior=prepared.prior,
                driver=prepared.driver,
            )
        )
        return run_id

    def _plan_job_chunks(self, indices) -> list:
        """The ``planner`` bound for :mod:`repro.scheduler.jobs` helpers."""
        return self._executor.plan_chunks(
            indices, self._executor.resolved_workers()
        )

    @property
    def pending(self) -> int:
        """Jobs queued and not yet resolved by a :meth:`run`."""
        return sum(1 for entry in self._queue if isinstance(entry, _Job))

    # -- drain --------------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop dispatching; in-flight chunks finish and are journaled."""
        self._draining = True

    def _on_sigint(self, signum, frame) -> None:  # pragma: no cover - thin
        self.request_drain()

    # -- the dispatch loop --------------------------------------------------------

    def run(self, *, install_signal_handler: bool = False) -> list:
        """Drain the queue; returns one :class:`JobOutcome` per submit.

        With ``install_signal_handler`` the scheduler traps SIGINT for
        the duration of the run: the first interrupt requests a graceful
        drain instead of unwinding the loop, so every journal is left
        valid and resumable.  The previous handler is restored on exit.
        """
        tracer = obs_runtime.get_tracer()
        metrics = obs_runtime.get_metrics()
        progress = obs_runtime.get_progress()
        instrument = tracer is not None or metrics is not None
        timeout = (
            self._executor.timeout
            if self._executor.timeout is not None
            else default_timeout()
        )
        deadline = None if timeout is None else self._clock() + timeout

        jobs = [entry for entry in self._queue if isinstance(entry, _Job)]
        total = sum(
            sum(len(chunk) for chunk in job.chunks) for job in jobs
        )
        workers = self._executor.resolved_workers()
        backend = self._executor.resolved_backend(total, workers)
        if backend != "serial":
            workers = min(workers, sum(len(job.chunks) for job in jobs))
            if workers <= 1:
                backend = "serial"
        slots = 1 if backend == "serial" else workers
        completed = 0
        queue_gauge = (
            metrics.gauge(
                "repro_scheduler_queue_depth",
                "Campaign jobs queued or running in the scheduler",
            )
            if metrics is not None
            else None
        )

        pool = None
        export = None
        if backend != "serial":
            # One export covers every queued campaign's kernel.
            export = CampaignExecutor._export_shared_golden(
                backend, [job.campaign.kernel for job in jobs]
            )
            pool = CampaignExecutor._make_pool(
                backend, workers,
                payload=export.payload if export is not None else None,
            )
        previous_handler = None
        handler_installed = False
        if install_signal_handler:
            try:
                previous_handler = signal.signal(signal.SIGINT, self._on_sigint)
                handler_installed = True
            except ValueError:  # not the main thread: run un-trapped
                handler_installed = False

        inflight: dict = {}
        try:
            # Resumes that already hold every record (the crash hit after
            # the last chunk but before the close) finish without work.
            for job in jobs:
                self._maybe_finish(job, tracer, metrics)
            while True:
                now = self._clock()
                if deadline is not None and now >= deadline:
                    raise SchedulerTimeoutError(
                        f"scheduler ({backend}, {slots} slots) did not "
                        f"drain {self.pending} jobs within {timeout:g}s"
                    )
                while len(inflight) < slots and not self._draining:
                    task = self._next_task(now)
                    if task is None:
                        break
                    future = self._submit_task(pool, task, instrument)
                    inflight[future] = task
                if queue_gauge is not None:
                    queue_gauge.set(self.pending)
                if not inflight:
                    if self._draining:
                        break
                    if self._retry_heap:
                        ready_at = self._retry_heap[0][0]
                        self._sleep(max(0.0, ready_at - self._clock()))
                        continue
                    break
                done, _ = wait(
                    set(inflight),
                    timeout=self._tick(deadline, progress),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = inflight.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        if not isinstance(exc, Exception):
                            raise exc
                        self._chunk_failed(
                            task, exc, backend, tracer, metrics
                        )
                    else:
                        completed += self._chunk_succeeded(
                            task, future.result(), backend, tracer, metrics
                        )
                if progress is not None and done:
                    # Adaptive jobs grow their chunk list round by round,
                    # so the total is recomputed rather than cached.
                    total = sum(
                        sum(len(chunk) for chunk in job.chunks) for job in jobs
                    )
                    progress.update(completed, total=total)
        finally:
            if handler_installed:
                signal.signal(signal.SIGINT, previous_handler)
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if export is not None:
                export.close()
            for job in jobs:
                if job.status == "running":
                    job.status = "interrupted"
                job.journal.close()
            self._retry_heap.clear()

        outcomes = [
            entry if isinstance(entry, JobOutcome) else entry.outcome()
            for entry in self._queue
        ]
        self._queue = []
        self._draining = False
        if metrics is not None:
            jobs_total = metrics.counter(
                "repro_scheduler_jobs_total",
                "Scheduled campaign jobs, by how they ended",
                ("outcome",),
            )
            for outcome in outcomes:
                jobs_total.inc(outcome=outcome.status)
        if queue_gauge is not None:
            queue_gauge.set(0)
        return outcomes

    # -- dispatch policy ----------------------------------------------------------

    def _next_task(self, now: float) -> "_Task | None":
        """The next chunk to dispatch: due retries first, then fair share."""
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            if task.job.failed is not None:
                continue
            task.job.dispatched += 1
            # A re-dispatch is a new grant: bump the fencing token.
            task.lease = task.job.grant(task.chunk_no)
            return task
        candidates = [job for job in self._queue
                      if isinstance(job, _Job) and job.has_work()]
        if not candidates:
            return None
        job = min(
            candidates,
            key=lambda j: (j.dispatched / j.priority, j.order),
        )
        chunk_no = job.next_chunk
        job.next_chunk += 1
        job.dispatched += 1
        return _Task(job=job, lease=job.grant(chunk_no))

    def _submit_task(self, pool, task: _Task, instrument: bool) -> Future:
        job = task.job
        args = (
            job.campaign.kernel,
            job.campaign.device,
            job.spec.seed,
            job.campaign.threshold_pct,
            task.indices,
            instrument,
        )
        if pool is None:  # serial backend: run inline, wrap as a future
            future: Future = Future()
            try:
                future.set_result(self._chunk_runner(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future
        return pool.submit(self._chunk_runner, *args)

    def _tick(self, deadline, progress) -> "float | None":
        """Bound one wait round: overall deadline, next retry, progress."""
        tick = None
        if deadline is not None:
            tick = max(0.001, deadline - self._clock())
        if self._retry_heap:
            ready = max(0.001, self._retry_heap[0][0] - self._clock())
            tick = ready if tick is None else min(tick, ready)
        if progress is not None and progress.interval > 0:
            tick = progress.interval if tick is None else min(tick, progress.interval)
        return tick

    # -- completion paths ---------------------------------------------------------

    def _chunk_succeeded(
        self, task: _Task, result, backend, tracer, metrics
    ) -> int:
        job = task.job
        emit_chunk_observability(
            tracer, metrics, job.campaign.kernel, job.campaign.device,
            backend, task.chunk_no, result,
            extra_attrs={"label": job.label, "run_id": job.run_id},
        )
        job.landed[task.chunk_no] = result.records
        while job.next_commit in job.landed:
            records = job.landed.pop(job.next_commit)
            job.next_commit += 1
            journal_chunk_records(job.journal, records)
            job.records.extend(records)
            if job.driver is not None and records:
                if job.driver.ingest(records):
                    self._advance_adaptive(job)
        self._maybe_finish(job, tracer, metrics)
        return len(result.records)

    def _advance_adaptive(self, job: _Job) -> None:
        """A sampling job's round completed: plan (and journal) the next.

        During a drain no new round starts — the job ends
        ``interrupted`` with every completed round durable, and a resume
        replans from the journal.
        """
        if self._draining or job.failed is not None:
            return
        job.chunks.extend(
            advance_adaptive(job.driver, job.journal, self._plan_job_chunks)
        )

    def _chunk_failed(
        self, task: _Task, exc: Exception, backend, tracer, metrics
    ) -> None:
        job = task.job
        if job.failed is not None:
            return  # the job already surfaced another chunk's failure
        task.attempt += 1
        if not self._draining and task.attempt <= self.retry.max_retries:
            delay = self.retry.delay(task.attempt, self._jitter)
            heapq.heappush(
                self._retry_heap,
                (self._clock() + delay, next(self._retry_seq), task),
            )
            job.retries += 1
            job.backoff.append(delay)
            if metrics is not None:
                metrics.counter(
                    "repro_retries_total",
                    "Chunk retries after transient worker failures",
                    ("label",),
                ).inc(label=job.label)
            if tracer is not None:
                tracer.emit(
                    "retry",
                    f"{job.label}/chunk{task.chunk_no}",
                    start=time.time(),
                    duration=0.0,
                    attrs={
                        "run_id": job.run_id,
                        "chunk": task.chunk_no,
                        "attempt": task.attempt,
                        "delay": delay,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            return
        if self._draining:
            return  # drained mid-retry: job ends "interrupted", resumable
        if isinstance(exc, ChunkWorkerError):
            error = CampaignExecutionError.wrap(
                exc, label=job.label, backend=backend,
                chunk=task.chunk_no, indices=task.indices,
            )
        elif isinstance(exc, CampaignExecutionError):
            error = exc
        else:
            first = task.indices[0] if task.indices else -1
            error = CampaignExecutionError(
                f"campaign {job.label!r} ({backend} backend) chunk "
                f"{task.chunk_no} failed after {task.attempt} attempts: "
                f"{type(exc).__name__}: {exc}",
                index=first, label=job.label, backend=backend,
                chunk=task.chunk_no,
            )
        job.failed = error
        job.status = "failed"

    def _maybe_finish(self, job: _Job, tracer, metrics) -> None:
        """Seal a job whose every chunk is durable: close record + span."""
        if job.status != "running" or job.failed is not None:
            return
        if job.next_commit < len(job.chunks):
            return  # a chunk is undispatched, in flight, waiting or lost
        if not driver_settled(job.driver):
            return  # round outstanding, or drained before the stopping rule
        result, _ = seal_job(
            job.journal, job.campaign, job.prior, job.records, job.driver,
            metrics=metrics,
        )
        job.result = result
        job.status = "complete"
        if tracer is not None:
            counts = {kind.value: n for kind, n in result.counts().items()}
            attrs = {
                "run_id": job.run_id,
                "status": "complete",
                "priority": job.priority,
                "retries": job.retries,
                "resumed": len(job.prior),
                "n_records": len(result.records),
                "outcomes": counts,
            }
            if job.driver is not None:
                attrs["sampling_rounds"] = len(job.driver.rounds)
                attrs["sampling_stop"] = job.driver.stop_reason
            tracer.emit(
                "job",
                job.label,
                start=job.started,
                duration=time.time() - job.started,
                attrs=attrs,
            )
