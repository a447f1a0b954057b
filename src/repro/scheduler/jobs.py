"""Shared campaign-job lifecycle: prepare, plan rounds, seal.

:class:`~repro.scheduler.scheduler.CampaignScheduler` (one shared pool,
in-process) and :class:`~repro.fleet.coordinator.FleetCoordinator`
(leases over HTTP, remote agents) dispatch the same unit of work and
must agree *exactly* on everything that happens around dispatch:

* how a spec becomes a job — build the campaign, create or resume the
  journal, recover prior records, replay or start the adaptive driver
  (:func:`prepare_job`);
* how an adaptive job grows — journal the plan row *before* any of the
  round's chunks may execute, then split the round into chunks
  (:func:`plan_adaptive` / :func:`advance_adaptive`);
* how a finished job seals — assemble the result from records, attach
  the sampling estimate, write the close record, close the journal, and
  count the campaign (``repro_campaigns_total`` and, for adaptive jobs,
  the ``repro_sampling_*`` counters) (:func:`seal_job`).

Keeping these in one place is what makes the fleet path byte-identical
to the pool path: both sides journal the same rows in the same shapes,
so a campaign finished by remote agents renders the same log, report
and result as one finished by the local pool.  Every durable job runs
this lifecycle: :func:`repro.store.execute_spec` and
:func:`repro.store.resume_run` are one-job scheduler runs.

The ``planner`` argument threaded through this module is any callable
``planner(indices) -> list_of_chunks``; callers typically bind it to
:meth:`~repro.beam.executor.CampaignExecutor.plan_chunks` with their
resolved worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.journal import JournalError
from repro.store.runner import _resolve_sampling, finalise_journal
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore, RunStatus

__all__ = [
    "PreparedJob",
    "prepare_job",
    "plan_adaptive",
    "advance_adaptive",
    "driver_settled",
    "seal_job",
]


@dataclass
class PreparedJob:
    """Everything a dispatcher needs to run one submitted spec.

    Attributes:
        spec: the submitted spec (with any priority override applied).
        run_id: its content-addressed id.
        campaign: the built campaign (serial backend — execution strategy
            is the dispatcher's concern, not the job's).
        journal: the open, appendable run journal.
        chunks: index chunks still to execute (adaptive jobs grow this
            list round by round via :func:`advance_adaptive`).
        prior: records recovered from a prior journal (resume).
        driver: the :class:`~repro.sampling.AdaptiveCampaign` for
            sampling jobs, else ``None``.
        cached: the stored result when the run was already complete
            (``reuse``); every other field except ``spec``/``run_id`` is
            then unset and nothing was opened.
        resumed: convenience — ``len(prior)`` (or the stored row count
            for cache hits).
    """

    spec: CampaignSpec
    run_id: str
    campaign: object = None
    journal: object = None
    chunks: list = field(default_factory=list)
    prior: list = field(default_factory=list)
    driver: object = None
    cached: object = None
    resumed: int = 0


def prepare_job(
    store: CampaignStore,
    spec: CampaignSpec,
    planner,
    *,
    sampling=None,
    reuse: bool = True,
) -> PreparedJob:
    """Turn a spec into a dispatchable :class:`PreparedJob`.

    A spec already complete in the store (with ``reuse``) returns a
    ``cached`` job without touching any journal.  An incomplete stored
    run is opened for resume — only missing indices are planned.  A
    stored journal holding ``plan`` rows always resumes adaptively under
    its journaled policy; ``sampling`` on a fresh spec starts (and
    journals) the first adaptive round before returning.
    """
    run_id = spec.run_id()
    stored = store.load(run_id) if store.has(run_id) else None
    if stored is not None and stored.status == RunStatus.COMPLETE and reuse:
        return PreparedJob(
            spec=spec, run_id=run_id,
            cached=stored.result(), resumed=len(stored.rows),
        )
    campaign = spec.build_campaign(backend="serial")
    if stored is None:
        journal = store.create_run(spec)
        done: set = set()
        prior: list = []
        plan_rows: list = []
    else:
        journal = store.open_run(run_id)  # drops any torn tail
        done = stored.done_indices()
        prior = stored.records()
        plan_rows = journal.records("plan")
    policy = _resolve_sampling(sampling)
    driver = None
    if plan_rows or (stored is None and policy is not None):
        driver, chunks = plan_adaptive(
            campaign, journal, policy, plan_rows, prior, planner
        )
    else:
        indices = [i for i in range(spec.n_faulty) if i not in done]
        chunks = planner(indices) if indices else []
    return PreparedJob(
        spec=spec, run_id=run_id, campaign=campaign, journal=journal,
        chunks=chunks, prior=prior, driver=driver, resumed=len(prior),
    )


def plan_adaptive(campaign, journal, policy, plan_rows, prior, planner):
    """Build (and replay) the adaptive driver for one prepared job.

    Returns ``(driver, chunks)``: either the in-progress round's missing
    indices (journal resume) or the freshly planned — and journaled —
    first round.  The journaled policy wins over the caller's, so a
    resumed run reproduces its own stopping decision.
    """
    from repro.sampling import AdaptiveCampaign, SamplingPolicy

    if plan_rows:
        journaled = plan_rows[0].get("policy")
        if journaled is None:
            raise JournalError(
                f"{journal.path}: first plan row carries no policy — "
                "journal predates the sampling format"
            )
        policy = SamplingPolicy.from_dict(journaled)
    driver = AdaptiveCampaign(campaign, policy)
    missing = (
        driver.replay(plan_rows, {record.index: record for record in prior})
        if plan_rows
        else []
    )
    if missing:
        indices = sorted(missing)
    else:
        plan = driver.next_round()
        if plan is None:  # replayed straight to a stopping decision
            return driver, []
        journal.append("plan", **plan.payload)
        journal.commit()
        indices = list(plan.indices)
    return driver, planner(indices)


def advance_adaptive(driver, journal, planner) -> list:
    """A sampling job's round completed: plan (and journal) the next.

    Returns the next round's chunks (``[]`` when the stopping rule
    fired).  The plan row is durable before any chunk is handed out —
    the same order :func:`plan_adaptive` enforces on resume.
    """
    plan = driver.next_round()
    if plan is None:
        return []  # stopping rule fired; seal_job takes it from here
    journal.append("plan", **plan.payload)
    journal.commit()
    return planner(list(plan.indices))


def driver_settled(driver) -> bool:
    """True when an adaptive driver has nothing outstanding to wait for.

    ``False`` while a round's records are still missing *or* while the
    driver was drained before its stopping rule fired (the journal is
    resumable, not sealable).  Fixed jobs (``driver is None``) are
    always settled — chunk accounting alone decides.
    """
    if driver is None:
        return True
    return driver.current_round is None and driver.stop_reason is not None


def seal_job(journal, campaign, prior, records, driver, *, metrics=None):
    """Seal a job whose every chunk is durable: close record + result.

    Returns ``(result, sampling_dict_or_None)``.  The journal is closed;
    callers must not append to it afterwards.  Callers are responsible
    for checking :func:`driver_settled` (and their own chunk accounting)
    first.  ``records`` are the ones this process committed; with a
    ``metrics`` registry the job is counted once, and an adaptive job's
    rounds and strikes count only the work behind ``records``.
    """
    sampling = sampled = None
    if driver is not None:
        all_records = driver.records()
        result = campaign.result_from_records(
            all_records, n_executions=len(all_records)
        )
        sampling = driver.estimate().to_dict()
        result.aux["sampling"] = sampling
        executed = {record.index for record in records}
        rounds = sum(
            1 for plan in driver.rounds
            if not executed.isdisjoint(plan.indices)
        )
        sampled = (rounds, len(records), driver.stop_reason)
    else:
        all_records = sorted(
            list(prior) + list(records), key=lambda record: record.index
        )
        result = campaign.result_from_records(all_records)
    finalise_journal(journal, result, sampling=sampling)
    journal.close()
    campaign.count_completion(
        "accelerated" if driver is None else "adaptive", metrics,
        sampled=sampled,
    )
    return result, sampling
