"""Multi-campaign scheduling: fair-share pooling, retries, graceful drain.

The operational layer above the store: where :mod:`repro.store` makes one
campaign durable, :mod:`repro.scheduler` runs *many* campaigns over one
shared worker pool the way the paper's beam host multiplexes boards under
one beam.

* :mod:`repro.scheduler.retry` — :class:`RetryPolicy`: bounded
  exponential backoff with seeded jitter;
* :mod:`repro.scheduler.lease` — :class:`ChunkLease`: the chunk-grant
  protocol (fencing token + deadline) shared by the in-process pool and
  the distributed fleet (:mod:`repro.fleet`);
* :mod:`repro.scheduler.jobs` — the job lifecycle both dispatchers
  share: :func:`prepare_job` / :func:`advance_adaptive` /
  :func:`seal_job`;
* :mod:`repro.scheduler.scheduler` — :class:`CampaignScheduler`:
  priority/fair-share chunk interleaving, per-chunk journaling, bounded
  retry of transient worker failures, and SIGINT-safe draining.

The CLI verb ``repro queue`` is a thin wrapper over this package.
"""

from repro.scheduler.jobs import (
    PreparedJob,
    advance_adaptive,
    driver_settled,
    prepare_job,
    seal_job,
)
from repro.scheduler.lease import NO_DEADLINE, ChunkLease
from repro.scheduler.retry import FAIL_FAST, RetryPolicy
from repro.scheduler.scheduler import (
    CampaignScheduler,
    JobOutcome,
    SchedulerTimeoutError,
)

__all__ = [
    "FAIL_FAST",
    "RetryPolicy",
    "CampaignScheduler",
    "JobOutcome",
    "SchedulerTimeoutError",
    "ChunkLease",
    "NO_DEADLINE",
    "PreparedJob",
    "prepare_job",
    "advance_adaptive",
    "driver_settled",
    "seal_job",
]
