"""In-process coordinator tests: exactly-once merging under churn.

These drive :class:`~repro.fleet.FleetCoordinator` directly with a fake
clock — no HTTP, no subprocesses — and play the part of the agents by
executing granted leases with the same chunk runner the real agent uses.
The invariants pinned here are the fleet's whole value proposition:

* a fleet-run campaign's sealed log is **byte-identical** to a
  single-pool run of the same spec;
* an expired lease's chunk is regranted and the old holder's late push
  is **fenced off** with nothing journaled;
* a duplicate push (lost ack, agent retried) is answered idempotently;
* batches that contradict their lease are rejected with the lease left
  active.
"""

import base64
import json

import numpy as np
import pytest

from repro.beam.executor import _run_chunk
from repro.beam.logs import log_lines, record_to_row
from repro.fleet import (
    AgentConfig,
    FleetAgent,
    FleetCoordinator,
    PushError,
    StaleLeaseError,
)
from repro.observability import MetricsRegistry
from repro.sampling import tally_of
from repro.store import CampaignSpec, CampaignStore, execute_spec
from repro.store.runner import JOURNAL_MAX_ELEMENTS

from tests.fleet.conftest import TINY_SPEC

pytestmark = pytest.mark.fleet


class Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_coordinator(tmp_path, clock, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("chunk_size", 2)
    overrides.setdefault("lease_ttl", 10.0)
    store = CampaignStore(tmp_path / "fleet-store")
    return FleetCoordinator(store, clock=clock, **overrides)


_campaigns = {}


def execute_lease(lease):
    """Play the agent: run the granted indices, build the wire batch."""
    spec = CampaignSpec.from_dict(lease["spec"])
    key = spec.run_id()
    campaign = _campaigns.get(key)
    if campaign is None:
        campaign = _campaigns.setdefault(key, spec.build_campaign(backend="serial"))
    result = _run_chunk(
        campaign.kernel, campaign.device, spec.seed,
        campaign.threshold_pct, list(lease["indices"]),
    )
    return {
        "worker": lease["worker"],
        "token": lease["token"],
        "records": [
            record_to_row(r, max_elements=JOURNAL_MAX_ELEMENTS)
            for r in result.records
        ],
        "tally": tally_of(result.records).as_row(),
        "counters": {
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "fastpath_hits": result.fastpath_hits,
            "fastpath_fallbacks": result.fastpath_fallbacks,
        },
        "start": result.start,
        "duration": result.duration,
    }


def drain_fleet(coordinator, worker="w1"):
    """Pull-execute-push until the coordinator runs out of work."""
    pushed = 0
    while True:
        lease = coordinator.request_lease(worker)
        if lease is None:
            return pushed
        coordinator.push_results(
            lease["lease_id"], execute_lease(lease), worker=worker
        )
        pushed += 1


def reference_lines(tmp_path, spec_dict, sampling=None):
    outcome = execute_spec(
        CampaignStore(tmp_path / "ref-store"),
        CampaignSpec.from_dict(dict(spec_dict)),
        workers=2, chunk_size=2, timeout=None, backend="serial",
        sampling=sampling, reuse=True,
    )
    return log_lines(outcome.result)


# -- the happy path -----------------------------------------------------------------


def test_fleet_run_byte_identical_to_pool_run(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    assert admission.disposition == "queued"
    drain_fleet(coordinator)
    job_result = coordinator._jobs[admission.run_id].result
    assert coordinator.job_status(admission.run_id) == "complete"
    assert log_lines(job_result) == reference_lines(tmp_path, TINY_SPEC)


class OlderCoordinatorClient:
    """An in-process client for a coordinator that still advertises the
    retired ``fast_path``/``batch`` strategy switches in its leases."""

    def __init__(self, coordinator):
        self.coordinator = coordinator

    def request_lease(self, worker):
        lease = self.coordinator.request_lease(worker)
        if lease is not None:
            lease.update(fast_path=False, batch=False)
        return lease

    def lease_heartbeat(self, lease_id, worker):
        return self.coordinator.heartbeat(lease_id, worker)

    def push_results(self, lease_id, payload):
        return self.coordinator.push_results(
            lease_id, payload, worker=payload["worker"]
        )


def test_agent_ignores_retired_strategy_keys_in_a_lease(tmp_path):
    coordinator = make_coordinator(tmp_path, Clock())
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    agent = FleetAgent(
        AgentConfig(name="w-old", idle_exit=0.0),
        client=OlderCoordinatorClient(coordinator), sleep=lambda _: None,
    )
    stats = agent.run()
    assert stats.chunks >= 2 and stats.leases_lost == 0
    assert coordinator.job_status(admission.run_id) == "complete"
    # The committed rows are the local pool run's, byte for byte.
    local = CampaignStore(tmp_path / "local")
    execute_spec(
        local, CampaignSpec.from_dict(dict(TINY_SPEC)), backend="serial",
    )
    assert json.dumps(coordinator.store.load(admission.run_id).rows) == (
        json.dumps(local.load(admission.run_id).rows)
    )
    job_result = coordinator._jobs[admission.run_id].result
    assert log_lines(job_result) == reference_lines(tmp_path, TINY_SPEC)


def test_two_workers_share_one_campaign(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    committed = {"w1": 0, "w2": 0}
    worker = "w1"
    while True:
        lease = coordinator.request_lease(worker)
        if lease is None:
            break
        coordinator.push_results(
            lease["lease_id"], execute_lease(lease), worker=worker
        )
        committed[worker] += 1
        worker = "w2" if worker == "w1" else "w1"
    assert committed["w1"] >= 1 and committed["w2"] >= 1
    snapshot = coordinator.snapshot()
    assert {w["name"] for w in snapshot["workers"]} == {"w1", "w2"}
    assert snapshot["leases"]["lost"] == 0


def test_cached_admission_skips_the_fleet(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    execute_spec(
        coordinator.store, CampaignSpec.from_dict(dict(TINY_SPEC)),
        workers=2, chunk_size=2, timeout=None, backend="serial",
        sampling=None, reuse=True,
    )
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    assert admission.disposition == "cached"
    assert admission.result is not None
    assert coordinator.request_lease("w1") is None


def test_running_admission_deduped(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    spec = CampaignSpec.from_dict(dict(TINY_SPEC))
    assert coordinator.admit(spec).disposition == "queued"
    assert coordinator.admit(spec).disposition == "deduped"


# -- expiry, reassignment, fencing --------------------------------------------------


def test_expired_lease_reassigned_and_stale_push_fenced(tmp_path):
    clock = Clock()
    metrics = MetricsRegistry()
    coordinator = make_coordinator(
        tmp_path, clock, lease_ttl=10.0, metrics=metrics
    )
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))

    doomed = coordinator.request_lease("dead-agent")
    doomed_batch = execute_lease(doomed)  # work done, but the push is late
    clock.advance(coordinator.lease_ttl + 1.0)

    # The next grant request reaps the expired lease and regrants its
    # chunk — to the front of the queue, with a bumped fencing token.
    regrant = coordinator.request_lease("w2")
    assert regrant["chunk_no"] == doomed["chunk_no"]
    assert regrant["token"] == doomed["token"] + 1
    assert metrics.get("repro_lease_reassignments_total").total() == 1
    assert metrics.get("repro_lease_expirations_total").total() == 1

    # The dead agent comes back and pushes: structured fencing rejection,
    # nothing journaled.
    with pytest.raises(StaleLeaseError) as exc:
        coordinator.push_results(
            doomed["lease_id"], doomed_batch, worker="dead-agent"
        )
    assert exc.value.reason == "expired"
    assert exc.value.current_token == regrant["token"]

    # The new holder commits; the campaign completes; every index appears
    # exactly once and the log matches the single-pool reference.
    coordinator.push_results(regrant["lease_id"], execute_lease(regrant), worker="w2")
    drain_fleet(coordinator, "w2")
    result = coordinator._jobs[admission.run_id].result
    lines = log_lines(result)
    indices = [json.loads(line)["index"] for line in lines[1:]]
    assert sorted(indices) == list(range(TINY_SPEC["n_faulty"]))
    assert len(indices) == len(set(indices))
    assert lines == reference_lines(tmp_path, TINY_SPEC)
    assert metrics.get("repro_fleet_pushes_total").value(disposition="stale") == 1


def test_slow_but_alive_worker_keeps_unreaped_chunk(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("slow")
    batch = execute_lease(lease)
    clock.advance(coordinator.lease_ttl + 1.0)
    # Expiry is lazy: nobody asked for work, so the push still lands.
    answer = coordinator.push_results(lease["lease_id"], batch, worker="slow")
    assert answer["committed"] == len(lease["indices"])


def test_heartbeat_keeps_lease_alive_across_reaps(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    for _ in range(3):
        clock.advance(coordinator.lease_ttl / 2)
        coordinator.heartbeat(lease["lease_id"], worker="w1")
        assert coordinator.tick() == 0
    answer = coordinator.push_results(
        lease["lease_id"], execute_lease(lease), worker="w1"
    )
    assert answer["committed"] == len(lease["indices"])


def test_duplicate_push_answered_idempotently(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    first = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert first["committed"] == len(lease["indices"])
    assert not first["duplicate"]
    retry = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert retry == {"committed": 0, "duplicate": True, "status": "running"}


# -- batch validation ---------------------------------------------------------------


def test_push_with_wrong_indices_rejected_lease_survives(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    truncated = dict(batch, records=batch["records"][:-1], tally=None)
    with pytest.raises(PushError):
        coordinator.push_results(lease["lease_id"], truncated, worker="w1")
    # The grant is fine — only the batch was bad; a corrected retry lands.
    answer = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert answer["committed"] == len(lease["indices"])


def test_push_with_lying_tally_rejected(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    lying = dict(batch, tally=[999, 0, 0, 0, 0])
    with pytest.raises(PushError, match="tally"):
        coordinator.push_results(lease["lease_id"], lying, worker="w1")


def test_push_without_records_rejected(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    with pytest.raises(PushError, match="records"):
        coordinator.push_results(lease["lease_id"], {"token": 1}, worker="w1")


def _as_format_1(row):
    """The row an older agent (log format 1) pushes for the same record."""
    report = dict(row["report"])
    for key in ("read", "expected"):
        values = np.frombuffer(base64.b64decode(report[key]), "<f8")
        report[key] = [float(v).hex() for v in values]
    indices = np.frombuffer(base64.b64decode(report["indices"]), "<i8")
    report["indices"] = indices.reshape(-1, len(report["shape"])).tolist()
    return dict(row, report=report)


def test_push_with_format_1_row_rejected_never_committed(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    while True:
        lease = coordinator.request_lease("w1")
        assert lease is not None, "no lease carried an SDC row"
        batch = execute_lease(lease)
        if any("report" in row for row in batch["records"]):
            break
        coordinator.push_results(lease["lease_id"], batch, worker="w1")
    old = dict(batch, records=[
        _as_format_1(row) if "report" in row else row
        for row in batch["records"]
    ])
    with pytest.raises(PushError, match=lease["lease_id"]):
        coordinator.push_results(lease["lease_id"], old, worker="w1")
    store = CampaignStore(tmp_path / "fleet-store")
    durable = store.load(admission.run_id).done_indices()
    assert not durable & set(lease["indices"])
    # The lease survives: the same chunk in the current format lands.
    answer = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert answer["committed"] == len(lease["indices"])


# -- drain / close ------------------------------------------------------------------


def test_drain_stops_grants_but_accepts_pushes(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    coordinator.request_drain()
    assert coordinator.request_lease("w1") is None
    answer = coordinator.push_results(
        lease["lease_id"], execute_lease(lease), worker="w1"
    )
    assert answer["committed"] == len(lease["indices"])


def test_close_interrupts_and_resume_completes(tmp_path):
    clock = Clock()
    store_path = tmp_path / "shared"
    coordinator = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2,
        lease_ttl=10.0, clock=clock,
    )
    spec = CampaignSpec.from_dict(dict(TINY_SPEC))
    admission = coordinator.admit(spec)
    lease = coordinator.request_lease("w1")
    coordinator.push_results(lease["lease_id"], execute_lease(lease), worker="w1")
    interrupted = coordinator.close()
    assert interrupted == [admission.run_id]
    with pytest.raises(RuntimeError):
        coordinator.admit(spec)

    # A fresh coordinator over the same store resumes the journal: the
    # already-committed chunk is not re-granted, and the sealed log still
    # matches the single-pool reference byte for byte.
    resumed = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2,
        lease_ttl=10.0, clock=clock,
    )
    again = resumed.admit(spec)
    assert again.disposition == "queued"
    granted_indices = []
    while True:
        grant = resumed.request_lease("w2")
        if grant is None:
            break
        granted_indices.extend(grant["indices"])
        resumed.push_results(grant["lease_id"], execute_lease(grant), worker="w2")
    assert set(granted_indices).isdisjoint(lease["indices"])
    result = resumed._jobs[again.run_id].result
    assert log_lines(result) == reference_lines(tmp_path, TINY_SPEC)


# -- adaptive sampling stays coordinator-side ---------------------------------------


def test_adaptive_campaign_matches_pool_run(tmp_path):
    sampling = {"round_size": 4, "max_executions": 12}
    spec_dict = dict(TINY_SPEC, n_faulty=24)
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    admission = coordinator.admit(
        CampaignSpec.from_dict(dict(spec_dict)), sampling=dict(sampling)
    )
    assert admission.disposition == "queued"
    drain_fleet(coordinator)
    assert coordinator.job_status(admission.run_id) == "complete"
    fleet_lines = log_lines(coordinator._jobs[admission.run_id].result)
    assert fleet_lines == reference_lines(
        tmp_path, spec_dict, sampling=dict(sampling)
    )


def test_adaptive_job_counted_once_by_scheduler_and_fleet(tmp_path):
    """The shared seal step counts a job the same on either dispatcher."""
    from repro.observability import observe
    from repro.scheduler import CampaignScheduler

    sampling = {"round_size": 4, "max_executions": 12}
    spec = CampaignSpec.from_dict(dict(TINY_SPEC, n_faulty=24))

    fleet_metrics = MetricsRegistry()
    coordinator = make_coordinator(tmp_path, Clock(), metrics=fleet_metrics)
    run_id = coordinator.admit(spec, sampling=dict(sampling)).run_id
    drain_fleet(coordinator)
    fleet_sampling = coordinator._jobs[run_id].result.aux["sampling"]

    pool_metrics = MetricsRegistry()
    scheduler = CampaignScheduler(
        CampaignStore(tmp_path / "pool-store"), backend="serial", chunk_size=2
    )
    scheduler.submit(spec, sampling=dict(sampling))
    with observe(metrics=pool_metrics):
        (outcome,) = scheduler.run()
    assert outcome.result.aux["sampling"] == fleet_sampling

    labels = {"kernel": "dgemm", "device": "k40"}
    expected = {
        "campaigns": 1,
        "rounds": fleet_sampling["rounds"],
        "strikes": fleet_sampling["executed"],
        "stops": 1,
    }
    for metrics in (fleet_metrics, pool_metrics):
        assert {
            "campaigns": metrics.get("repro_campaigns_total").value(
                mode="adaptive", **labels
            ),
            "rounds": metrics.get("repro_sampling_rounds_total").value(
                **labels
            ),
            "strikes": metrics.get("repro_sampling_strikes_total").value(
                **labels
            ),
            "stops": metrics.get("repro_sampling_stops_total").total(),
        } == expected
