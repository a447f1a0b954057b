"""Journals written by full re-execution resume under the one production path.

Before batched delta replay became the only execution path, journals
were written by full re-execution (the then-default strategy).
``fixtures/reexec_torn.jsonl`` is such a journal, torn mid-record by a
crash (see ``fixtures/make_reexec_fixture.py``).  Resuming it must finish
the run exactly as an uninterrupted run does, and a resume must not scan
the journal more often than it needs to.
"""

import shutil
from pathlib import Path

from repro.store import (
    CampaignSpec,
    CampaignStore,
    execute_spec,
    journal,
    resume_run,
)
from tests.store.fixtures.make_reexec_fixture import SPEC_FIELDS, TORN_AFTER

FIXTURE = Path(__file__).parent / "fixtures" / "reexec_torn.jsonl"
SPEC = CampaignSpec(**SPEC_FIELDS)
RUN_ID = SPEC.run_id()


def torn_store(tmp_path) -> CampaignStore:
    store = CampaignStore(tmp_path / "torn")
    shutil.copyfile(FIXTURE, store.path_for(RUN_ID))
    return store


def test_resume_finishes_like_an_uninterrupted_run(tmp_path):
    store = torn_store(tmp_path)
    assert store.load(RUN_ID).done_indices() == set(range(TORN_AFTER))
    outcome = resume_run(store, RUN_ID, backend="serial")
    assert outcome.resumed == TORN_AFTER
    reference = CampaignStore(tmp_path / "reference")
    execute_spec(reference, SPEC, backend="serial")
    # Past its header (creation time aside) the finished journal is the
    # uninterrupted run's, byte for byte.
    resumed = store.path_for(RUN_ID).read_bytes().splitlines()
    uninterrupted = reference.path_for(RUN_ID).read_bytes().splitlines()
    assert resumed[1:] == uninterrupted[1:]
    assert store.load(RUN_ID).status == "complete"


def test_resume_scans_the_journal_twice(tmp_path, monkeypatch):
    store = torn_store(tmp_path)
    calls = []
    scan = journal.scan_journal

    def counting_scan(path):
        calls.append(path)
        return scan(path)

    monkeypatch.setattr(journal, "scan_journal", counting_scan)
    resume_run(store, RUN_ID, backend="serial")
    # One read-only load (the spec and durable rows), one reopen for append.
    assert len(calls) <= 2
