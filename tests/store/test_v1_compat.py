"""Format-1 journals and logs still load, and resume as format 2.

The fixtures under ``fixtures/`` were written by the format-1 writer
(``float.hex`` rows, CRC over a canonical re-encoding); ``v1_expected.json``
holds the digests of the records that writer's own reader loaded back
from them (see ``fixtures/make_v1_fixtures.py``).  The current reader must
load the same bits, and resuming the torn journal must finish the run
exactly as an uninterrupted format-2 run does.
"""

import json
import shutil
from pathlib import Path

from repro.beam.logs import read_log, record_to_row, write_log
from repro.store import (
    JOURNAL_FORMAT_VERSION,
    CampaignSpec,
    CampaignStore,
    Journal,
    execute_spec,
    resume_run,
    scan_journal,
)
from tests.store.fixtures.make_v1_fixtures import TORN_AFTER, record_digest

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = json.loads((FIXTURES / "v1_expected.json").read_text())
SPEC = CampaignSpec.from_dict(EXPECTED["spec"])
RUN_ID = EXPECTED["run_id"]


def v1_store(tmp_path, fixture: str) -> CampaignStore:
    """A store whose only run is the named format-1 journal fixture."""
    store = CampaignStore(tmp_path / fixture)
    shutil.copyfile(FIXTURES / f"{fixture}.jsonl", store.path_for(RUN_ID))
    return store


def digests(records) -> list:
    return [record_digest(record) for record in records]


def test_fixtures_are_format_1():
    assert SPEC.run_id() == RUN_ID
    for fixture in ("v1_complete", "v1_torn"):
        assert scan_journal(FIXTURES / f"{fixture}.jsonl").version == 1
    log_header = (FIXTURES / "v1_log.jsonl").read_text().splitlines()[0]
    assert json.loads(log_header)["format_version"] == 1


class TestLoad:
    def test_complete_journal_loads_the_same_records(self, tmp_path):
        store = v1_store(tmp_path, "v1_complete")
        before = store.path_for(RUN_ID).read_bytes()
        run = store.load(RUN_ID)
        assert run.status == "complete"
        assert run.format_version == 1
        assert digests(run.records()) == EXPECTED["complete"]
        assert digests(run.result().records) == EXPECTED["complete"]
        # a read-only load never rewrites the file
        assert store.path_for(RUN_ID).read_bytes() == before

    def test_torn_journal_loads_its_durable_prefix(self, tmp_path):
        store = v1_store(tmp_path, "v1_torn")
        run = store.load(RUN_ID)
        assert run.status == "incomplete"
        assert run.done_indices() == set(range(TORN_AFTER))
        assert digests(run.records()) == EXPECTED["torn"]

    def test_read_log_reads_the_v1_log(self):
        result = read_log(FIXTURES / "v1_log.jsonl")
        assert digests(result.records) == EXPECTED["log"]
        assert result.n_executions == SPEC.n_faulty


class TestMigrateOnAppend:
    def test_open_for_append_rewrites_as_current_format(self, tmp_path):
        store = v1_store(tmp_path, "v1_complete")
        journal = store.open_run(RUN_ID)
        journal.close()
        path = store.path_for(RUN_ID)
        scan = scan_journal(path)
        assert scan.version == JOURNAL_FORMAT_VERSION
        assert scan.torn_bytes == 0
        assert not path.with_name(path.name + ".tmp").exists()
        run = store.load(RUN_ID)
        assert run.format_version == JOURNAL_FORMAT_VERSION
        assert digests(run.records()) == EXPECTED["complete"]

    def test_migrated_rows_are_what_the_writer_emits(self, tmp_path):
        store = v1_store(tmp_path, "v1_complete")
        store.open_run(RUN_ID).close()
        run = store.load(RUN_ID)
        assert run.rows == [record_to_row(r) for r in run.records()]

    def test_matrix_style_journal_without_rows_migrates(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        lines = (FIXTURES / "v1_complete.jsonl").read_text().splitlines()
        path.write_text(lines[0] + "\n")  # a v1 header alone
        with Journal.open(path) as journal:
            journal.append("cell", cell_id="a", state="complete")
        records = Journal.open(path, read_only=True).records()
        assert records[0]["journal_format_version"] == JOURNAL_FORMAT_VERSION
        assert records[1]["state"] == "complete"


class TestResumeTorn:
    def test_resume_completes_like_an_uninterrupted_run(self, tmp_path):
        store = v1_store(tmp_path, "v1_torn")
        outcome = resume_run(store, RUN_ID, backend="serial")
        assert outcome.resumed == TORN_AFTER
        assert not outcome.cached

        reference_store = CampaignStore(tmp_path / "reference")
        reference = execute_spec(reference_store, SPEC, backend="serial")
        assert [record_to_row(r) for r in outcome.result.records] == [
            record_to_row(r) for r in reference.result.records
        ]
        assert digests(outcome.result.records) == EXPECTED["complete"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(outcome.result, a)
        write_log(reference.result, b)
        assert a.read_bytes() == b.read_bytes()

        # The resumed journal is format 2 throughout: past its header
        # (creation time aside) it is the uninterrupted run's journal.
        resumed = store.path_for(RUN_ID).read_bytes().splitlines()
        uninterrupted = reference_store.path_for(RUN_ID).read_bytes()
        assert resumed[1:] == uninterrupted.splitlines()[1:]
        assert store.load(RUN_ID).status == "complete"

    def test_resume_is_then_a_cache_hit(self, tmp_path):
        store = v1_store(tmp_path, "v1_torn")
        first = resume_run(store, RUN_ID, backend="serial")
        again = execute_spec(store, SPEC, backend="serial")
        assert again.cached
        assert digests(again.result.records) == digests(first.result.records)

