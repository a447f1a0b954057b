"""CampaignStore: content-addressed runs, queries, journaled execution."""

import pytest

from repro.store import (
    CampaignSpec,
    CampaignStore,
    JournalError,
    RunStatus,
    execute_spec,
    resume_run,
)


def spec(**overrides):
    base = dict(
        kernel="dgemm", device="k40", config={"n": 16}, seed=9, n_faulty=8
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestLifecycle:
    def test_create_then_load_incomplete(self, tmp_path):
        store = CampaignStore(tmp_path)
        s = spec()
        journal = store.create_run(s)
        journal.close()
        run_id = s.run_id()
        assert store.has(run_id)
        run = store.load(run_id)
        assert run.status == RunStatus.INCOMPLETE
        assert run.spec.run_id() == run_id
        assert run.done_indices() == set()
        with pytest.raises(JournalError, match="incomplete"):
            run.result()

    def test_execute_spec_completes_and_stores(self, tmp_path):
        store = CampaignStore(tmp_path)
        outcome = execute_spec(store, spec(), backend="serial")
        assert not outcome.cached
        run = store.load(outcome.run_id)
        assert run.status == RunStatus.COMPLETE
        stored = run.result()
        assert stored.fluence == outcome.result.fluence
        assert stored.counts() == outcome.result.counts()
        assert [r.index for r in stored.records] == [
            r.index for r in outcome.result.records
        ]

    def test_execute_spec_is_a_cache_hit_second_time(self, tmp_path):
        store = CampaignStore(tmp_path)
        first = execute_spec(store, spec(), backend="serial")
        second = execute_spec(store, spec(), backend="serial")
        assert second.cached
        assert second.result.counts() == first.result.counts()

    def test_reuse_false_forces_a_rerun(self, tmp_path):
        store = CampaignStore(tmp_path)
        execute_spec(store, spec(), backend="serial")
        again = execute_spec(store, spec(), backend="serial", reuse=False)
        assert not again.cached

    def test_resume_unknown_run_raises_with_known_ids(self, tmp_path):
        store = CampaignStore(tmp_path)
        execute_spec(store, spec(), backend="serial")
        with pytest.raises(JournalError, match="no stored run"):
            resume_run(store, "deadbeefdeadbeef")

    def test_resume_with_a_damaged_header_raises(self, tmp_path):
        store = CampaignStore(tmp_path)
        s = spec()
        store.create_run(s).close()
        path = store.path_for(s.run_id())
        path.write_bytes(path.read_bytes().replace(b'"open"', b'"opem"'))
        with pytest.raises(JournalError, match="not a valid open header"):
            resume_run(store, s.run_id())


class TestQueries:
    def _populate(self, tmp_path):
        store = CampaignStore(tmp_path)
        execute_spec(store, spec(seed=1), backend="serial")
        execute_spec(store, spec(seed=2), backend="serial")
        store.create_run(spec(seed=3)).close()  # incomplete
        return store

    def test_summaries_cover_every_run(self, tmp_path):
        store = self._populate(tmp_path)
        summaries = store.summaries()
        assert len(summaries) == 3
        assert {s.status for s in summaries} == {
            RunStatus.COMPLETE,
            RunStatus.INCOMPLETE,
        }
        incomplete = [s for s in summaries if s.status == RunStatus.INCOMPLETE]
        assert incomplete[0].progress == "0/8"

    def test_find_filters(self, tmp_path):
        store = self._populate(tmp_path)
        assert len(store.find(status=RunStatus.COMPLETE)) == 2
        assert len(store.find(seed=3)) == 1
        assert store.find(kernel="hotspot") == []
        assert len(store.find(kernel="dgemm", device="k40")) == 3

    def test_load_spec_content_addressing(self, tmp_path):
        store = self._populate(tmp_path)
        assert store.load_spec(spec(seed=1)) is not None
        assert store.load_spec(spec(seed=99)) is None

    def test_render_lists_run_ids(self, tmp_path):
        store = self._populate(tmp_path)
        text = store.render()
        for run_id in store.run_ids():
            assert run_id in text

    def test_render_empty_store(self, tmp_path):
        assert "no stored runs" in CampaignStore(tmp_path).render()
