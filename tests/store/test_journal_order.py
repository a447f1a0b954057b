"""Pooled journals are written in index order, byte for byte as serial.

The scheduler commits a job's chunks in chunk order, so the thread and
process backends write the same journal as the serial backend — not just
the same record set — for fixed and adaptive runs alike.  Only the
header line differs (it carries the creation time).
"""

import pytest

from repro.sampling import SamplingPolicy
from repro.store import CampaignSpec, CampaignStore, execute_spec

#: Many small chunks of uneven cost, so pooled chunks finish out of order.
SPEC = CampaignSpec(
    kernel="hotspot", device="k40", config={"n": 64, "iterations": 32},
    seed=5, n_faulty=96,
)

#: Two or more rounds of at least 16 strikes, so every round is pooled.
POLICY = SamplingPolicy(target_ci=0.05, round_size=24, max_executions=72)


def journal_body(tmp_path, name, sampling=None, **strategy) -> list:
    """The journal ``execute_spec`` writes, minus its header line."""
    store = CampaignStore(tmp_path / name)
    execute_spec(store, SPEC, sampling=sampling, **strategy)
    return store.path_for(SPEC.run_id()).read_bytes().splitlines()[1:]


@pytest.mark.parametrize("backend", ("thread", "process"))
@pytest.mark.parametrize("sampling", (None, POLICY), ids=("fixed", "adaptive"))
def test_pooled_journal_matches_serial(tmp_path, backend, sampling):
    serial = journal_body(tmp_path, "serial", sampling, backend="serial")
    pooled = journal_body(
        tmp_path, backend, sampling, backend=backend, workers=2, chunk_size=5
    )
    assert pooled == serial
