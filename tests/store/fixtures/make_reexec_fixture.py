"""Regenerate ``reexec_torn.jsonl``: a torn journal written by full re-execution.

Format-2 journals written before batched delta replay became the only
execution path came from full re-execution (the then-default strategy).
This fixture pins that such a journal resumes under the current code
and finishes byte-identical to an uninterrupted run.  Regenerate it only
from a checkout whose default strategy is full re-execution::

    PYTHONPATH=src python tests/store/fixtures/make_reexec_fixture.py OUTDIR

It runs :data:`SPEC_FIELDS` (CLAMR, whose delta replay mixes hits and
dense fallbacks) serially and keeps the header, the first
:data:`TORN_AFTER` record lines and a torn (unterminated) tail, as a
crash leaves a journal.
"""

import shutil
import sys
from pathlib import Path

SPEC_FIELDS = dict(
    kernel="clamr", device="xeonphi", config={"n": 16, "steps": 8}, seed=9,
    n_faulty=16,
)

#: Records durable in the torn journal before its torn tail.
TORN_AFTER = 6

TORN_TAIL = b'{"kind": "record", "index": 6, "row"'


def main(outdir: str) -> None:
    from repro.store import CampaignSpec, CampaignStore, execute_spec

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    work = out / "_work"
    spec = CampaignSpec(**SPEC_FIELDS)
    store = CampaignStore(work)
    execute_spec(store, spec, backend="serial")
    lines = store.path_for(spec.run_id()).read_bytes().splitlines(True)
    (out / "reexec_torn.jsonl").write_bytes(
        b"".join(lines[: 1 + TORN_AFTER]) + TORN_TAIL
    )
    shutil.rmtree(work)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parent))
