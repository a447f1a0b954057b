"""Regenerate the format-1 journal and log fixtures in this directory.

The fixtures pin backward compatibility: they were written by the
format-1 writer, and the current reader must still load and resume them.
The current code base no longer writes format 1, so this script only
works from a checkout that still does::

    PYTHONPATH=src python tests/store/fixtures/make_v1_fixtures.py OUTDIR

It writes, for one small DGEMM spec (:data:`SPEC`):

* ``v1_complete.jsonl`` — a sealed journal;
* ``v1_torn.jsonl`` — the first :data:`TORN_AFTER` records of the same
  run, then a torn (unterminated) tail, as a crash leaves it;
* ``v1_log.jsonl`` — the campaign log of the complete run;
* ``v1_expected.json`` — :func:`record_digest` of every record the
  writing checkout loads back from each of the three files.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

SPEC_FIELDS = dict(
    kernel="dgemm", device="k40", config={"n": 16}, seed=11, n_faulty=16
)

#: Records durable in the torn journal before its torn tail.
TORN_AFTER = 8

TORN_TAIL = b'{"kind": "record", "index": 8, "row"'


def _hex(value) -> str:
    return float(value).hex()


def _sha(array, dtype) -> str:
    data = np.ascontiguousarray(np.asarray(array), dtype=dtype).tobytes()
    return hashlib.sha256(data).hexdigest()


def record_digest(record) -> dict:
    """An encoding-independent fingerprint of one execution record.

    Floats appear as ``float.hex`` strings and arrays as the SHA-256 of
    their little-endian bytes, so two records digest equal exactly when
    they hold the same bits.
    """
    from repro.bitflip.models import flip_to_dict

    out = {
        "index": record.index,
        "outcome": record.outcome.value,
        "resource": record.resource.value,
        "site": record.site,
        "detail": record.detail,
    }
    fault = record.fault
    if fault is not None:
        out["fault"] = {
            "site": fault.site,
            "progress": _hex(fault.progress),
            "seed": fault.seed,
            "extent": fault.extent,
            "sharing": _hex(fault.sharing),
            "flip": flip_to_dict(fault.flip),
        }
    report = record.report
    if report is not None:
        obs = report.observation
        out["report"] = {
            "n_incorrect": report.n_incorrect,
            "max_relative_error": _hex(report.max_relative_error),
            "mean_relative_error": _hex(report.mean_relative_error),
            "locality": report.locality.value,
            "threshold_pct": _hex(report.threshold_pct),
            "filtered_n_incorrect": report.filtered_n_incorrect,
            "filtered_locality": report.filtered_locality.value,
            "truncated": report.truncated,
            "shape": list(obs.shape),
            "indices": _sha(obs.indices, "<i8"),
            "read": _sha(obs.read, "<f8"),
            "expected": _sha(obs.expected, "<f8"),
            "locality_indices": (
                None if obs.locality_indices is None
                else _sha(obs.locality_indices, "<i8")
            ),
        }
    return out


def main(outdir: str) -> None:
    from repro.beam.logs import read_log, record_to_row, write_log
    from repro.store import CampaignSpec, CampaignStore, execute_spec

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    work = out / "_work"
    spec = CampaignSpec(**SPEC_FIELDS)
    run_id = spec.run_id()

    complete = CampaignStore(work / "complete")
    result = execute_spec(complete, spec, backend="serial").result
    shutil.copyfile(complete.path_for(run_id), out / "v1_complete.jsonl")

    torn = CampaignStore(work / "torn")
    journal = torn.create_run(spec)
    for record in result.records[:TORN_AFTER]:
        journal.append("record", index=record.index, row=record_to_row(record))
    journal.commit()
    journal.close()
    with torn.path_for(run_id).open("ab") as fh:
        fh.write(TORN_TAIL)
    shutil.copyfile(torn.path_for(run_id), out / "v1_torn.jsonl")

    write_log(result, out / "v1_log.jsonl")

    expected = {
        "spec": spec.to_dict(),
        "run_id": run_id,
        "complete": [record_digest(r) for r in complete.load(run_id).records()],
        "torn": [record_digest(r) for r in torn.load(run_id).records()],
        "log": [record_digest(r) for r in read_log(out / "v1_log.jsonl").records],
    }
    (out / "v1_expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    shutil.rmtree(work)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parent))
