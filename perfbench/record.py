#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks every campaign against.

Runs every campaign any seed of any workload can submit through
``repro.store.execute_spec`` and writes their signatures (outcome counts,
per-outcome FIT, locality classes, adaptive estimates) to
``perfbench/expected.json``.  Rerun it only when a change is *meant* to
alter campaign outputs, and say so in the change::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.store import CampaignStore, execute_spec

    from perfbench import stats, workloads

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=work))
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            store = CampaignStore(scratch / workload)
            for item in workloads.all_items(workload):
                outcome = execute_spec(store, item.spec,
                                       sampling=item.sampling)
                result = store.load(outcome.run_id).result()
                expected[item.key] = stats.signature(
                    result, result.aux.get("sampling") if item.sampling else None
                )
            print(f"{workload}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"{len(expected)} campaigns -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
