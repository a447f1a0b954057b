#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed (one after another, never in parallel) and
prints, per metric, the median and the quartile distance as a share of
the median — the figure each metric's ``bound`` in ``BENCHMARK.json``
must stay three times above::

    python3 perfbench/spread.py --workload service-mix --seeds 1-10

With ``--out`` the figures are merged into a JSON file under ``--label``
(default ``trace0``/``trace1``).  With ``--against LABEL`` the medians are
also compared with an earlier set in that file: per metric, how much
worse this set's median is than that set's, as a share of it, and
whether that stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path, default=None,
                        help="merge the figures into this JSON file")
    parser.add_argument("--label", default=None,
                        help="key of this set in --out (default trace0/1)")
    parser.add_argument("--against", default=None,
                        help="label of an earlier set in --out to compare")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import iqr_share, median

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    values: dict = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        dump = ROOT / ".perfbench" / (
            f"{args.workload}-seed{seed}-trace{args.trace}.json"
        )
        env = json.loads(dump.read_text())["env"]
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    summary = {"seconds": seconds, "seeds": seed_list(args.seeds),
               "env": env, "values": values, "median": {}, "spread": {}}
    for name, series in values.items():
        spread = iqr_share(series) if len(series) >= 3 else None
        summary["median"][name] = median(series)
        summary["spread"][name] = spread
        bound = bounds.get(name)
        verdict = "" if bound is None or spread is None else (
            "ok" if spread < bound / 3 else f"WIDE (bound/3 = {bound / 3:.3f})"
        )
        print(f"{name:<32} median={median(series):.5g} spread={spread} "
              f"{verdict}")
    if args.out is None:
        return 0
    merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    sets = merged.setdefault(args.workload, {})
    if args.against is not None:
        earlier = sets[args.against]["median"]
        summary["against"] = args.against
        summary["worse_than_against"] = {}
        for name, value in summary["median"].items():
            ratio = value / earlier[name]
            worse = ratio - 1 if better.get(name) == "lower" else 1 - ratio
            summary["worse_than_against"][name] = worse
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if worse <= bound else f"OUTSIDE bound {bound}"
            )
            print(f"{name:<32} vs {args.against}: worse by {worse:+.3f} "
                  f"{verdict}")
    sets[args.label or f"trace{args.trace}"] = summary
    args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
