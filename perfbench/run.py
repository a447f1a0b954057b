#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload dgemm-journaled --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and times
``setup_s`` in fresh processes spread over the run.  ``--trace 1`` runs
one untimed unit of the workload, then the same workload half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the result object.  The spans, registries and the full
per-layer report are written to ``.perfbench/`` at the end.  Exit status
is 1 when any output check failed, 2 when there is no program to measure.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("dgemm-journaled", "stencil-journaled", "service-mix")

#: Execution knobs the benchmark never sets: it measures the defaults.
SCRUBBED_ENV = (
    "REPRO_FASTPATH", "REPRO_BATCH", "REPRO_WORKERS", "REPRO_POOL_TIMEOUT",
)

#: The end-to-end metrics and their units (``end_to_end`` in BENCHMARK.json).
END_TO_END = {
    "exec_per_s": "exec/s",
    "setup_s": "s",
    "turnaround_p50_s": "s",
    "time_to_ci_p50_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss() -> dict:
    """Peak resident MB of this process and of its largest reaped child.

    The children are the pool workers and the set-up probes; a probe only
    sets up what this process set up too, so it stays below this process.
    """
    import multiprocessing

    multiprocessing.active_children()  # reaps finished pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"self": own, "children": child}


def reap_children() -> None:
    """Wait for every process the program started to exit.

    Pool workers are joined.  The shared-memory resource tracker would
    otherwise outlive this process; stopping it waits for its exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=60)
    resource_tracker._resource_tracker._stop()


def environment(workload: str) -> dict:
    """Cores, versions and the backend/pool width each campaign resolves."""
    import numpy
    from repro.beam.executor import CampaignExecutor

    from perfbench import workloads

    executor = CampaignExecutor()
    width = executor.resolved_workers()
    pools = sorted({
        f"{executor.resolved_backend(item.spec.n_faulty, width)}x{width}"
        for item in workloads.all_items(workload)
    })
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_width": width,
        "pools": pools,
    }


def run_loop(workload, seed, seconds, work, expected, recorder=None,
             probes=None):
    from perfbench import bench

    if workload == "service-mix":
        return bench.run_service(seed, seconds, work, expected, recorder,
                                 probes)
    return bench.run_journaled(workload, seed, seconds, work, expected,
                               recorder, probes)


def measure_layers(args, work, expected) -> dict:
    """The ``--trace 1`` run: per-layer metrics and tracing overhead."""
    from repro.observability import (
        MetricsRegistry, RingBufferSink, Tracer, observe,
    )

    from perfbench import layers, prepare, tracing

    recorder = tracing.Recorder()
    registry = MetricsRegistry()
    sink = RingBufferSink(capacity=1 << 18)
    tracer = Tracer(sink)
    with tracing.instrument(recorder, tracer), observe(
        tracer=tracer, metrics=registry
    ):
        prepare.prepare(args.workload)
    # One untimed unit first, so neither timed half pays for the first
    # pool, lazy imports and cold caches.
    warm = run_loop(args.workload, args.seed, 0, work / "warm", expected)
    half = args.seconds / 2
    untraced = run_loop(args.workload, args.seed, half, work / "untraced",
                        expected)
    with tracing.instrument(recorder, tracer), observe(
        tracer=tracer, metrics=registry
    ):
        traced = run_loop(args.workload, args.seed, half, work / "traced",
                          expected, recorder)
    events = sink.events()
    if len(events) >= sink.capacity:
        raise RuntimeError("the program's trace overflowed its ring buffer")
    tracing.adopt_chunks(recorder, events)
    traced.registries.append(registry)
    env = environment(args.workload)
    report = layers.per_layer(traced, untraced, recorder.spans,
                              env["pool_width"])
    return {
        "metrics": {name: report[name] for name in layers.REPORTED},
        "units": layers.REPORTED,
        "samples": {},
        "tallies": (warm.tally, untraced.tally, traced.tally),
        "dump": {
            "env": env, "per_layer": report, "spans": recorder.dump(),
            "program_spans": [event.to_dict() for event in events],
            "metrics": registry.export_json(),
        },
        "report": report,
    }


def measure_end_to_end(args, work, expected) -> dict:
    """The ``--trace 0`` run: end-to-end metrics with tracing off."""
    from perfbench import prepare, stats

    prepare.prepare(args.workload)
    probes = prepare.Probes(args.workload, args.seconds)
    outcome = run_loop(args.workload, args.seed, args.seconds, work, expected,
                       probes=probes)
    probes.finish()
    rss = peak_rss()
    setup = stats.percentile(probes.samples, 0.5)
    turnaround = outcome.turnaround_p50(adaptive=False)
    to_ci = outcome.turnaround_p50(adaptive=True)
    samples = {
        "exec_per_s": f"n={outcome.executions}",
        "setup_s": f"n={setup['n']}",
        "turnaround_p50_s":
            f"n={turnaround['n']} over {turnaround['groups']} templates",
        "time_to_ci_p50_s": f"n={to_ci['n']} over {to_ci['groups']} templates",
    }
    metrics = {
        "exec_per_s": outcome.exec_per_s(),
        "setup_s": setup["value"],
        "turnaround_p50_s": turnaround["value"],
        "time_to_ci_p50_s": to_ci["value"],
        "peak_rss_mb": max(rss.values()),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "samples": samples,
        "tallies": (outcome.tally,),
        "dump": {"env": environment(args.workload), "metrics": metrics,
                 "samples": samples, "setup_samples": probes.samples,
                 "peak_rss_mb": rss},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import stats

    expected = json.loads((HERE / "expected.json").read_text())
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        run = measure(args, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        reap_children()

    tally = stats.Tally.combine(run["tallies"])
    env = run["dump"]["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in run["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        count = run["samples"].get(name)
        extra = "" if count is None else f" ({count})"
        print(f"{name:<32} {shown} {run['units'][name]}{extra}")
    print(f"{'failed_frac':<32} {tally.failed_frac:.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons[:20]:
        print(f"  mismatch: {reason}")
    if "report" in run:
        print("per-layer report: " + json.dumps(run["report"], sort_keys=True))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(run["dump"], indent=1, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": run["units"][name]}
            for name, value in run["metrics"].items()
        },
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
