"""Per-layer metrics of a traced run.

Sources: the benchmark's own spans (:mod:`perfbench.tracing`), the
program's metrics registries collected through
``repro.observability.observe`` (and the service's own registry), and the
counts the runners keep.  A metric whose layer saw no work is ``None`` in
the full report.
"""

from __future__ import annotations

from perfbench import stats
from perfbench.tracing import self_times

KERNELS = ("dgemm", "lavamd", "hotspot", "clamr", "cg")

#: ``repro_service_request_seconds`` route templates → metric suffixes.
ROUTES = {
    "/v1/campaigns": "submit",
    "/v1/campaigns/{run_id}": "status",
    "/v1/campaigns/{run_id}/result": "result",
    "/v1/campaigns/{run_id}/report": "report",
}

#: The per-layer metrics every workload measures, with their units: the
#: ``per_layer`` list of ``BENCHMARK.json`` and the traced run's result.
REPORTED = {
    "kernels.strike_ms": "ms",
    "kernels.golden_s": "s",
    "kernels.golden_misses": "count",
    "beam.chunks": "count",
    "beam.chunk_busy_s": "s",
    "beam.pool_idle_frac": "ratio",
    "beam.encode_s": "s",
    "beam.encode_us_per_record": "us",
    "beam.self_s": "s",
    "store.commit_s": "s",
    "store.commits": "count",
    "store.bytes_per_exec": "B",
    "store.load_s": "s",
    "store.self_s": "s",
    "scheduler.batches": "count",
    "service.requests_per_campaign": "count",
    "sampling.executions_to_ci": "count",
    "sampling.rounds": "count",
    "trace.overhead_frac": "ratio",
}


def _series(snapshot: dict, name: str) -> list:
    return snapshot.get(name, {}).get("series", [])


def _by_kernel(snapshot: dict, name: str) -> dict:
    """Counter values keyed by their ``kernel`` label."""
    entry = snapshot.get(name, {})
    labels = entry.get("labels", [])
    if "kernel" not in labels:
        return {}
    at = labels.index("kernel")
    out: dict = {}
    for series in entry["series"]:
        kernel = series["labels"][at]
        out[kernel] = out.get(kernel, 0) + series["value"]
    return out


def _named(spans, *names) -> list:
    return [span for span in spans if span.name in names]


def _seconds(spans) -> float:
    return sum(span.duration for span in spans)


def _pool_idle_frac(spans, pool_width: int) -> "float | None":
    """1 − chunk busy time / (pool width × time the pool owner ran)."""
    chunks_of: dict = {}
    for span in spans:
        if span.name == "chunk" and span.parent is not None:
            chunks_of.setdefault(span.parent, []).append(span)
    capacity = busy = 0.0
    for span in spans:
        chunks = chunks_of.get(span.span_id)
        if span.name not in ("executor.run", "scheduler.run") or not chunks:
            continue
        serial = all(chunk.attrs.get("backend") == "serial" for chunk in chunks)
        capacity += (1 if serial else pool_width) * span.duration
        busy += sum(chunk.duration for chunk in chunks)
    return 1.0 - busy / capacity if capacity else None


def per_layer(traced, untraced, spans, pool_width: int) -> dict:
    """Every per-layer metric of the traced loop (``None`` where unused)."""
    from repro.observability import MetricsRegistry

    merged = MetricsRegistry()
    for registry in traced.registries:
        merged.merge(registry)
    snapshot = merged.export_json()
    out: dict = {}

    strikes = {
        series["labels"][0]: series
        for series in _series(snapshot, "repro_injection_seconds")
    }
    for kernel in KERNELS:
        series = strikes.get(kernel)
        out[f"kernels.strike_ms.{kernel}"] = (
            1e3 * series["sum"] / series["count"]
            if series and series["count"] else None
        )
    count = sum(series["count"] for series in strikes.values())
    out["kernels.strike_ms"] = (
        1e3 * sum(series["sum"] for series in strikes.values()) / count
        if count else None
    )
    hits = _by_kernel(snapshot, "repro_fastpath_hits_total")
    falls = _by_kernel(snapshot, "repro_fastpath_fallbacks_total")
    for kernel in KERNELS:
        attempts = hits.get(kernel, 0) + falls.get(kernel, 0)
        out[f"kernels.fastpath_hit_ratio.{kernel}"] = (
            hits.get(kernel, 0) / attempts if attempts else None
        )
    out["kernels.golden_s"] = _seconds(_named(spans, "golden"))
    out["kernels.golden_misses"] = sum(
        series["value"]
        for series in _series(snapshot, "repro_golden_cache_misses_total")
    )

    executor_runs = _named(spans, "executor.run")
    out["beam.executor_s"] = _seconds(executor_runs) if executor_runs else None
    chunks = _named(spans, "chunk")
    out["beam.chunks"] = len(chunks)
    out["beam.chunk_busy_s"] = _seconds(chunks)
    out["beam.pool_idle_frac"] = _pool_idle_frac(spans, pool_width)
    encodes = _named(spans, "encode")
    out["beam.encode_s"] = _seconds(encodes)
    out["beam.encode_us_per_record"] = (
        1e6 * out["beam.encode_s"] / len(encodes) if encodes else None
    )

    commits = _named(spans, "commit")
    out["store.commit_s"] = _seconds(commits)
    out["store.commits"] = len(commits)
    out["store.bytes_per_exec"] = (
        traced.journal_bytes / traced.executions if traced.executions else None
    )
    out["store.load_s"] = _seconds(_named(spans, "load", "result"))

    batches = _named(spans, "scheduler.run")
    out["scheduler.batches"] = len(batches)
    out["scheduler.run_s"] = _seconds(batches) if batches else None

    latency = {
        series["labels"][0]: series
        for series in _series(snapshot, "repro_service_request_seconds")
    }
    for route, name in ROUTES.items():
        series = latency.get(route)
        out[f"service.request_ms.{name}"] = (
            1e3 * series["sum"] / series["count"]
            if series and series["count"] else None
        )
    out["service.requests_per_campaign"] = (
        traced.requests / len(traced.runs) if traced.runs else None
    )
    out["service.errors"] = traced.http_errors

    estimates = [
        run.sampling for run in traced.runs
        if run.adaptive and not run.resubmit and run.sampling
    ]
    out["sampling.executions_to_ci"] = stats.median(
        [estimate["executed"] for estimate in estimates]
    )
    out["sampling.rounds"] = stats.median(
        [estimate["rounds"] for estimate in estimates]
    )

    for layer, seconds in sorted(self_times(spans).items()):
        out[f"{layer}.self_s"] = seconds
    out["trace.overhead_frac"] = (
        untraced.exec_per_s() / traced.exec_per_s() - 1.0
    )
    return out
