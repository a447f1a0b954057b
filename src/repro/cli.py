"""Command-line interface: campaigns, figures and log analysis.

Usage (also available as ``python -m repro``)::

    repro tables                             # Tables I and II
    repro campaign dgemm k40 --config n=256 --faulty 100 --log out.jsonl
    repro campaign dgemm k40 --trace t.jsonl --metrics-out m.prom --progress 5
    repro figure fig3a                       # any paper figure, by name
    repro analyze out.jsonl --threshold 4.0  # re-analyse a campaign log
    repro telemetry t.jsonl                  # timing report from a trace
    repro fleet out.jsonl --devices 18688    # Titan-style projection
    repro queue --jobs jobs.json             # schedule campaigns, journaled
    repro runs --store .repro-store          # list stored runs
    repro resume 12cf6ae0b61a1d47            # finish an interrupted run
    repro serve --port 8765 --store DIR      # the campaign service daemon
    repro serve --fleet --lease-ttl 15       # ... as a fleet coordinator
    repro agent --url URL                    # a fleet worker agent
    repro submit dgemm k40 --url URL --wait  # submit a campaign over HTTP
    repro status 12cf6ae0b61a1d47 --url URL  # poll a submitted run
    repro fetch 12cf6ae0b61a1d47 --url URL   # download its final log

Figures accept ``--scale test|default|paper`` (matching the benchmark
harness).  Every command prints plain text (or JSON with ``--json`` where
offered); campaign logs are JSONL.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__

from repro.analysis.experiments import (
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    lavamd_sweep,
    run_spec,
)
from repro.analysis.fitbreakdown import fit_figure
from repro.analysis.localitymap import locality_map_figure
from repro.analysis.scatter import scatter_figure
from repro.analysis.sdc_ratio import render_ratios
from repro.analysis.tables import table1_text, table2_text
from repro.arch.registry import DEVICE_FACTORIES, make_device
from repro.beam.campaign import Campaign
from repro.beam.logs import read_log, write_log
from repro.kernels.registry import KERNEL_FACTORIES, make_kernel

#: figure name -> (builder kind, kernel, device) for the `figure` command.
_FIGURES = {
    "fig2a": ("scatter", "dgemm", "k40"),
    "fig2b": ("scatter", "dgemm", "xeonphi"),
    "fig3a": ("fit", "dgemm", "k40"),
    "fig3b": ("fit", "dgemm", "xeonphi"),
    "fig4a": ("scatter", "lavamd", "k40"),
    "fig4b": ("scatter", "lavamd", "xeonphi"),
    "fig5a": ("fit", "lavamd", "k40"),
    "fig5b": ("fit", "lavamd", "xeonphi"),
    "fig6a": ("scatter", "hotspot", "k40"),
    "fig6b": ("scatter", "hotspot", "xeonphi"),
    "fig7a": ("fit", "hotspot", "k40"),
    "fig7b": ("fit", "hotspot", "xeonphi"),
    "fig8": ("scatter", "clamr", "xeonphi"),
    "fig9": ("map", "clamr", "xeonphi"),
}


#: Exit code for unusable input files (empty/truncated logs and traces).
EXIT_BAD_INPUT = 2

#: Default store root for the queue/resume/runs verbs.
DEFAULT_STORE = ".repro-store"


def _input_error(message: str) -> int:
    """One-line diagnosis on stderr; exit code :data:`EXIT_BAD_INPUT`.

    Operator-facing commands must not traceback on a truncated or empty
    file — a beam-host crash mid-write produces exactly such files, and
    the operator needs the diagnosis, not the stack.
    """
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _parse_config(pairs: "list[str]") -> dict:
    """Parse ``key=value`` kernel options, int-ifying where possible."""
    config = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --config entry {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        try:
            config[key] = int(value)
        except ValueError:
            try:
                config[key] = float(value)
            except ValueError:
                config[key] = value
    return config


def _specs_for(kernel: str, device: str, scale: str):
    if kernel == "dgemm":
        return dgemm_sweep(device, scale)
    if kernel == "lavamd":
        return lavamd_sweep(device, scale)
    if kernel == "hotspot":
        return [hotspot_spec(device, scale)]
    if kernel == "clamr":
        return [clamr_spec(device, scale)]
    raise SystemExit(f"unknown kernel {kernel!r}")


def cmd_tables(args) -> int:
    print(table1_text())
    print()
    kernels = [
        make_kernel("dgemm", n=1024),
        make_kernel("lavamd", nb=13, particles_per_box=192),
        make_kernel("hotspot", n=1024, iterations=64),
        make_kernel("clamr", n=512, steps=8),
    ]
    print(table2_text(kernels))
    return 0


def _campaign_instrumentation(args, total: int):
    """Build (tracer, metrics, progress) from the observability flags."""
    from repro import observability as obs

    tracer = obs.Tracer(obs.JsonlSink(args.trace)) if args.trace else None
    metrics = obs.MetricsRegistry() if args.metrics_out else None
    progress = None
    if args.progress:
        progress = obs.ProgressReporter(
            total=total,
            interval=args.progress,
            label=f"{args.kernel}/{args.device}",
        )
    return tracer, metrics, progress


def _write_metrics(metrics, path: str) -> None:
    """Dump a registry: ``.json`` ending means JSON, anything else
    Prometheus text exposition format."""
    fmt = "json" if path.endswith(".json") else "prometheus"
    with open(path, "w") as fh:
        fh.write(metrics.dumps(fmt))


def _sampling_policy(args):
    """The :class:`SamplingPolicy` a ``--target-ci`` flag requests, if any."""
    if getattr(args, "target_ci", None) is None:
        return None
    from repro.sampling import SamplingPolicy

    return SamplingPolicy(target_ci=args.target_ci)


def _strategy_parent(
    *,
    workers_default: "int | None" = None,
    include_workers: bool = True,
    include_backend: bool = False,
    include_retries: bool = False,
) -> argparse.ArgumentParser:
    """The shared execution-strategy flags, as an argparse parent.

    Every verb that executes campaigns takes the same strategy surface
    (``--workers``/``--chunk-size``, ``--backend``, ``--retries``,
    ``--target-ci``); each verb opts into the subset that applies via
    ``parents=[_strategy_parent(...)]`` instead of repeating the
    declarations.  Strategy never changes what
    any execution produces — only how much runs, where, and in what
    order — which is why these flags are uniform across surfaces while
    the spec-shaped flags (``--faulty``, ``--seed``, ...) stay per-verb.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if include_workers:
        parent.add_argument(
            "--workers", type=int, default=workers_default, metavar="N",
            help="fan struck executions over N workers "
            "(0 = one per CPU core; results are bit-identical to serial)",
        )
        parent.add_argument(
            "--chunk-size", type=int, default=None, metavar="K",
            help="executions per worker task (default: auto)",
        )
    if include_backend:
        parent.add_argument(
            "--backend", default="auto",
            choices=("auto", "process", "thread", "serial"),
        )
    if include_retries:
        parent.add_argument(
            "--retries", type=int, default=3,
            help="chunk retries (exponential backoff) before a job fails",
        )
    parent.add_argument(
        "--target-ci", type=float, default=None, dest="target_ci",
        metavar="FRACTION",
        help="adaptive importance sampling: stop once the pooled SDC "
        "FIT confidence interval reaches this relative half-width "
        "(e.g. 0.1 = ±10%%); executes only as many strikes as the "
        "estimate needs (see docs/sampling.md)",
    )
    return parent


def cmd_campaign(args) -> int:
    from repro import observability as obs

    kernel = make_kernel(args.kernel, **_parse_config(args.config))
    device = make_device(args.device)
    campaign = Campaign(
        kernel=kernel,
        device=device,
        n_faulty=args.faulty,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    policy = _sampling_policy(args)
    if policy is not None and args.natural:
        raise SystemExit("--target-ci only applies to accelerated mode")
    total = args.natural if args.natural else args.faulty
    tracer, metrics, progress = _campaign_instrumentation(args, total)
    with obs.observe(tracer=tracer, metrics=metrics, progress=progress):
        if args.natural:
            result = campaign.run_natural(args.natural)
        elif policy is not None:
            result = campaign.run_adaptive(policy)
        else:
            result = campaign.run()
        if progress is not None:
            progress.close()
    print(result.summary())
    if "sampling" in result.aux:
        from repro.sampling import render_sampling

        print()
        print(render_sampling(result.aux["sampling"]))
    if args.log:
        path = write_log(result, args.log)
        print(f"\nlog written to {path}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics_out:
        _write_metrics(metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_telemetry(args) -> int:
    import json as _json

    from repro.analysis.telemetry import load_telemetry, render_telemetry

    try:
        report = load_telemetry(args.trace)
    except OSError as err:
        return _input_error(f"cannot read trace {args.trace!r}: {err}")
    except (ValueError, KeyError) as err:
        return _input_error(f"not a usable trace file {args.trace!r}: {err}")
    if report.n_events == 0:
        return _input_error(
            f"trace {args.trace!r} holds no span events "
            "(empty or header-only file)"
        )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_telemetry(report))
    return 0


def cmd_figure(args) -> int:
    try:
        kind, kernel, device = _FIGURES[args.name]
    except KeyError:
        known = ", ".join(sorted(_FIGURES))
        raise SystemExit(f"unknown figure {args.name!r}; known: {known}")
    results = [run_spec(s) for s in _specs_for(kernel, device, args.scale)]
    if kind == "scatter":
        print(scatter_figure(args.name, results).render())
    elif kind == "fit":
        print(fit_figure(args.name, results).render())
    else:
        print(locality_map_figure(args.name, results[0]).render())
    print()
    print(render_ratios(results))
    return 0


def cmd_analyze(args) -> int:
    try:
        result = read_log(args.log)
    except OSError as err:
        return _input_error(f"cannot read log {args.log!r}: {err}")
    except (ValueError, KeyError) as err:
        return _input_error(f"not a usable campaign log {args.log!r}: {err}")
    print(result.summary())
    if args.threshold is not None:
        reports = [r.refiltered(args.threshold) for r in result.sdc_reports()]
        surviving = sum(1 for r in reports if r.survives_filter)
        print(
            f"\nre-filtered at {args.threshold:g}%: "
            f"{surviving}/{len(reports)} SDCs survive"
        )
    breakdown = result.breakdown()
    print("\nFIT by locality [a.u.]:")
    for locality, fit in sorted(breakdown.per_locality.items(), key=lambda kv: -kv[1]):
        print(f"  {locality.value:8s} {fit:8.2f}")
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.verification import render_verification, verify_claims

    results = verify_claims(args.scale)
    print(render_verification(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_plan(args) -> int:
    from repro.beam.facility import ISIS, LANSCE
    from repro.beam.planner import CampaignPlan

    facility = {"lansce": LANSCE, "isis": ISIS}[args.facility]
    configurations = []
    for name in args.kernels:
        for device_name in ("k40", "xeonphi"):
            kernel = make_kernel(name, **_parse_config(args.config))
            configurations.append(
                (f"{name}/{device_name}", kernel, make_device(device_name))
            )
    plan = CampaignPlan.equal_power(
        configurations, facility, total_hours=args.hours
    )
    print(plan.render())
    return 0


def cmd_device(args) -> int:
    from repro.arch.datasheet import render_datasheet, render_strike_surface

    device = make_device(args.device)
    print(render_datasheet(device))
    if args.kernel:
        kernel = make_kernel(args.kernel, **_parse_config(args.config))
        print()
        print(render_strike_surface(device, kernel))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(args.scale)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _queue_specs(args):
    """Campaign specs for ``repro queue``: a jobs file, flags, or both."""
    import json as _json

    from repro.store import CampaignSpec

    specs = []
    if args.jobs:
        try:
            with open(args.jobs) as fh:
                payload = _json.load(fh)
        except OSError as err:
            raise SystemExit(f"error: cannot read jobs file: {err}")
        except ValueError as err:
            raise SystemExit(f"error: jobs file is not valid JSON: {err}")
        if not isinstance(payload, list):
            raise SystemExit("error: jobs file must hold a JSON list of specs")
        for entry in payload:
            entry.setdefault("spec_version", 1)
            specs.append(CampaignSpec.from_dict(entry))
    if args.kernel:
        if not args.device:
            raise SystemExit("error: queue needs both KERNEL and DEVICE")
        specs.append(
            CampaignSpec(
                kernel=args.kernel,
                device=args.device,
                config=_parse_config(args.config),
                seed=args.seed,
                n_faulty=args.faulty,
                priority=args.priority,
            )
        )
    if not specs:
        raise SystemExit("error: nothing to queue (pass KERNEL DEVICE or --jobs)")
    return specs


def cmd_queue(args) -> int:
    import json as _json

    from repro._util.text import format_table
    from repro.scheduler import CampaignScheduler, RetryPolicy
    from repro.store import CampaignStore

    store = CampaignStore(args.store)
    scheduler = CampaignScheduler(
        store,
        workers=args.workers,
        chunk_size=args.chunk_size,
        backend=args.backend,
        retry=RetryPolicy(max_retries=args.retries),
    )
    policy = _sampling_policy(args)
    for spec in _queue_specs(args):
        scheduler.submit(spec, sampling=policy)
    outcomes = scheduler.run(install_signal_handler=True)
    rows = []
    for outcome in outcomes:
        n_records = len(outcome.result.records) if outcome.result else 0
        rows.append(
            (
                outcome.run_id,
                outcome.label,
                outcome.status,
                n_records,
                outcome.retries,
            )
        )
    if args.json:
        # Stable machine-readable schema; run ids land on stdout either
        # way, so `repro queue ... | awk '{print $1}'`-style scripting and
        # JSON consumers both work.
        payload = {
            "outcomes": [
                {
                    "run_id": outcome.run_id,
                    "label": outcome.label,
                    "status": outcome.status,
                    "records": len(outcome.result.records) if outcome.result else 0,
                    "retries": outcome.retries,
                    "resumed": outcome.resumed,
                }
                for outcome in outcomes
            ]
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_table(("run id", "campaign", "status", "records", "retries"), rows))
    failed = [o for o in outcomes if o.status == "failed"]
    interrupted = [o for o in outcomes if o.status == "interrupted"]
    for outcome in failed:
        print(f"failed: {outcome.error}", file=sys.stderr)
    if interrupted:
        print(
            f"{len(interrupted)} run(s) interrupted; journals are resumable "
            f"with `repro resume <run-id> --store {args.store}`",
            file=sys.stderr,
        )
    return 1 if failed or interrupted else 0


def cmd_resume(args) -> int:
    from repro.beam.executor import CampaignExecutionError
    from repro.store import CampaignStore, JournalError, resume_run

    store = CampaignStore(args.store)
    try:
        outcome = resume_run(
            store,
            args.run_id,
            workers=args.workers,
            chunk_size=args.chunk_size,
            backend=args.backend,
            sampling=_sampling_policy(args),
        )
    except JournalError as err:
        return _input_error(str(err))
    except CampaignExecutionError as err:
        print(f"failed: {err}", file=sys.stderr)
        return 1
    origin = "cache" if outcome.cached else f"{outcome.resumed} durable records"
    print(f"run {outcome.run_id} complete (resumed from {origin})")
    print()
    print(outcome.result.summary())
    if "sampling" in outcome.result.aux:
        from repro.sampling import render_sampling

        print()
        print(render_sampling(outcome.result.aux["sampling"]))
    return 0


def cmd_runs(args) -> int:
    import json as _json

    from repro.store import CampaignStore, JournalError

    store = CampaignStore(args.store)
    if not args.run_id:
        if args.json:
            payload = {"runs": [s.to_dict() for s in store.summaries()]}
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(store.render())
        return 0
    try:
        run = store.load(args.run_id)
    except JournalError as err:
        return _input_error(str(err))
    print(f"run {run.run_id}: {run.spec.resolved_label()} ({run.status})")
    print(f"  journal : {run.path}")
    print(f"  records : {len(run.rows)}/{run.spec.n_faulty} durable")
    print(f"  seed    : {run.spec.seed}")
    if run.close is not None:
        print()
        result = run.result()
        print(result.summary())
        if "sampling" in result.aux:
            from repro.sampling import render_sampling

            print()
            print(render_sampling(result.aux["sampling"]))
    else:
        print(
            f"  resume  : repro resume {run.run_id} --store {args.store}"
        )
    return 0


def cmd_serve(args) -> int:
    from repro.service import ServiceConfig, run_service

    policy = _sampling_policy(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        chunk_size=args.chunk_size,
        backend=args.backend,
        retries=args.retries,
        queue_limit=args.queue_limit,
        log_requests=args.log_requests,
        sampling=policy.to_dict() if policy is not None else None,
        fleet=args.fleet,
        lease_ttl=args.lease_ttl,
    )
    return run_service(config)


def cmd_agent(args) -> int:
    from repro.fleet import AgentConfig, run_agent
    from repro.service import ServiceError

    config = AgentConfig(
        url=args.url,
        name=args.name or "",
        poll=args.poll,
        idle_exit=args.idle_exit,
        max_chunks=args.max_chunks,
    )
    try:
        stats = run_agent(config)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    drained = " (drained)" if stats.drained else ""
    print(
        f"agent {stats.worker} done: {stats.chunks} chunks, "
        f"{stats.records} records pushed, "
        f"{stats.leases_lost} leases lost{drained}"
    )
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def cmd_submit(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    specs = _queue_specs(args)
    policy = _sampling_policy(args)
    sampling = policy.to_dict() if policy is not None else None
    submissions = []
    try:
        for spec in specs:
            submissions.append(client.submit(spec, sampling=sampling))
        if args.wait:
            for submission in submissions:
                final = client.wait(submission["run_id"])
                submission["status"] = final["status"]
                submission["progress"] = final["progress"]
                if final.get("error"):
                    submission["error"] = final["error"]
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps({"submissions": submissions}, indent=2, sort_keys=True))
    else:
        # One run id per line on stdout: the scripting contract.
        for submission in submissions:
            origin = (
                "cached" if submission.get("cached")
                else "deduped" if submission.get("deduped")
                else submission["status"]
            )
            print(f"{submission['run_id']}  {submission['label']}  {origin}")
    failed = [s for s in submissions if s.get("status") == "failed"]
    return 1 if failed else 0


def cmd_status(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    try:
        payload = (
            client.wait(args.run_id) if args.wait else client.status(args.run_id)
        )
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    progress = payload["progress"]
    print(f"run {payload['run_id']}: {payload['label']} ({payload['status']})")
    print(f"  progress: {progress['done']}/{progress['total']} executions")
    if payload.get("eta_seconds") is not None:
        print(f"  eta     : {payload['eta_seconds']:.1f}s")
    if payload.get("error"):
        print(f"  error   : {payload['error']}")
    return 0 if payload["status"] != "failed" else 1


def cmd_fetch(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.report:
            text = _json.dumps(
                client.report(args.run_id), indent=2, sort_keys=True
            ) + "\n"
        else:
            text = client.result_text(args.run_id)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_fleet(args) -> int:
    from repro.analysis.fleet import project_fleet

    result = read_log(args.log)
    projection = project_fleet(result, n_devices=args.devices)
    print(f"fleet of {projection.n_devices} devices running {projection.label}:")
    print(f"  per-device SDC FIT      : {projection.device_fit:.2f} a.u.")
    print(f"  fleet SDC rate          : {projection.fleet_sdc_rate:.1f} a.u.")
    print(f"  fleet MTBF (relative)   : {projection.fleet_mtbf:.3g} a.u. hours")
    print(f"  silent share of failures: {projection.silent_fraction():.0%}")
    return 0


def _load_matrix(path: str):
    """Load + expand a matrix file, or raise ``MatrixError``."""
    from repro.matrix import expand_matrix, load_matrix_file

    return expand_matrix(load_matrix_file(path), source=path)


def _matrix_run_driver(args, matrix):
    from repro.matrix import MatrixRun

    client = _service_client(args) if getattr(args, "url", None) else None
    return MatrixRun(
        matrix,
        args.store,
        client=client,
        workers=args.workers,
        chunk_size=args.chunk_size,
        backend=args.backend,
        retries=args.retries,
        sampling=_sampling_policy(args),
        wait_timeout=getattr(args, "wait_timeout", 600.0),
    )


def _render_matrix_cells(status: dict) -> str:
    from repro._util.text import format_table

    rows = [
        (
            cell["cell_id"],
            cell["run_id"],
            cell["state"],
            "yes" if cell["cached"] else "",
        )
        for cell in status["cells"]
    ]
    counts = status["counts"]
    tally = ", ".join(
        f"{state}: {n}" for state, n in counts.items() if n
    )
    return (
        f"matrix {status['matrix']} ({status['matrix_id']}) — {tally}\n"
        + format_table(("cell", "run id", "state", "cached"), rows)
    )


def cmd_matrix_expand(args) -> int:
    import json as _json

    from repro._util.text import format_table
    from repro.matrix import MatrixError
    from repro.store import CampaignStore, RunStatus

    try:
        matrix = _load_matrix(args.file)
    except MatrixError as err:
        return _input_error(str(err))
    store = CampaignStore(args.store)
    cells = []
    for cell in matrix.cells:
        stored = store.load_spec(cell.spec)
        cached = stored is not None and stored.status == RunStatus.COMPLETE
        cells.append(
            {
                "cell_id": cell.cell_id,
                "run_id": cell.run_id,
                "spec": cell.spec.to_dict(),
                "cached": cached,
            }
        )
    if args.json:
        payload = {
            "matrix": matrix.name,
            "matrix_id": matrix.matrix_id,
            "cells": cells,
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            cell["cell_id"],
            cell["run_id"],
            cell["spec"]["n_faulty"],
            "cached" if cell["cached"] else "",
        )
        for cell in cells
    ]
    n_cached = sum(1 for cell in cells if cell["cached"])
    print(
        f"matrix {matrix.name} ({matrix.matrix_id}): "
        f"{len(cells)} cells, {n_cached} already complete in {args.store}"
    )
    print(format_table(("cell", "run id", "faulty", "cache"), rows))
    return 0


def cmd_matrix_run(args) -> int:
    import json as _json

    from repro.matrix import MatrixError
    from repro.service import ServiceError

    try:
        matrix = _load_matrix(args.file)
    except MatrixError as err:
        return _input_error(str(err))
    if args.dry_run:
        return cmd_matrix_expand(args)
    driver = _matrix_run_driver(args, matrix)
    try:
        status = driver.run(only_failed=args.only_failed)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
    else:
        print(_render_matrix_cells(status))
        if status["done"]:
            print()
            print(driver.render_report())
    bad = status["counts"]["failed"] + status["counts"]["interrupted"]
    if bad and not args.json:
        print(
            f"{bad} cell(s) failed or interrupted; "
            f"`repro matrix rerun-failures {args.file}` resubmits them",
            file=sys.stderr,
        )
    return 1 if bad else 0


def cmd_matrix_status(args) -> int:
    import json as _json

    from repro.matrix import MatrixError, MatrixRun

    try:
        matrix = _load_matrix(args.file)
    except MatrixError as err:
        return _input_error(str(err))
    driver = MatrixRun(matrix, args.store)
    status = driver.status()
    if args.report and not status["done"]:
        print(
            "error: matrix is not complete yet; run "
            f"`repro matrix run {args.file}` first",
            file=sys.stderr,
        )
        return 1
    if args.json:
        payload = driver.report() if args.report else status
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.report:
        print(driver.render_report())
        return 0
    print(_render_matrix_cells(status))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Radiation-induced error criticality: campaigns, "
        "figures, log analysis (HPCA 2017 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        func=cmd_tables
    )

    campaign = sub.add_parser(
        "campaign", help="run one beam campaign",
        parents=[_strategy_parent(workers_default=1)],
    )
    campaign.add_argument("kernel", choices=sorted(KERNEL_FACTORIES))
    campaign.add_argument("device", choices=sorted(DEVICE_FACTORIES))
    campaign.add_argument(
        "--config", nargs="*", default=[], metavar="KEY=VALUE",
        help="kernel options, e.g. n=256 / nb=6 particles_per_box=24",
    )
    campaign.add_argument("--faulty", type=int, default=100)
    campaign.add_argument("--seed", type=int, default=2017)
    campaign.add_argument(
        "--natural", type=int, default=0, metavar="N",
        help="natural mode with N executions (Poisson strikes)",
    )
    campaign.add_argument("--log", help="write a JSONL campaign log here")
    campaign.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write structured span events (campaign/chunk/execution, with "
        "timings, worker ids and outcomes) to this JSONL file; analyse it "
        "later with `repro telemetry`",
    )
    campaign.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="export campaign metrics (executions by outcome, injection "
        "latency, golden-cache hit rate) here; a .json suffix selects JSON, "
        "anything else Prometheus text format",
    )
    campaign.add_argument(
        "--progress", type=float, default=0.0, metavar="SECONDS",
        help="print a live throughput line to stderr at most every "
        "SECONDS seconds (0 = off)",
    )
    campaign.set_defaults(func=cmd_campaign)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="fig2a..fig9 (see module docstring)")
    figure.add_argument(
        "--scale", default="default", choices=("test", "default", "paper")
    )
    figure.set_defaults(func=cmd_figure)

    analyze = sub.add_parser("analyze", help="re-analyse a campaign log")
    analyze.add_argument("log")
    analyze.add_argument(
        "--threshold", type=float, default=None,
        help="re-filter at this relative-error tolerance (percent)",
    )
    analyze.set_defaults(func=cmd_analyze)

    telemetry = sub.add_parser(
        "telemetry", help="timing/throughput report from a campaign trace"
    )
    telemetry.add_argument("trace", help="trace JSONL written by --trace")
    telemetry.add_argument(
        "--json", action="store_true",
        help="emit the raw report as JSON instead of tables",
    )
    telemetry.set_defaults(func=cmd_telemetry)

    queue = sub.add_parser(
        "queue",
        help="run several campaigns over one shared pool, journaled",
        parents=[_strategy_parent(include_backend=True, include_retries=True)],
    )
    queue.add_argument(
        "kernel", nargs="?", choices=sorted(KERNEL_FACTORIES), default=None
    )
    queue.add_argument(
        "device", nargs="?", choices=sorted(DEVICE_FACTORIES), default=None
    )
    queue.add_argument(
        "--jobs", metavar="FILE", default=None,
        help="JSON list of campaign specs "
        '(e.g. [{"kernel": "dgemm", "device": "k40", "config": {"n": 256}, '
        '"n_faulty": 100, "priority": 2}])',
    )
    queue.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE")
    queue.add_argument("--faulty", type=int, default=100)
    queue.add_argument("--seed", type=int, default=2017)
    queue.add_argument(
        "--priority", type=int, default=1,
        help="fair-share weight (higher = more chunks per round)",
    )
    queue.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    queue.add_argument(
        "--json", action="store_true",
        help="machine-readable outcomes (run_id/status/records/retries)",
    )
    queue.set_defaults(func=cmd_queue)

    resume = sub.add_parser(
        "resume", help="finish an interrupted run from its journal",
        parents=[_strategy_parent(include_backend=True)],
    )
    resume.add_argument("run_id", help="content-addressed id (see `repro runs`)")
    resume.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    resume.set_defaults(func=cmd_resume)

    matrix = sub.add_parser(
        "matrix",
        help="declarative campaign matrices: expand, run, roll up sweeps",
    )
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)

    m_expand = matrix_sub.add_parser(
        "expand",
        help="expand a matrix file to its cells without running anything",
    )
    m_expand.add_argument("file", help="matrix file (YAML subset or JSON)")
    m_expand.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    m_expand.add_argument(
        "--json", action="store_true",
        help="machine-readable cells (cell_id/run_id/spec/cached)",
    )
    m_expand.set_defaults(func=cmd_matrix_expand)

    def add_matrix_run_flags(verb):
        verb.add_argument("file", help="matrix file (YAML subset or JSON)")
        verb.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
        verb.add_argument(
            "--url", default=None, metavar="URL",
            help="submit cells to a running campaign service instead of "
            "executing in-process (fleet-compatible via `repro serve`)",
        )
        verb.add_argument(
            "--wait-timeout", type=float, default=600.0, dest="wait_timeout",
            metavar="SECONDS",
            help="service path: total budget to wait for cells (default: 600)",
        )
        verb.add_argument("--json", action="store_true")

    m_run = matrix_sub.add_parser(
        "run",
        help="run every outstanding cell of a matrix",
        parents=[_strategy_parent(include_backend=True, include_retries=True)],
    )
    add_matrix_run_flags(m_run)
    m_run.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="expand and annotate cache hits, submit nothing",
    )
    m_run.set_defaults(func=cmd_matrix_run, only_failed=False)

    m_rerun = matrix_sub.add_parser(
        "rerun-failures",
        help="resubmit only the cells whose last state is failed/interrupted",
        parents=[_strategy_parent(include_backend=True, include_retries=True)],
    )
    add_matrix_run_flags(m_rerun)
    m_rerun.set_defaults(func=cmd_matrix_run, only_failed=True, dry_run=False)

    m_status = matrix_sub.add_parser(
        "status", help="per-cell state + cache info from the manifest"
    )
    m_status.add_argument("file", help="matrix file (YAML subset or JSON)")
    m_status.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    m_status.add_argument(
        "--report", action="store_true",
        help="print the aggregate FIT/SDC roll-up (matrix must be complete)",
    )
    m_status.add_argument("--json", action="store_true")
    m_status.set_defaults(func=cmd_matrix_status)

    runs = sub.add_parser("runs", help="list stored campaign runs")
    runs.add_argument(
        "run_id", nargs="?", default=None,
        help="show one run in detail instead of the listing",
    )
    runs.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    runs.add_argument(
        "--json", action="store_true",
        help="machine-readable index (same schema as the service's /v1/runs)",
    )
    runs.set_defaults(func=cmd_runs)

    serve = sub.add_parser(
        "serve", help="run the campaign service (HTTP daemon over a store)",
        parents=[_strategy_parent(include_backend=True, include_retries=True)],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 = pick an ephemeral port, announced on stdout)",
    )
    serve.add_argument("--store", default=DEFAULT_STORE, metavar="DIR")
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission-queue bound; a full queue answers 429 + Retry-After",
    )
    serve.add_argument(
        "--log-requests", action="store_true",
        help="emit an access-log line per request to stderr",
    )
    serve.add_argument(
        "--fleet", action="store_true",
        help="run as a fleet coordinator: campaigns are leased chunk by "
        "chunk to `repro agent` processes instead of running on a local "
        "pool (see docs/fleet.md)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, dest="lease_ttl",
        metavar="SECONDS",
        help="fleet mode: seconds a chunk lease lives without a "
        "heartbeat before its chunk is reassigned (default: 15)",
    )
    serve.set_defaults(func=cmd_serve)

    agent = sub.add_parser(
        "agent",
        help="run a fleet worker agent against a coordinator "
        "(`repro serve --fleet`)",
    )
    agent.add_argument("--url", default="http://127.0.0.1:8765")
    agent.add_argument(
        "--name", default=None, metavar="NAME",
        help="how the agent introduces itself (default: host-pid)",
    )
    agent.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle wait between empty lease polls (default: 0.5)",
    )
    agent.add_argument(
        "--idle-exit", type=float, default=None, dest="idle_exit",
        metavar="SECONDS",
        help="exit after this many consecutive seconds without work "
        "(default: poll forever; SIGINT drains)",
    )
    agent.add_argument(
        "--max-chunks", type=int, default=None, dest="max_chunks",
        metavar="N",
        help="exit after committing N chunks (default: unbounded)",
    )
    agent.set_defaults(func=cmd_agent)

    submit = sub.add_parser(
        "submit", help="submit campaign(s) to a running campaign service",
        parents=[
            _strategy_parent(include_workers=False)
        ],
    )
    submit.add_argument(
        "kernel", nargs="?", choices=sorted(KERNEL_FACTORIES), default=None
    )
    submit.add_argument(
        "device", nargs="?", choices=sorted(DEVICE_FACTORIES), default=None
    )
    submit.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE")
    submit.add_argument("--faulty", type=int, default=100)
    submit.add_argument("--seed", type=int, default=2017)
    submit.add_argument("--priority", type=int, default=1)
    submit.add_argument(
        "--jobs", metavar="FILE", default=None,
        help="JSON list of campaign specs (same format as `repro queue`)",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8765")
    submit.add_argument(
        "--wait", action="store_true",
        help="poll each submission to a terminal state before exiting",
    )
    submit.add_argument("--json", action="store_true")
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="query one submitted run on a campaign service"
    )
    status.add_argument("run_id")
    status.add_argument("--url", default="http://127.0.0.1:8765")
    status.add_argument(
        "--wait", action="store_true",
        help="poll until the run reaches a terminal state",
    )
    status.add_argument("--json", action="store_true")
    status.set_defaults(func=cmd_status)

    fetch = sub.add_parser(
        "fetch", help="download a completed run's log (or report) over HTTP"
    )
    fetch.add_argument("run_id")
    fetch.add_argument("--url", default="http://127.0.0.1:8765")
    fetch.add_argument(
        "--report", action="store_true",
        help="fetch the criticality/telemetry report (JSON) instead of the log",
    )
    fetch.add_argument("--output", metavar="PATH", default=None)
    fetch.set_defaults(func=cmd_fetch)

    fleet = sub.add_parser("fleet", help="project a campaign onto a fleet")
    fleet.add_argument("log")
    fleet.add_argument("--devices", type=int, default=18_688)
    fleet.set_defaults(func=cmd_fleet)

    verify = sub.add_parser(
        "verify", help="check every registered paper claim against the model"
    )
    verify.add_argument(
        "--scale", default="default", choices=("test", "default", "paper")
    )
    verify.set_defaults(func=cmd_verify)

    plan = sub.add_parser("plan", help="allocate beam hours across configs")
    plan.add_argument("kernels", nargs="+", choices=sorted(KERNEL_FACTORIES))
    plan.add_argument("--hours", type=float, default=400.0)
    plan.add_argument("--facility", choices=("lansce", "isis"), default="lansce")
    plan.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE")
    plan.set_defaults(func=cmd_plan)

    device = sub.add_parser("device", help="print a device-model datasheet")
    device.add_argument("device", choices=sorted(DEVICE_FACTORIES))
    device.add_argument(
        "--kernel", choices=sorted(KERNEL_FACTORIES), default=None,
        help="also print this kernel's strike surface on the device",
    )
    device.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE")
    device.set_defaults(func=cmd_device)

    report = sub.add_parser("report", help="run the full study, render it")
    report.add_argument(
        "--scale", default="default", choices=("test", "default", "paper")
    )
    report.add_argument("--output", help="write the report here")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
