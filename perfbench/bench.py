"""The workload runners and the metrics they yield.

Both runners go through the program's public entry points with every
execution knob left at its default: ``repro.store.execute_spec`` for the
journaled workloads, and ``CampaignService`` + ``ServiceServer`` driven by
``ServiceClient`` for ``service-mix``.  Each campaign's outputs are checked
against ``expected.json`` outside the timed region.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats, workloads
from perfbench.prepare import Service

TERMINAL = ("complete", "failed", "interrupted")


@dataclass
class CampaignRun:
    """One submission as the benchmark saw it."""

    group: str
    adaptive: bool
    resubmit: bool
    turnaround: float = 0.0
    executions: int = 0
    sampling: "dict | None" = None


@dataclass
class Outcome:
    """Everything one timed loop produced."""

    runs: list = field(default_factory=list)
    wall: float = 0.0  # timed seconds, output checks excluded
    tally: stats.Tally = field(default_factory=stats.Tally)
    requests: int = 0
    http_errors: int = 0
    journal_bytes: int = 0
    registries: list = field(default_factory=list)

    @property
    def executions(self) -> int:
        return sum(run.executions for run in self.runs)

    def exec_per_s(self) -> float:
        return self.executions / self.wall

    def turnaround_p50(self, *, adaptive: bool) -> dict:
        """Median turnaround of the fixed-fluence or the target-CI runs.

        Taken per campaign template and combined by geometric mean
        (:func:`stats.grouped_median`).  Resubmissions count as
        fixed-fluence: they fetch a stored result and reach no interval
        of their own.
        """
        return stats.grouped_median(
            (run.group, run.turnaround) for run in self.runs
            if adaptive == (run.adaptive and not run.resubmit)
        )


def _journal_bytes(store_root: Path) -> int:
    return sum(path.stat().st_size for path in store_root.rglob("*.jsonl"))


class _NoSpans:
    """The recorder stand-in of an untraced run."""

    @contextlib.contextmanager
    def span(self, name, layer, **attrs):
        yield None


def _check(expected: dict, item, result, sampling) -> list:
    """Mismatches of one campaign's outputs against the recorded ones."""
    want = expected.get(item.key)
    if want is None:
        return [f"{item.key}: no recorded expectation"]
    got = stats.signature(result, sampling if item.sampling else None)
    return [f"{item.key} {line}" for line in stats.compare(want, got)]


# -- journaled workloads ----------------------------------------------------------


def run_journaled(workload: str, seed: int, seconds: float, work: Path,
                  expected: dict, recorder=None, probes=None) -> Outcome:
    """Rounds of campaigns through ``execute_spec``, each in a fresh store.

    Rounds run until ``seconds`` of campaign time have passed; a set-up
    probe that is due runs between two campaigns, off the clock.
    """
    from repro.beam.logs import log_lines
    from repro.store import CampaignStore, execute_spec

    spans = recorder if recorder is not None else _NoSpans()
    out = Outcome()
    number = 0
    while True:
        store = CampaignStore(work / f"round{number}")
        for item in workloads.journaled_round(workload, seed, number):
            if probes is not None and probes.due(out.wall):
                probes.run()
            run = CampaignRun(item.group, item.sampling is not None, False)
            problems = []
            t0 = time.perf_counter()
            try:
                with spans.span("campaign", "bench",
                                campaign=item.spec.run_id()):
                    outcome = execute_spec(store, item.spec,
                                           sampling=item.sampling)
                    result = store.load(outcome.run_id).result()
                    log_lines(result)
                    result.breakdown()
                    result.summary()
            except Exception as exc:  # one failed campaign, not a failed run
                run.turnaround = time.perf_counter() - t0
                problems.append(f"{item.key}: {type(exc).__name__}: {exc}")
            else:
                run.turnaround = time.perf_counter() - t0
                run.executions = 0 if outcome.cached else len(result.records)
                run.sampling = result.aux.get("sampling")
                problems += _check(expected, item, result, run.sampling)
            out.wall += run.turnaround
            out.runs.append(run)
            out.tally.record(problems)
        out.journal_bytes += _journal_bytes(store.root)
        number += 1
        if out.wall >= seconds:
            return out


# -- service-mix --------------------------------------------------------------------


class _Dispatcher:
    """Hands out the block stream; stops only at a block boundary.

    Whole blocks keep the campaign mix of every run the same, whatever
    the seed or the speed of the program.  A set-up probe that is due
    runs at a block boundary, once the campaigns in flight have ended;
    the clients wait meanwhile, and :attr:`paused` keeps that time off
    the clock.
    """

    def __init__(self, seed: int, seconds: float, probes=None):
        self.seed = seed
        self.seconds = seconds
        self.probes = probes
        self.start = time.perf_counter()
        self.paused = 0.0
        self._cond = threading.Condition()
        self._in_flight = 0
        self._block: list = []
        self._number = -1
        self._position = 0

    def timed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def next(self):
        with self._cond:
            # Every wait releases the lock, and another client may have
            # run the probe or started the next block meanwhile, so the
            # boundary is decided afresh after each wake-up.
            while self._position >= len(self._block):
                if self._number >= 0 and self.timed() >= self.seconds:
                    return None
                if self.probes is not None and self.probes.due(self.timed()):
                    if self._in_flight:
                        self._cond.wait()
                        continue
                    t0 = time.perf_counter()
                    self.probes.run()
                    self.paused += time.perf_counter() - t0
                    continue
                block = workloads.service_block(self.seed, self._number + 1)
                if block is None:
                    return None
                self._number += 1
                self._block, self._position = block, 0
            item = self._block[self._position]
            self._position += 1
            self._in_flight += 1
            return item

    def done(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()


class _Client:
    """One closed-loop client: submit, poll, fetch log and report."""

    def __init__(self, url: str, spans, lock: threading.Lock,
                 fetched: list):
        from repro.service import ServiceClient

        self.client = ServiceClient(url, sleep=self._retry_sleep)
        self.spans = spans
        self.lock = lock
        self.fetched = fetched
        self.requests = 0
        self.http_errors = 0

    def _retry_sleep(self, seconds: float) -> None:
        # The client sleeps only before retrying a 429/503 or a dropped
        # connection, so each call is one more request on the wire.
        self.requests += 1
        time.sleep(seconds)

    def _call(self, name: str, fn, *args, **kwargs):
        self.requests += 1
        with self.spans.span(name, "service"):
            return fn(*args, **kwargs)

    def serve(self, dispatcher: _Dispatcher) -> None:
        from repro.service import ServiceError

        while True:
            item = dispatcher.next()
            if item is None:
                return
            run = CampaignRun(item.group, item.sampling is not None,
                              item.resubmit_of is not None)
            cached, log, problems = False, None, []
            t0 = time.perf_counter()
            try:
                with self.spans.span("campaign", "bench",
                                     campaign=item.spec.run_id()):
                    answer = self._call("submit", self.client.submit,
                                        item.spec, sampling=item.sampling)
                    cached = answer.get("cached", False)
                    run_id = answer["run_id"]
                    while True:
                        status = self._call("status", self.client.status,
                                            run_id)
                        if status["status"] in TERMINAL:
                            break
                        time.sleep(workloads.POLL_S)
                    if status["status"] != "complete":
                        raise RuntimeError(
                            f"campaign ended {status['status']}: "
                            f"{status.get('error')}"
                        )
                    log = self._call("result", self.client.result_text,
                                     run_id)
                    report = self._call("report", self.client.report, run_id)
            except ServiceError as exc:
                self.http_errors += 1
                problems.append(f"{item.key}: {exc}")
            except Exception as exc:  # one failed campaign, not a failed run
                problems.append(f"{item.key}: {type(exc).__name__}: {exc}")
            else:
                run.sampling = report.get("sampling")
            run.turnaround = time.perf_counter() - t0
            dispatcher.done()
            with self.lock:
                self.fetched.append((item, run, cached, log, problems))


def run_service(seed: int, seconds: float, work: Path, expected: dict,
                recorder=None, probes=None) -> Outcome:
    """Two closed-loop HTTP clients against an in-process service."""
    from repro.beam.logs import read_log

    spans = recorder if recorder is not None else _NoSpans()
    out = Outcome()
    service = Service(work / "store")
    lock = threading.Lock()
    fetched: list = []
    try:
        clients = [
            _Client(service.url, spans, lock, fetched)
            for _ in range(workloads.CLIENTS)
        ]
        dispatcher = _Dispatcher(seed, seconds, probes)
        threads = [
            threading.Thread(target=client.serve, args=(dispatcher,),
                             name=f"perfbench-client{i}")
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall = dispatcher.timed()
        out.requests = sum(client.requests for client in clients)
        out.http_errors = sum(client.http_errors for client in clients)
        out.registries.append(service.service.metrics)
    finally:
        service.close()
    # The output check runs after the clock stops; originals go first so
    # each resubmission has the log it must repeat.
    first_logs: dict = {}
    log_path = work / "fetched.jsonl"
    fetched.sort(key=lambda entry: entry[0].resubmit_of is not None)
    for item, run, cached, log, problems in fetched:
        out.runs.append(run)
        if problems:
            out.tally.record(problems)
            continue
        if item.resubmit_of is not None:
            if log != first_logs.get(item.spec.run_id()):
                problems.append(
                    f"{item.key}: resubmission served a different log"
                )
        else:
            first_logs[item.spec.run_id()] = log
        log_path.write_text(log)
        result = read_log(log_path)
        run.executions = 0 if cached else len(result.records)
        problems += _check(expected, item, result, run.sampling)
        out.tally.record(problems)
    out.journal_bytes = _journal_bytes(work / "store")
    return out
