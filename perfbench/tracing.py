"""In-memory spans recorded from the benchmark's side of each layer boundary.

The program is not edited: :func:`instrument` wraps the public entry
points of each layer for the duration of a traced run and restores them
afterwards.  Every span has a name, a layer, start and end (wall clock,
seconds since the epoch, the clock the program's own chunk timings use),
a parent, and the id of the campaign it belongs to.  Pool chunks are not
wrapped: :func:`adopt_chunks` turns the chunk events the program already
emits into spans.  Spans stay in memory until the run ends;
:meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    campaign: "str | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span store; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name, layer, start, campaign, attrs, parent=None) -> Span:
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        if campaign is None and parent is not None:
            campaign = parent.campaign
        with self._lock:
            self._next += 1
            span = Span(
                self._next, name, layer, start,
                parent=parent.span_id if parent is not None else None,
                campaign=campaign, attrs=dict(attrs),
            )
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, layer: str, *, campaign: "str | None" = None,
             **attrs):
        span = self._new(name, layer, time.time(), campaign, attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.time()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: "Span | None" = None, **attrs) -> Span:
        """A finished span measured elsewhere (a pool worker's chunk).

        Its parent is ``parent`` if given, else the thread's open span.
        """
        span = self._new(name, layer, start, None, attrs, parent)
        span.end = end
        return span

    def dump(self) -> list:
        with self._lock:
            return [asdict(span) for span in self.spans]


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its children's cover.

    A child's interval is clipped to its parent's, and overlapping
    children (chunks running side by side on a pool) count once.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        for start, end in intervals:
            start = max(start, edge)
            if end > start:
                covered += end - start
                edge = end
        totals[span.layer] = totals.get(span.layer, 0.0) + max(
            0.0, span.duration - covered
        )
    return totals


#: Spans that own a pool: the chunks they hand out run inside them.
POOL_OWNERS = ("executor.run", "scheduler.run")

#: Clock slack when matching a chunk to its owner: a pool worker stamps a
#: chunk's start with its own ``time.time()`` read.
CONTAINMENT_SLACK_S = 1e-3


def adopt_chunks(recorder: Recorder, events) -> list:
    """Turn the program's own chunk events into spans of the recorder.

    The executor and the scheduler already emit every finished chunk
    (start, duration, backend) to the tracer ``observe`` installs.  Each
    becomes a ``chunk`` span whose parent is the pool owner whose
    interval contains it (the latest-starting one, if several do).  Its
    campaign id is the run id the scheduler stamps on it, else its
    owner's.  A chunk no owner contains keeps no parent.  Returns the new
    spans.
    """
    owners = sorted(
        (span for span in recorder.spans if span.name in POOL_OWNERS),
        key=lambda span: span.start,
    )
    adopted = []
    for event in events:
        if event.kind != "chunk":
            continue
        start, end = event.start, event.start + event.duration
        parent = None
        for owner in owners:
            if owner.start - CONTAINMENT_SLACK_S > start:
                break
            if end <= owner.end + CONTAINMENT_SLACK_S:
                parent = owner
        span = recorder.add(
            "chunk", "beam", start, end, parent=parent,
            backend=event.attrs.get("backend"), n=event.attrs.get("n"),
            worker=event.worker,
        )
        span.campaign = event.attrs.get("run_id", span.campaign)
        adopted.append(span)
    return adopted


def _wrap(recorder: Recorder, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_pool_owner(recorder: Recorder, fn, name: str, layer: str, tracer):
    """Like :func:`_wrap`, and the owner's chunk events reach ``tracer``.

    The service runs each batch under its own ``observe`` scope, with its
    registry and no tracer; inside it, ``tracer`` joins that registry so
    the chunks the scheduler already emits are collected too.
    """
    from repro.observability import runtime

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            if tracer is None or runtime.get_tracer() is not None:
                return fn(*args, **kwargs)
            with runtime.observe(tracer=tracer, metrics=runtime.get_metrics(),
                                 progress=runtime.get_progress()):
                return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(recorder: Recorder, tracer=None):
    """Wrap each layer's public calls with spans; restore them on exit.

    With ``tracer``, every pool owner's chunks are emitted to it, also
    where the program scopes tracing off (see :func:`_wrap_pool_owner`).
    """
    from repro.beam import executor
    from repro.kernels.base import Kernel
    from repro.scheduler import scheduler
    from repro.store import journal, runner, store

    patches = [
        (Kernel, "golden", "golden", "kernels"),
        (executor.CampaignExecutor, "run", "executor.run", "beam"),
        (runner, "record_to_row", "encode", "beam"),
        (journal.Journal, "commit", "commit", "store"),
        (store.CampaignStore, "load", "load", "store"),
        (store.StoredRun, "result", "result", "store"),
        (scheduler.CampaignScheduler, "run", "scheduler.run", "scheduler"),
    ]
    saved = []
    for owner, attr, name, layer in patches:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if name in POOL_OWNERS:
            wrapped = _wrap_pool_owner(recorder, original, name, layer, tracer)
        else:
            wrapped = _wrap(recorder, original, name, layer)
        setattr(owner, attr, wrapped)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
