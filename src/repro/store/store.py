"""The durable campaign store: journaled runs, indexed and queryable.

Layout (everything under one root directory)::

    <root>/
      runs/
        <run_id>.jsonl       one CRC-checked journal per campaign run

The run id *is* the content hash of the campaign spec
(:meth:`repro.store.spec.CampaignSpec.run_id`), which makes the runs
directory a content-addressed index: looking a spec up is a single
``exists`` check, resubmitting finished work is a cache hit, and two
stores built from the same specs agree on every file name.

:class:`CampaignStore` is the query half the analysis layer and CLI
reuse — ``find``/``load``/``summaries`` answer "which runs do I have,
how far did they get, give me one back as a
:class:`~repro.beam.campaign.CampaignResult`" without touching the
simulator.  The write half (journaling records as they land, resuming
after a crash) lives in :mod:`repro.store.runner` and the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro._util.text import format_table
from repro.store.journal import (
    JOURNAL_FORMAT_VERSION,
    Journal,
    JournalError,
    read_header,
)
from repro.store.spec import CampaignSpec

__all__ = ["RunStatus", "RunSummary", "StoredRun", "CampaignStore"]


class RunStatus:
    """Lifecycle states a stored run can be in."""

    COMPLETE = "complete"
    INCOMPLETE = "incomplete"  # open journal, no close record: resumable


@dataclass(frozen=True)
class RunSummary:
    """One stored run, as listed by ``repro runs``."""

    run_id: str
    kernel: str
    device: str
    label: str
    seed: int
    status: str
    n_records: int
    n_expected: int
    created: float
    path: Path

    @property
    def progress(self) -> str:
        return f"{self.n_records}/{self.n_expected}"

    def to_dict(self) -> dict:
        """The stable machine-readable schema for one stored run.

        Shared verbatim by ``repro runs --json`` and the campaign
        service's ``GET /v1/runs`` — scripts can consume either without
        caring which surface produced it.
        """
        return {
            "run_id": self.run_id,
            "kernel": self.kernel,
            "device": self.device,
            "label": self.label,
            "seed": self.seed,
            "status": self.status,
            "n_records": self.n_records,
            "n_expected": self.n_expected,
            "created": self.created,
            "path": str(self.path),
        }


@dataclass
class StoredRun:
    """A fully-loaded run: spec, durable records, completion state."""

    run_id: str
    spec: CampaignSpec
    rows: list          # durable "record" payload rows, journal order
    close: "dict | None"
    created: float
    path: Path
    plans: list = field(default_factory=list)  # adaptive "plan" rows, in order
    format_version: int = JOURNAL_FORMAT_VERSION  # encoding of ``rows``

    @property
    def adaptive(self) -> bool:
        """Whether the journal was written by an adaptive-sampling run."""
        return bool(self.plans)

    @property
    def status(self) -> str:
        return RunStatus.COMPLETE if self.close else RunStatus.INCOMPLETE

    def done_indices(self) -> set:
        """Execution indices already durable — what a resume can skip."""
        return {row["index"] for row in self.rows}

    def records(self) -> list:
        """Durable records as :class:`ExecutionRecord`\\ s, sorted by index."""
        from repro.beam.logs import row_to_record

        records = [
            row_to_record(row, format_version=self.format_version)
            for row in self.rows
        ]
        records.sort(key=lambda record: record.index)
        return records

    def result(self):
        """The run as a :class:`~repro.beam.campaign.CampaignResult`.

        Complete runs use the journaled close record's exact fluence and
        cross-section, so the result is bit-identical to the one the live
        run returned.  Incomplete runs raise — resume them first.
        """
        from repro.beam.campaign import CampaignResult

        if self.close is None:
            raise JournalError(
                f"run {self.run_id} is incomplete "
                f"({len(self.rows)}/{self.spec.n_faulty} records durable); "
                "resume it with `repro resume` before analysing"
            )
        result = CampaignResult(
            kernel_name=self.spec.kernel,
            device_name=self.spec.device,
            label=self.spec.resolved_label(),
            records=self.records(),
            fluence=self.close["fluence"],
            cross_section=self.close["cross_section"],
            n_executions=self.close["n_executions"],
            threshold_pct=self.spec.resolved_threshold(),
        )
        if "sampling" in self.close:
            # Adaptive runs: the calibrated pooled estimate travels in the
            # close record (see repro.store.runner.finalise_journal).
            result.aux["sampling"] = self.close["sampling"]
        return result


class CampaignStore:
    """Content-addressed store of journaled campaign runs (see module doc)."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    # -- paths and existence -----------------------------------------------------

    def path_for(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.jsonl"

    def has(self, run_id: str) -> bool:
        return self.path_for(run_id).exists()

    def run_ids(self) -> list:
        return sorted(path.stem for path in self.runs_dir.glob("*.jsonl"))

    # -- journal lifecycle -------------------------------------------------------

    def create_run(self, spec: CampaignSpec) -> Journal:
        """Start a fresh journal for a spec (header = run id + spec)."""
        run_id = spec.run_id()
        return Journal.create(
            self.path_for(run_id),
            {"run_id": run_id, "spec": spec.to_dict()},
        )

    def open_run(self, run_id: str, *, read_only: bool = False) -> Journal:
        """Re-open an existing run's journal (validates, drops torn tail)."""
        return Journal.open(self.path_for(run_id), read_only=read_only)

    # -- loading -----------------------------------------------------------------

    @staticmethod
    def _spec_of(header: dict, path: Path) -> CampaignSpec:
        if "spec" not in header:
            raise JournalError(f"{path}: journal header has no spec")
        return CampaignSpec.from_dict(header["spec"])

    def spec_for(self, run_id: str) -> CampaignSpec:
        """A stored run's spec, read from its journal header alone."""
        path = self.path_for(run_id)
        return self._spec_of(read_header(path), path)

    def load(self, run_id: str) -> StoredRun:
        """Load one run's durable state (read-only; no tail truncation)."""
        journal = self.open_run(run_id, read_only=True)
        rows = [record["row"] for record in journal.records("record")]
        return StoredRun(
            run_id=journal.header.get("run_id", run_id),
            spec=self._spec_of(journal.header, journal.path),
            rows=rows,
            close=journal.close_record,
            created=journal.header.get("created", 0.0),
            path=journal.path,
            plans=journal.records("plan"),
            format_version=journal.header["journal_format_version"],
        )

    def load_spec(self, spec: CampaignSpec) -> "StoredRun | None":
        """Content-addressed lookup: this spec's run, if any is stored."""
        run_id = spec.run_id()
        return self.load(run_id) if self.has(run_id) else None

    # -- queries -----------------------------------------------------------------

    def runs(self) -> list:
        """Every stored run, loaded once, sorted by creation time."""
        out = [self.load(run_id) for run_id in self.run_ids()]
        out.sort(key=lambda run: (run.created, run.run_id))
        return out

    def summaries(self) -> list:
        """One :class:`RunSummary` per stored run, sorted by creation time."""
        return [
            RunSummary(
                run_id=run.run_id,
                kernel=run.spec.kernel,
                device=run.spec.device,
                label=run.spec.resolved_label(),
                seed=run.spec.seed,
                status=run.status,
                n_records=len(run.rows),
                n_expected=run.spec.n_faulty,
                created=run.created,
                path=run.path,
            )
            for run in self.runs()
        ]

    def find(
        self,
        *,
        kernel: "str | None" = None,
        device: "str | None" = None,
        status: "str | None" = None,
        seed: "int | None" = None,
        label: "str | None" = None,
    ) -> list:
        """Filter :meth:`summaries` by any combination of criteria."""
        matches = []
        for summary in self.summaries():
            if kernel is not None and summary.kernel != kernel:
                continue
            if device is not None and summary.device != device:
                continue
            if status is not None and summary.status != status:
                continue
            if seed is not None and summary.seed != seed:
                continue
            if label is not None and summary.label != label:
                continue
            matches.append(summary)
        return matches

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Human-readable run listing (the ``repro runs`` table)."""
        summaries = self.summaries()
        if not summaries:
            return f"no stored runs under {self.root}"
        rows = [
            (
                summary.run_id,
                summary.label,
                summary.seed,
                summary.progress,
                summary.status,
            )
            for summary in summaries
        ]
        return format_table(
            ("run id", "campaign", "seed", "records", "status"), rows
        )
