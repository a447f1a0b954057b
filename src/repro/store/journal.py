"""Append-only, CRC-checked JSONL journals: the durability primitive.

Beam time is the scarcest resource in the source paper — a crashed host
mid-session loses unrecoverable data, which is why the paper's operational
framing (and :mod:`repro.analysis.checkpointing`) centres on durable
intermediate state.  A :class:`Journal` is that state for a campaign run:

* **Append-only JSONL.**  One JSON object per line.  The first record is
  always ``kind="open"`` (the run header); struck executions land as
  ``kind="record"`` lines; a finished run ends with ``kind="close"``.
* **CRC-checked.**  Every line ends with a ``crc`` field: the CRC-32 of
  the line's own bytes as :func:`json.dumps` wrote them before the field
  was added.  The reader checks it on the raw bytes, with no re-encode.
  A flipped bit anywhere in a line is detected on open.
* **fsync'd batches.**  :meth:`append` only buffers; :meth:`commit` writes
  the batch, flushes, and ``fsync``\\ s.  A record is *durable* exactly when
  its commit returned — the unit the resume path can trust.
* **Torn-tail truncation.**  A crash mid-write leaves a torn final line
  (unterminated, half-written, or CRC-mismatched).  :meth:`Journal.open`
  detects it, truncates the file back to the last durable record, and
  reports the dropped bytes.  Corruption *before* the tail is not
  silently repaired — it raises :class:`JournalCorruptError`.

Journals never rewrite history: resuming a run appends to the same file,
and the reader treats the set of ``record`` lines as unordered (records
are keyed by execution index; per-execution RNG seeding makes them
independent of arrival order).  The one exception is a journal written
in format 1 (CRC over a canonical re-encoding, ``float.hex`` rows): it
still loads read-only as written, and opening it for append first
rewrites it in the current format, atomically (temp file, fsync, rename).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability import runtime as obs_runtime

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalCorruptError",
    "Journal",
    "scan_journal",
]

JOURNAL_FORMAT_VERSION = 2


class JournalError(ValueError):
    """The file is not a usable journal (bad header, wrong version...)."""


class JournalCorruptError(JournalError):
    """A non-tail record failed validation — the journal is damaged.

    Torn *tails* are expected after a crash and are repaired silently;
    corruption anywhere else means the storage lied and must surface.
    """


def _crc32(data: bytes) -> str:
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def _seal(payload: dict) -> str:
    """Render one journal line: payload + the CRC of its bytes, plus newline.

    The payload is encoded once; the ``crc`` key is spliced in last, so
    the checked bytes are the line minus that key.  ``json.dumps`` keeps
    ``Infinity``/``NaN`` (criticality summaries carry them), and the
    checksum covers them like any other bytes.
    """
    body = json.dumps(payload)
    return f'{body[:-1]}, "crc": "{_crc32(body.encode())}"}}\n'


def _crc_ok_v2(raw: bytes, payload: dict) -> bool:
    tail = f', "crc": "{payload["crc"]}"}}'.encode()
    return raw.endswith(tail) and (
        _crc32(raw[: -len(tail)] + b"}") == payload["crc"]
    )


def _crc_ok_v1(raw: bytes, payload: dict) -> bool:
    """Format 1: CRC of the canonical encoding (sorted keys, compact)."""
    body = {key: value for key, value in payload.items() if key != "crc"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return payload["crc"] == _crc32(canonical.encode("ascii"))


#: CRC check per readable format version, chosen by the ``open`` header.
_CRC_CHECKS = {1: _crc_ok_v1, 2: _crc_ok_v2}


def _upgrade_v1(record: dict) -> dict:
    """A format-1 record as the current writer emits it (same bits)."""
    kind = record.get("kind")
    if kind == "open":
        return dict(record, journal_format_version=JOURNAL_FORMAT_VERSION)
    if kind == "record" and "row" in record:
        from repro.beam.logs import upgrade_row

        return dict(record, row=upgrade_row(record["row"], format_version=1))
    return record


def _rewrite(path: Path, records: list) -> None:
    """Replace a journal by ``records`` atomically: temp file, fsync, rename."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write("".join(_seal(record) for record in records).encode())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class ScanResult:
    """What :func:`scan_journal` found in a journal file."""

    records: list = field(default_factory=list)  # valid payloads sans crc, in order
    version: "int | None" = None  # the open header's journal_format_version
    valid_bytes: int = 0        # prefix length holding only durable records
    torn_bytes: int = 0         # trailing bytes belonging to a torn write
    torn_reason: str = ""       # why the tail was judged torn ("" if clean)


def scan_journal(path: "str | Path") -> ScanResult:
    """Validate a journal file line by line.

    Returns every durable record plus the byte offset where durability
    ends.  A defective *final* line (unterminated, unparsable, or CRC
    mismatch) is reported as a torn tail; a defective line anywhere else
    raises :class:`JournalCorruptError`.
    """
    path = Path(path)
    data = path.read_bytes()
    result = ScanResult()
    crc_ok = None  # picked by the first line (the open header)
    offset = 0
    lines = data.split(b"\n")
    # split() yields a final "" element when data ends with a newline; any
    # other final element is an unterminated tail.
    for lineno, raw in enumerate(lines):
        is_last = lineno == len(lines) - 1
        if is_last:
            if raw:
                result.torn_bytes = len(raw)
                result.torn_reason = "unterminated final line"
            break
        line_bytes = len(raw) + 1  # + newline
        torn_reason = ""
        payload = None
        if not raw.strip():
            torn_reason = "blank line"
        else:
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                torn_reason = "unparsable JSON"
        if payload is not None and not torn_reason:
            if not isinstance(payload, dict) or "crc" not in payload:
                torn_reason = "record without crc"
            else:
                if crc_ok is None:
                    result.version = payload.get("journal_format_version")
                    crc_ok = _CRC_CHECKS.get(result.version, _crc_ok_v2)
                if not crc_ok(raw, payload):
                    torn_reason = "crc mismatch"
        if torn_reason:
            # Only the *tail* may be torn: every byte after this line must
            # belong to the same interrupted write (i.e. nothing but this
            # defective line and possibly an unterminated fragment remain).
            if lineno != len(lines) - 2:
                raise JournalCorruptError(
                    f"{path}: {torn_reason} at line {lineno + 1} "
                    "(not at the tail) — journal is corrupt"
                )
            result.torn_bytes = len(data) - offset
            result.torn_reason = torn_reason
            break
        del payload["crc"]
        result.records.append(payload)
        offset += line_bytes
        result.valid_bytes = offset
    return result


class Journal:
    """One campaign run's durable, append-only record stream.

    Use the constructors:

    * :meth:`Journal.create` — start a fresh journal with an ``open``
      header record (immediately durable).
    * :meth:`Journal.open` — re-open an existing journal, validating CRCs
      and truncating a torn tail; appending then resumes the run.

    A journal open for append keeps the header, ``plan``, ``close`` and
    other control records in memory, plus the set of durable ``record``
    indices — not the rows themselves, which only the file holds.
    """

    def __init__(self, path: Path, records: list, *, _fh=None):
        self.path = Path(path)
        self._records: list = []
        self._done: set = set()
        self._rows_on_disk = False  # record rows dropped from memory
        self._pending: list[dict] = []
        self._fh = _fh
        self._retain(records)

    def _retain(self, records: list) -> None:
        for record in records:
            if record.get("kind") == "record":
                self._done.add(record.get("index"))
                if self._fh is not None:
                    self._rows_on_disk = True
                    continue
            self._records.append(record)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def create(cls, path: "str | Path", header: "dict | None" = None) -> "Journal":
        """Create a new journal; writes + fsyncs the ``open`` record."""
        path = Path(path)
        if path.exists():
            raise JournalError(f"journal already exists: {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "kind": "open",
            "journal_format_version": JOURNAL_FORMAT_VERSION,
            "created": time.time(),
        }
        record.update(header or {})
        fh = path.open("ab")
        journal = cls(path, [], _fh=fh)
        journal._pending.append(record)
        journal.commit()
        return journal

    @classmethod
    def open(cls, path: "str | Path", *, read_only: bool = False) -> "Journal":
        """Open an existing journal: validate, truncate torn tail, resume.

        With ``read_only`` the torn tail (if any) is *ignored* rather than
        truncated and no file handle is kept open — the mode queries use.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no such journal: {path}")
        scan = scan_journal(path)
        if not scan.records:
            raise JournalError(f"{path}: no durable records (empty journal)")
        head = scan.records[0]
        if head.get("kind") != "open":
            raise JournalError(f"{path}: first record is not an open header")
        if scan.version not in _CRC_CHECKS:
            raise JournalError(
                f"{path}: unsupported journal format {scan.version!r}"
            )
        if read_only:
            return cls(path, scan.records, _fh=None)
        records = scan.records
        if scan.version != JOURNAL_FORMAT_VERSION:
            records = [_upgrade_v1(record) for record in records]
            _rewrite(path, records)  # also drops any torn tail
        elif scan.torn_bytes:
            # Drop the torn tail so the append stream restarts cleanly at
            # the last durable record.
            with path.open("r+b") as fh:
                fh.truncate(scan.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, records, _fh=path.open("ab"))

    # -- querying ----------------------------------------------------------------

    @property
    def header(self) -> dict:
        """The ``open`` record (run id, spec, creation time)."""
        return self._records[0]

    def records(self, kind: "str | None" = None) -> list:
        """Durable records (committed, CRC-valid), optionally by kind.

        On a journal open for append, ``record`` rows are re-read from
        the file.
        """
        out = self._records
        if self._rows_on_disk and kind in (None, "record"):
            out = scan_journal(self.path).records
        if kind is None:
            return list(out)
        return [record for record in out if record.get("kind") == kind]

    def done_indices(self) -> set:
        """Execution indices of the durable ``record`` rows."""
        return set(self._done)

    @property
    def close_record(self) -> "dict | None":
        """The ``close`` record, or ``None`` while the run is incomplete."""
        for record in reversed(self._records):
            if record.get("kind") == "close":
                return record
        return None

    @property
    def is_complete(self) -> bool:
        return self.close_record is not None

    def pending(self) -> int:
        """Appended-but-uncommitted records (not yet durable)."""
        return len(self._pending)

    # -- appending ---------------------------------------------------------------

    def append(self, kind: str, **payload) -> dict:
        """Buffer one record; it becomes durable at the next :meth:`commit`."""
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is not open for append")
        record = {"kind": kind, **payload}
        self._pending.append(record)
        return record

    def commit(self) -> int:
        """Write + flush + fsync the buffered batch; returns records written.

        One commit is one durability unit: after it returns, every record
        appended before it survives a crash (modulo the storage keeping its
        fsync promise).  Metrics (``repro_journal_records_total``,
        ``repro_journal_commits_total``) land on the PR 2 switchboard when
        one is configured.
        """
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is not open for append")
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = []
        self._fh.write("".join(_seal(record) for record in batch).encode())
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._retain(batch)
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            metrics.counter(
                "repro_journal_records_total",
                "Records made durable in campaign journals",
            ).inc(len(batch))
            metrics.counter(
                "repro_journal_commits_total",
                "fsync'd journal commit batches",
            ).inc()
        return len(batch)

    def close(self) -> None:
        """Commit anything pending and release the file handle."""
        if self._fh is not None:
            if self._pending:
                self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
