"""Sharded append-only JSONL result store: a campaign's one log.

Every completed run becomes one JSON line: the run's spec hash, its
parameters, the seed actually used, the flattened metrics and the time
it was appended.  The orchestrating process also appends the few facts
no record holds — a campaign's start and finish, each cell's start
(with its worker's pid), heartbeats, retries and worker deaths — as
lines with a ``type`` key (:func:`is_event`): an event, never a record.
Every reader of a campaign asks the same question — *which record
speaks for a cell* — and this module is the one place that answers it:

- the **cell-status vocabulary** (:data:`TERMINAL_STATUSES`,
  :data:`ATTEMPT_STATUSES`, :data:`LIVE_STATUSES`, :data:`CELL_STATES`),
  imported by the monitor, the Prometheus exposition and the
  ``repro.campaign/v1`` validators;
- the **rule**, :func:`supersedes`: ``ok`` wins, otherwise the most
  recent record does.  :meth:`ResultStore.refresh` applies it to records,
  :meth:`~repro.orchestrator.telemetrybus.CampaignMonitor.handle` to
  ``cell_finished`` events — nothing else decides;
- the **tail reader**, :func:`read_appended`: the complete JSON lines
  appended to one file since a byte offset, shared by the store's index
  and by the serve follower;
- the **index**: :meth:`ResultStore.latest_by_hash` (that record, per
  hash) and :meth:`ResultStore.cell_states` (``ok`` / ``failing`` with
  its failed-attempt count / ``exhausted`` / ``pending``), which resume,
  ``campaign status``, ``campaign report`` and ``repro obs runs`` read
  instead of re-deriving either from a full scan.

Two layouts share one class:

- **single-shard** (the default, and the historical layout): all lines
  in one file, ``results/<name>.jsonl``;
- **sharded** (``shards=N``): lines split across
  ``results/<name>.shard-NN.jsonl`` by spec hash, so a 10k-cell campaign
  never funnels every append and every poll through one file.

A store always *reads* both layouts — a campaign started single-shard
resumes cleanly after being promoted to shards, because the legacy file
is folded in before the shard files.  Lines for one spec hash always
land in the same file, so per-hash append order (what "most recent"
means in the rule, and the order of a cell's events) is preserved under
sharding.

Reads are incremental: the store keeps a byte-offset cursor per file and
an in-memory index (authoritative record and failed-attempt count per
hash, record count) that is extended from the cursors only — a status
poll over a long campaign costs the bytes appended since the previous
poll, not a rescan of the whole store.

Only the orchestrating process writes (workers hand records back over
the dispatcher), so appends never interleave.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

#: Terminal cell statuses, as written into records and ``cell_finished``
#: events (``exhausted`` is the retry-budget-spent marker).
TERMINAL_STATUSES = ("ok", "error", "violation", "exhausted")

#: Statuses that count as a *failed attempt* toward the retry budget.
#: ``exhausted`` markers are bookkeeping, not attempts, and ``ok`` ends
#: the cell's retry life entirely.
ATTEMPT_STATUSES = ("error", "violation")

#: What a monitor cell can show: a terminal status, or ``running``.
LIVE_STATUSES = (*TERMINAL_STATUSES, "running")

#: Every state `/status` and `/metrics` count cells under — the live
#: statuses plus ``pending`` for cells nothing has touched yet.
CELL_STATES = (*LIVE_STATUSES, "pending")


def status_of(record: Mapping[str, Any]) -> str:
    """A record's status; one written without the field finished ``ok``."""
    return record.get("status", "ok")


def is_event(line: Mapping[str, Any]) -> bool:
    """Whether a store line is an event: it has a ``type``; records never do.

    A record written without ``status`` finished ``ok`` (:func:`status_of`),
    so an event read as a record would mark its cell complete.
    """
    return "type" in line


def supersedes(current: Optional[str], new: str) -> bool:
    """The rule: may an outcome of status *new* replace one of *current*?

    ``ok`` wins, otherwise the most recent outcome does — a failed
    re-run never shadows a success, and a cell that never succeeded
    shows its latest attempt.  *current* is ``None`` (or ``running``)
    for a cell with no outcome yet.
    """
    return current != "ok" or new == "ok"


def _parse_line(path: Path, line_no: int, line) -> Optional[Dict[str, Any]]:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        import logging

        logging.getLogger("repro.orchestrator.store").warning(
            "%s:%d: skipping torn/malformed record (%d bytes) "
            "— likely a partial write from a killed run",
            path, line_no, len(line),
        )
        return None
    return record if isinstance(record, dict) else None


def read_appended(path: Path, offset: int) -> Tuple[List[Dict[str, Any]], int]:
    """The complete JSON lines appended to *path* since byte *offset*.

    Returns ``(records, new_offset)``.  A torn trailing line — e.g. from
    a run killed mid-write — stays beyond the returned offset until its
    newline arrives; a complete but malformed line is skipped with a
    warning, never poisoning the file; a missing file reads as empty.
    A file now shorter than *offset* was truncated or rewritten, which
    is answered with ``([], 0)``: the caller starts over from the top.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return [], offset
    if size < offset:
        return [], 0
    if size == offset:
        return [], offset
    with path.open("rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    records = []
    # Line numbers are unknowable mid-file; a warning reports line 0.
    for raw in chunk[: end + 1].splitlines():
        record = _parse_line(path, 0, raw)
        if record is not None:
            records.append(record)
    return records, offset + end + 1


#: Shard file naming: ``<stem>.shard-NN.jsonl`` next to the base path.
_SHARD_RE = re.compile(r"^(?P<stem>.+)\.shard-(?P<index>\d+)\.jsonl$")


def shard_stem(path) -> Optional[str]:
    """The base store stem if *path* is a shard file, else ``None``."""
    match = _SHARD_RE.match(Path(path).name)
    return match.group("stem") if match else None


class ResultStore:
    """A campaign's per-run records: one JSONL file, or N hash-keyed shards."""

    def __init__(self, path, shards: Optional[int] = None) -> None:
        self.path = Path(path)
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._configured_shards = shards
        self._reset_index()

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        """Shard count: the configured value, else what is on disk, else 1."""
        if self._configured_shards is not None:
            return self._configured_shards
        detected = self._detected_shard_paths()
        return len(detected) if detected else 1

    def shard_path(self, index: int) -> Path:
        """The file holding shard *index* (``<stem>.shard-NN.jsonl``)."""
        return self.path.with_name(f"{self.path.stem}.shard-{index:02d}.jsonl")

    def _detected_shard_paths(self) -> List[Path]:
        if not self.path.parent.is_dir():
            return []
        return sorted(
            candidate
            for candidate in self.path.parent.glob(f"{self.path.stem}.shard-*.jsonl")
            if shard_stem(candidate) == self.path.stem
        )

    def reader_paths(self) -> List[Path]:
        """Every file of the store, legacy layout first (it is oldest).

        Recomputed on each call so shard files that appear while a
        follower polls are picked up without restarting it.
        """
        paths: List[Path] = []
        if self.path.exists():
            paths.append(self.path)
        for candidate in self._detected_shard_paths():
            if candidate not in paths:
                paths.append(candidate)
        return paths

    def _write_path_for(self, record: Dict[str, Any]) -> Path:
        shards = self.shards
        if shards <= 1 and not self._detected_shard_paths():
            return self.path
        spec_hash = str(record.get("spec_hash", ""))
        try:
            bucket = int(spec_hash, 16) % max(shards, 1)
        except ValueError:
            bucket = 0
        return self.shard_path(bucket)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one line — a run record or an event — to its shard."""
        path = self._write_path_for(record)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a+b") as handle:
            # A run killed mid-write can leave a torn line without a
            # newline; terminate it so only that line is lost, not ours.
            if handle.tell() > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(json.dumps(record, sort_keys=True).encode("utf-8"))
            handle.write(b"\n")
            handle.flush()

    # ------------------------------------------------------------------ #
    # Full scan (every record, superseded ones included)
    # ------------------------------------------------------------------ #

    def load(self) -> List[Dict[str, Any]]:
        """All well-formed records; malformed lines and events are skipped."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Yield records lazily; a corrupt/truncated line is skipped with a warning.

        Shards are read in name order after the legacy file; per-hash
        append order is preserved because one hash maps to one file.
        """
        for path in self.reader_paths():
            with path.open("r", encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    record = _parse_line(path, line_no, line)
                    if record is not None and not is_event(record):
                        yield record

    # ------------------------------------------------------------------ #
    # Incremental index (cursor-extended, O(new bytes) per call)
    # ------------------------------------------------------------------ #

    def refresh(self) -> int:
        """Fold newly appended complete lines into the index; returns how many."""
        folded = 0
        for path in self.reader_paths():
            cursor = self._offsets.get(path, 0)
            records, offset = read_appended(path, cursor)
            if offset < cursor:
                # The file shrank under us: what it held is already
                # folded in and cannot be taken back out, so rebuild.
                self._reset_index()
                return self.refresh()
            self._offsets[path] = offset
            for record in records:
                self._fold(record)
            folded += len(records)
        return folded

    def _reset_index(self) -> None:
        """Empty index: extended from the cursors, never rescanned."""
        self._offsets: Dict[Path, int] = {}
        self._count = 0
        self._winner: Dict[str, Dict[str, Any]] = {}
        self._attempts: Dict[str, int] = {}

    def _fold(self, record: Dict[str, Any]) -> None:
        if is_event(record):
            return
        self._count += 1
        spec_hash = record.get("spec_hash")
        if not spec_hash:
            return
        status = status_of(record)
        winner = self._winner.get(spec_hash)
        if winner is None or supersedes(status_of(winner), status):
            self._winner[spec_hash] = record
        if status in ATTEMPT_STATUSES:
            self._attempts[spec_hash] = self._attempts.get(spec_hash, 0) + 1

    def latest_by_hash(self) -> Dict[str, Dict[str, Any]]:
        """The record that speaks for each spec hash (see :func:`supersedes`).

        The most recent ``ok`` record where there is one; for a hash
        that never succeeded, its most recent record of any status.
        """
        self.refresh()
        return dict(self._winner)

    def completed_hashes(self) -> Set[str]:
        """Spec hashes whose authoritative record is ``ok`` (the resume set)."""
        return {
            spec_hash
            for spec_hash, record in self.latest_by_hash().items()
            if status_of(record) == "ok"
        }

    def cell_states(self, spec_hashes: Iterable[str]) -> List[Tuple[str, int]]:
        """``(state, failed attempts)`` per spec hash, in the order given.

        The one classification of a grid cell, read off the index:

        - ``ok`` — a successful record exists; resume skips the cell;
        - ``exhausted`` — its retry-budget marker speaks for it (possibly
          stamped by in-run crash retries, which leave no failed records
          to count); only ``--no-resume`` re-runs it;
        - ``failing`` — it has records but never succeeded; resume
          retries it until its failed attempts (``error``/``violation``
          records, across resumes) reach the executor's budget;
        - ``pending`` — no record at all.
        """
        self.refresh()
        states = []
        for spec_hash in spec_hashes:
            record = self._winner.get(spec_hash)
            if record is None:
                state = "pending"
            else:
                state = status_of(record)
                if state not in ("ok", "exhausted"):
                    state = "failing"
            states.append((state, self._attempts.get(spec_hash, 0)))
        return states

    def record_count(self) -> int:
        """Number of well-formed records on disk (cursor-cached).

        Extends the cached count from the per-file byte cursors instead
        of rescanning, so serve-endpoint polling stays O(new records)
        over a campaign's lifetime instead of O(N²).
        """
        self.refresh()
        return self._count

    def __len__(self) -> int:
        return self.record_count()


def default_store_path(campaign_name: str, root: Optional[Path] = None) -> Path:
    """The conventional store location for a campaign: ``results/<name>.jsonl``."""
    root = Path(root) if root is not None else Path("results")
    return root / f"{campaign_name}.jsonl"


def campaign_runs(root) -> List[Dict[str, Any]]:
    """One summary row per campaign store under *root* (``repro obs runs``).

    Old ``<name>.events.jsonl`` sidecars are skipped and shard files
    collapse into their base store path, so a sharded campaign is one
    row — whether or not the legacy single file also exists on disk.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    bases = set()
    for path in root.glob("*.jsonl"):
        if path.name.endswith(".events.jsonl"):
            continue
        stem = shard_stem(path)
        bases.add(path.with_name(f"{stem}.jsonl") if stem is not None else path)
    rows = []
    for path in sorted(bases):
        latest = ResultStore(path).latest_by_hash().values()
        statuses = Counter(status_of(record) for record in latest)
        rows.append(
            {
                "campaign": path.stem,
                "store": str(path),
                "cells": len(latest),
                **{status: statuses[status] for status in TERMINAL_STATUSES},
                "violations_total": sum(
                    len(record.get("violations", [])) for record in latest
                ),
            }
        )
    return rows
