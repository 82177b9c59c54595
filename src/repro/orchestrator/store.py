"""Sharded append-only JSONL result store with incremental aggregation.

Every completed run becomes one JSON line: the run's spec hash, its
parameters, the seed actually used and the flattened metrics.  The store
is the campaign's durable state — :meth:`ResultStore.completed_hashes`
tells the executor which grid points already finished so a re-run of the
same campaign only executes what is missing, and
:meth:`ResultStore.attempt_counts` bounds how often a failing point is
retried before it is declared ``exhausted``.

Two layouts share one class:

- **single-shard** (the default, and the historical layout): all records
  in one file, ``results/<name>.jsonl``;
- **sharded** (``shards=N``): records split across
  ``results/<name>.shard-NN.jsonl`` by spec hash, so a 10k-cell campaign
  never funnels every append and every poll through one file.

A store always *reads* both layouts — a campaign started single-shard
resumes cleanly after being promoted to shards, because the legacy file
is folded in before the shard files.  Records for one spec hash always
land in the same file, so per-hash append order (the property resume and
latest-wins semantics rely on) is preserved under sharding.

Reads are incremental: the store keeps a byte-offset cursor per file and
an in-memory index (latest record per hash, resume set, attempt counts,
record count) that is extended from the cursors only — a status poll
over a long campaign costs the bytes appended since the previous poll,
not a rescan of the whole store.  Only complete lines are consumed; a
torn trailing line — e.g. from a run killed mid-write — is left at the
cursor until its newline arrives (or is skipped with a warning if it
turns out to be malformed), never poisoning the whole store.

Only the orchestrating process writes (workers hand records back over
the dispatcher), so appends never interleave.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

logger = logging.getLogger("repro.orchestrator.store")

#: Statuses that count as a *failed attempt* toward the retry budget.
#: ``exhausted`` markers are bookkeeping, not attempts, and ``ok`` ends
#: the cell's retry life entirely.
ATTEMPT_STATUSES = ("error", "violation")

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
        # Incremental index state (extended from cursors, never rescanned).
        self._offsets: Dict[Path, int] = {}
        self._count = 0
        self._latest_any: Dict[str, Dict[str, Any]] = {}
        self._latest_ok: Dict[str, Dict[str, Any]] = {}
        self._attempts: Dict[str, int] = {}

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
        """Every file holding records, legacy layout first (it is oldest).

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
        """Durably append one run record to its shard."""
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
    # Full-scan reads (load/report paths; unchanged semantics)
    # ------------------------------------------------------------------ #

    def load(self) -> List[Dict[str, Any]]:
        """All well-formed records; malformed lines are skipped."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Yield records lazily; a corrupt/truncated line is skipped with a warning.

        Shards are read in name order after the legacy file; per-hash
        append order is preserved because one hash maps to one file.
        """
        for path in self.reader_paths():
            with path.open("r", encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    record = self._parse_line(path, line_no, line)
                    if record is not None:
                        yield record

    def _parse_line(self, path: Path, line_no: int, line) -> Optional[Dict[str, Any]]:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            logger.warning(
                "%s:%d: skipping torn/malformed record (%d bytes) "
                "— likely a partial write from a killed run",
                path, line_no, len(line),
            )
            return None
        return record if isinstance(record, dict) else None

    # ------------------------------------------------------------------ #
    # Incremental index (cursor-extended, O(new bytes) per call)
    # ------------------------------------------------------------------ #

    def refresh(self) -> int:
        """Fold newly appended complete lines into the index; returns how many."""
        folded = 0
        for path in self.reader_paths():
            offset = self._offsets.get(path, 0)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size < offset:
                # The file shrank under us (truncated/rewritten): the
                # cursors are meaningless, rebuild the index from scratch.
                self._reset_index()
                return self.refresh()
            if size == offset:
                continue
            with path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            # Only complete lines count; a torn tail stays at the cursor.
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            line_no = None  # line numbers are unknowable mid-file; report offsets
            for raw in chunk[: end + 1].splitlines():
                record = self._parse_line(path, line_no or 0, raw)
                if record is not None:
                    self._fold(record)
                    folded += 1
        return folded

    def _reset_index(self) -> None:
        self._offsets = {}
        self._count = 0
        self._latest_any = {}
        self._latest_ok = {}
        self._attempts = {}

    def _fold(self, record: Dict[str, Any]) -> None:
        self._count += 1
        spec_hash = record.get("spec_hash")
        if not spec_hash:
            return
        self._latest_any[spec_hash] = record
        status = record.get("status")
        if status == "ok":
            self._latest_ok[spec_hash] = record
        elif status in ATTEMPT_STATUSES:
            self._attempts[spec_hash] = self._attempts.get(spec_hash, 0) + 1

    def completed_hashes(self) -> Set[str]:
        """Spec hashes of successfully finished runs (the resume set).

        Failed runs are *not* included, so resuming a campaign retries
        them — up to the executor's attempt budget.
        """
        self.refresh()
        return set(self._latest_ok)

    def latest_by_hash(self) -> Dict[str, Dict[str, Any]]:
        """Authoritative record per spec hash, **ok-wins**.

        A successful record is never shadowed by a later failed retry:
        per hash, the most recent ``ok`` record wins; only hashes that
        never succeeded report their most recent record of any status.
        This is the same rule :func:`repro.orchestrator.aggregate.
        latest_ok_by_hash` applies, so ``campaign status`` and
        ``campaign report`` agree about every cell.
        """
        self.refresh()
        return {
            spec_hash: self._latest_ok.get(spec_hash, record)
            for spec_hash, record in self._latest_any.items()
        }

    def attempt_counts(self) -> Dict[str, int]:
        """Failed attempts per spec hash (``error``/``violation`` records).

        The executor's retry budget is enforced against these counts, so
        a deterministically failing cell stops being re-run once the
        budget is spent instead of burning a worker on every resume.
        """
        self.refresh()
        return dict(self._attempts)

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


def events_path_for(store_path) -> Path:
    """The telemetry-events sidecar next to a store: ``<name>.events.jsonl``."""
    store_path = Path(store_path)
    return store_path.with_name(f"{store_path.stem}.events.jsonl")


def campaign_runs(root) -> List[Dict[str, Any]]:
    """One summary row per campaign store under *root* (``repro obs runs``).

    Events sidecars are skipped and shard files collapse into their base
    store path, so a sharded campaign is one row — whether or not the
    legacy single file also exists on disk.
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
        statuses = Counter(record.get("status", "ok") for record in latest)
        rows.append(
            {
                "campaign": path.stem,
                "store": str(path),
                "cells": len(latest),
                "ok": statuses["ok"],
                "error": statuses["error"],
                "violation": statuses["violation"],
                "exhausted": statuses["exhausted"],
                "violations_total": sum(
                    len(record.get("violations", [])) for record in latest
                ),
            }
        )
    return rows
