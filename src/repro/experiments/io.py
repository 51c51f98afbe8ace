"""Persistence of experiment records (CSV / JSON / streaming JSONL checkpoints).

Large campaigns are expensive; saving the raw :class:`RunRecord` rows allows
re-aggregating tables and figures without re-running the simulations, and the
benchmark harness uses these helpers to leave the regenerated tables next to
the benchmark output.

Failed runs carry NaN metrics.  JSON has no NaN literal (``json.dumps``
would emit the invalid bare token ``NaN``), so every JSON-facing helper in
this module serializes NaN as ``null`` and restores it on load.

:class:`CampaignCheckpoint` is the streaming layer of the campaign execution
engine (:func:`~repro.experiments.runner.run_campaign`): completed records
are appended to a JSONL file the moment they finish, and a resumed campaign
loads the file to skip every (configuration, replicate, scheduler) triple it
already contains.  The format is append-only and kill-tolerant: a process
dying mid-write leaves at most one truncated trailing line, which the loader
discards.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import IO, Iterable

from repro.core.errors import ReproError
from repro.experiments.runner import ExperimentResults, RunRecord, nan_to_none

__all__ = [
    "save_records_csv",
    "load_records_csv",
    "save_records_json",
    "load_records_json",
    "CampaignCheckpoint",
]

_FIELDS = [
    "config",
    "replicate",
    "scheduler",
    "n_jobs",
    "n_clusters",
    "n_databanks",
    "availability",
    "density",
    "max_stretch",
    "sum_stretch",
    "max_flow",
    "sum_flow",
    "makespan",
    "scheduler_time",
    "failed",
]

_INT_FIELDS = {"replicate", "n_jobs", "n_clusters", "n_databanks"}
_STR_FIELDS = {"config", "scheduler"}


def save_records_csv(results: ExperimentResults | Iterable[RunRecord], path: str | Path) -> Path:
    """Write records to a CSV file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        for record in results:
            writer.writerow(record.as_dict())
    return path


def load_records_csv(path: str | Path) -> ExperimentResults:
    """Read records back from a CSV file produced by :func:`save_records_csv`."""
    path = Path(path)
    records: list[RunRecord] = []
    with path.open("r", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            kwargs: dict[str, object] = {}
            for field in _FIELDS:
                raw = row[field]
                if field in _STR_FIELDS:
                    kwargs[field] = raw
                elif field == "failed":
                    kwargs[field] = raw in ("True", "true", "1")
                elif field in _INT_FIELDS:
                    kwargs[field] = int(raw)
                else:
                    kwargs[field] = float(raw)
            records.append(RunRecord(**kwargs))  # type: ignore[arg-type]
    return ExperimentResults(records)


# -- JSON (NaN-safe) ----------------------------------------------------------------


def record_to_jsonable(record: RunRecord) -> dict[str, object]:
    """``record.as_dict()`` with NaN metrics mapped to ``None`` (JSON null).

    The shared :func:`~repro.experiments.runner.nan_to_none` scan covers
    every float value (no per-field list to keep in sync with
    :class:`RunRecord`), so a newly added metric can never reach
    ``json.dumps(..., allow_nan=False)`` as a bare NaN.
    """
    return nan_to_none(record.as_dict())


def record_from_jsonable(values: dict[str, object]) -> RunRecord:
    """Inverse of :func:`record_to_jsonable` (``null`` metrics become NaN).

    No :class:`RunRecord` field is legitimately ``None``, so every null maps
    back to NaN.
    """
    kwargs = {
        field: math.nan if value is None else value
        for field, value in values.items()
    }
    return RunRecord(**kwargs)  # type: ignore[arg-type]


def save_records_json(results: ExperimentResults | Iterable[RunRecord], path: str | Path) -> Path:
    """Write records to a JSON file (list of objects); returns the path.

    NaN metrics (failed runs) are written as ``null`` -- ``allow_nan=False``
    guarantees the output is strict, standard JSON.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [record_to_jsonable(record) for record in results]
    path.write_text(json.dumps(payload, indent=2, allow_nan=False))
    return path


def load_records_json(path: str | Path) -> ExperimentResults:
    """Read records back from a JSON file produced by :func:`save_records_json`."""
    path = Path(path)
    payload = json.loads(path.read_text())
    return ExperimentResults(record_from_jsonable(values) for values in payload)


# -- streaming campaign checkpoints ---------------------------------------------------

#: First-line marker identifying a campaign checkpoint file.
_CHECKPOINT_KIND = "repro-campaign-checkpoint"
_CHECKPOINT_VERSION = 1


def _as_written_today(meta: dict[str, object]) -> dict[str, object]:
    """A checkpoint header as a campaign of the same design writes it today.

    A journal started with ``--solver-backend highs`` ran the one LP engine
    every run uses now, but its configs recorded ``"highs"`` where today's
    record ``"auto"``; one started with ``--state-bank off`` recorded
    ``false`` where today's record ``true``.  Both resume like a default one
    (the bank only reuses exact optima, and a resumed campaign runs its
    restored groups' remaining schedulers on a cold bank anyway).
    """
    configs = meta.get("configs")
    if not isinstance(configs, list):
        return meta
    return {**meta, "configs": [_config_as_written_today(values) for values in configs]}


def _config_as_written_today(values: object) -> object:
    if not isinstance(values, dict):
        return values
    values = dict(values)
    if values.get("solver_backend") == "highs":
        values["solver_backend"] = "auto"
    if values.get("state_bank") is False:
        values["state_bank"] = True
    return values


class CampaignCheckpoint:
    """Append-only JSONL journal of completed campaign tasks.

    Line 1 is a header carrying the campaign metadata (base seed, scheduler
    keys, configuration names); every further line is one completed task::

        {"kind": "repro-campaign-checkpoint", "version": 1, "meta": {...}}
        {"task": ["s03-d03-a30-rho0.75", 0, "swrpt"], "record": {...}}
        ...

    Records are flushed per line, so a killed campaign loses at most the
    task that was mid-write (the loader skips a truncated trailing line).
    Resuming validates the header metadata against the requested campaign --
    a checkpoint written for a different seed, scheduler set or design
    cannot be silently mixed in.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: IO[str] | None = None

    # -- reading -------------------------------------------------------------------
    def exists(self) -> bool:
        return self.path.exists()

    def effectively_empty(self) -> bool:
        """True when the file is missing, empty, or is one truncated line.

        A run killed *during the header write* leaves exactly one
        unparseable fragment with no newline (lines are written atomically
        with their terminator); such a file is as good as no checkpoint and
        :meth:`open_append` starts it over, so a kill at any byte offset --
        including the very first line -- leaves a resumable journal.  The
        signature is deliberately narrow: any file containing a newline or
        parseable JSON is *not* "empty" and is never silently truncated
        (pointing ``--checkpoint`` at some unrelated existing file errors
        out instead of destroying it).
        """
        if not self.path.exists():
            return True
        if self.path.stat().st_size == 0:
            return True
        # Cheap pre-check: any newline in the first block rules a fragment
        # out without reading a potentially huge journal.  Only a file with
        # no newline at all falls through to the full read -- by
        # construction that is at most one (possibly large) line.
        with self.path.open("rb") as handle:
            if b"\n" in handle.read(65536):
                return False
        content = self.path.read_text()
        return "\n" not in content and self._parse_line(content) is None

    def load(
        self, *, expect_meta: dict[str, object] | None = None
    ) -> dict[tuple[str, int, str], RunRecord]:
        """The completed records keyed by (config, replicate, scheduler key).

        ``expect_meta``, when given, is compared against the header written
        at campaign start; any difference raises :class:`ReproError` (the
        checkpoint belongs to a different campaign).  A triple journaled
        more than once (e.g. in a hand-concatenated file) keeps its last
        record; :meth:`read_entries` exposes the raw stream when duplicates
        matter.
        """
        if self.effectively_empty():
            # Missing, empty, or a lone truncated header fragment: nothing
            # to restore, and open_append() starts the file over.
            return {}
        meta, entries = self.read_entries()
        if expect_meta is not None and _as_written_today(meta) != expect_meta:
            raise ReproError(
                f"checkpoint {self.path} was written for a different campaign "
                f"(seed/schedulers/design mismatch): {meta!r} "
                f"vs requested {expect_meta!r}"
            )
        return dict(entries)

    def read_entries(
        self,
    ) -> tuple[dict[str, object], list[tuple[tuple[str, int, str], RunRecord]]]:
        """The header metadata and every journaled (triple, record) entry.

        Entries are returned in journal order *including duplicates* -- the
        merge layer needs to see a triple journaled twice to tell a benign
        re-run from a conflict -- with truncated/malformed lines skipped as
        in :meth:`load`.  Raises :class:`ReproError` when the file is not a
        campaign checkpoint (missing, empty, or bad header).
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            raise ReproError(f"{self.path} is missing or empty, not a campaign checkpoint")
        content = self.path.read_text()
        lines = content.splitlines()
        header = self._parse_line(lines[0]) if lines else None
        if (
            header is None
            or header.get("kind") != _CHECKPOINT_KIND
            or header.get("version") != _CHECKPOINT_VERSION
        ):
            raise ReproError(
                f"{self.path} is not a campaign checkpoint (bad or missing header)"
            )
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise ReproError(
                f"{self.path} is not a campaign checkpoint (header carries no metadata)"
            )
        parsed: list[tuple[tuple[str, int, str], RunRecord]] = []
        for line in lines[1:]:
            entry = self._parse_line(line)
            if entry is None:  # truncated trailing line from a killed run
                continue
            task, record = entry.get("task"), entry.get("record")
            if task is None or record is None:
                # Not a task line (e.g. the header of a naively concatenated
                # chunk journal); harmless to skip.
                continue
            try:
                config, replicate, scheduler_key = task
                parsed.append(
                    (
                        (config, int(replicate), scheduler_key),
                        record_from_jsonable(record),
                    )
                )
            except (TypeError, ValueError):
                # Malformed entry (wrong task arity, unexpected record
                # fields): treat like a truncated line and recompute it.
                continue
        return meta, parsed

    @staticmethod
    def _parse_line(line: str) -> dict | None:
        line = line.strip()
        if not line:
            return None
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            return None
        return entry if isinstance(entry, dict) else None

    # -- writing -------------------------------------------------------------------
    def open_append(self, meta: dict[str, object]) -> None:
        """Open the journal for appending, writing the header on a new file.

        A file holding nothing parseable (typically a header truncated by a
        kill) is started over; a populated file killed mid-record gets its
        truncated trailing line sealed with a newline so the next append
        starts on its own line (the sealed fragment stays unparseable and
        is skipped by :meth:`load`).
        """
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.effectively_empty():
            self._handle = self.path.open("w")
            self._write_line(
                {
                    "kind": _CHECKPOINT_KIND,
                    "version": _CHECKPOINT_VERSION,
                    "meta": meta,
                }
            )
            return
        with self.path.open("rb") as handle:
            handle.seek(-1, 2)
            sealed = handle.read(1) == b"\n"
        if not sealed:
            with self.path.open("a") as handle:
                handle.write("\n")
        self._handle = self.path.open("a")

    def append(self, scheduler_key: str, record: RunRecord) -> None:
        """Journal one completed task (requires :meth:`open_append` first)."""
        if self._handle is None:
            raise ReproError("checkpoint is not open for appending")
        self._write_line(
            {
                "task": [record.config, record.replicate, scheduler_key],
                "record": record_to_jsonable(record),
            }
        )

    def append_batch(
        self, entries: Iterable[tuple[str, RunRecord]]
    ) -> None:
        """Journal a batch of completed tasks with one write and one flush.

        The group-dispatch fast path: the per-line ``json.dumps`` format is
        identical to :meth:`append`, but the batch reaches the OS as a
        single buffered write flushed once at the group boundary instead of
        one syscall pair per record.  Durability moves to the batch
        boundary; a kill mid-write truncates at most the trailing line,
        which :meth:`open_append` seals and :meth:`load` skips, so the
        resumed campaign recomputes exactly the unjournaled tasks.
        """
        if self._handle is None:
            raise ReproError("checkpoint is not open for appending")
        lines = [
            json.dumps(
                {
                    "task": [record.config, record.replicate, scheduler_key],
                    "record": record_to_jsonable(record),
                },
                allow_nan=False,
            )
            for scheduler_key, record in entries
        ]
        if not lines:
            return
        self._handle.write("".join(line + "\n" for line in lines))
        self._handle.flush()

    def _write_line(self, payload: dict[str, object]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(payload, allow_nan=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
