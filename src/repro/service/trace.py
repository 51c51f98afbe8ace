"""The replayable submission trace: the daemon's determinism anchor.

Every submission the daemon accepts is journaled, append-and-flush, to a
JSONL trace file.  The trace captures everything needed to reconstruct the
run after the fact:

* a **header** line with the platform (explicit machine list -- floats
  round-trip exactly through JSON's ``repr``-based encoding), the scheduler
  key and its constructor options;
* one **submission** line per accepted job, carrying the exact release date
  the admission clock assigned.

Two consumers exist, and agreeing is the service-mode contract:

* :func:`repro.service.daemon.replay_trace` feeds the jobs back through the
  service loop (a :class:`~repro.simulation.source.TraceSource` growing a
  :class:`~repro.core.instance.LiveInstance`), and
* :meth:`SubmissionTrace.reconstruct_instance` materializes the plain batch
  :class:`~repro.core.instance.Instance` for ``simulate()``.

Replaying the former must produce a schedule bit-identical to the latter --
enforced by ``tests/test_service.py`` and the CI service-smoke step.

Like the campaign checkpoint journal, the reader tolerates a truncated
*final* line (the writer may have been killed mid-append); anything else
malformed raises :class:`ServiceError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform

__all__ = [
    "ServiceError",
    "AdmissionError",
    "TRACE_KIND",
    "TRACE_VERSION",
    "SubmissionTrace",
    "TraceWriter",
    "platform_payload",
    "platform_from_payload",
    "job_payload",
    "job_from_payload",
    "read_trace",
]

TRACE_KIND = "repro-service-trace"
TRACE_VERSION = 1


class ServiceError(ReproError):
    """A service-mode operation failed (malformed trace, bad submission, ...)."""


class AdmissionError(ServiceError):
    """A submission was load-shed by the daemon's admission valve.

    Not the client's fault and not permanent: the queue is full or the
    replan latency is over target right now.  ``retry_after`` is the
    suggested back-off in seconds (served as the HTTP ``Retry-After``
    header on the 503 response).
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


# -- payload codecs ---------------------------------------------------------------
def platform_payload(platform: Platform) -> list[dict[str, Any]]:
    """The platform as a JSON-ready machine list (exact float round-trip)."""
    return [
        {
            "id": m.machine_id,
            "cycle_time": m.cycle_time,
            "cluster": m.cluster_id,
            "databanks": sorted(m.databanks),
            "name": m.name,
        }
        for m in platform
    ]


def platform_from_payload(payload: Iterable[Mapping[str, Any]]) -> Platform:
    """Inverse of :func:`platform_payload`."""
    return Platform(
        Machine(
            machine_id=int(entry["id"]),
            cycle_time=float(entry["cycle_time"]),
            cluster_id=int(entry.get("cluster", 0)),
            databanks=frozenset(entry.get("databanks", ())),
            name=str(entry.get("name", "")),
        )
        for entry in payload
    )


def job_payload(job: Job) -> dict[str, Any]:
    """One accepted submission as a JSON-ready record."""
    return {
        "kind": "submission",
        "id": job.job_id,
        "release": job.release,
        "size": job.size,
        "databank": job.databank,
        "weight": job.weight,
        "name": job.name,
    }


def job_from_payload(payload: Mapping[str, Any]) -> Job:
    """Inverse of :func:`job_payload`."""
    weight = payload.get("weight")
    return Job(
        job_id=int(payload["id"]),
        release=float(payload["release"]),
        size=float(payload["size"]),
        databank=payload.get("databank"),
        weight=None if weight is None else float(weight),
        name=str(payload.get("name", "")),
    )


# -- the trace object --------------------------------------------------------------
class SubmissionTrace:
    """A fully parsed submission trace: header metadata plus accepted jobs."""

    def __init__(
        self,
        *,
        platform: Platform,
        scheduler: str,
        scheduler_options: Mapping[str, Any] | None = None,
        jobs: Iterable[Job] = (),
        time_scale: float = 0.0,
    ):
        self._platform = platform
        self.scheduler = scheduler
        self.scheduler_options: dict[str, Any] = dict(scheduler_options or {})
        self.jobs: list[Job] = sorted(jobs, key=lambda j: (j.release, j.job_id))
        self.time_scale = float(time_scale)

    @property
    def platform(self) -> Platform:
        return self._platform

    def header(self) -> dict[str, Any]:
        return {
            "kind": TRACE_KIND,
            "version": TRACE_VERSION,
            "scheduler": self.scheduler,
            "scheduler_options": dict(self.scheduler_options),
            "time_scale": self.time_scale,
            "platform": platform_payload(self._platform),
        }

    def reconstruct_instance(self) -> Instance:
        """The batch instance this trace describes (for ``simulate()``)."""
        return Instance(self.jobs, self._platform)

    def __len__(self) -> int:
        return len(self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubmissionTrace({len(self.jobs)} submissions, "
            f"scheduler={self.scheduler!r})"
        )


# -- writing ---------------------------------------------------------------------
class TraceWriter:
    """Append-and-flush journal of accepted submissions.

    The header goes out at construction; every :meth:`append` writes one
    line and flushes, so a killed daemon loses at most the submission being
    written (whose client never got an acknowledgement).
    """

    def __init__(self, path: "str | Path", trace: SubmissionTrace):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(trace.header()) + "\n")
        self._fh.flush()

    def append(self, job: Job) -> None:
        if self._fh is None:  # pragma: no cover - defensive
            raise ServiceError("trace writer is closed")
        self._fh.write(json.dumps(job_payload(job)) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- reading ---------------------------------------------------------------------
def read_trace(path: "str | Path") -> SubmissionTrace:
    """Parse a trace file back into a :class:`SubmissionTrace`.

    A truncated final line (no trailing newline, killed writer) is dropped;
    any other malformed content raises :class:`ServiceError`.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ServiceError(f"cannot read trace {path}: {exc}") from exc
    lines = raw.split("\n")
    if raw.endswith("\n"):
        lines = lines[:-1]
        truncated_tail = None
    else:
        truncated_tail = lines[-1]
        lines = lines[:-1]
    if not lines:
        if truncated_tail is not None:
            raise ServiceError(f"trace {path} holds only a truncated header")
        raise ServiceError(f"trace {path} is empty")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ServiceError(f"trace {path} has a malformed header: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
        raise ServiceError(f"trace {path} is not a {TRACE_KIND} file")
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ServiceError(
            f"trace {path} has unsupported version {version!r} "
            f"(this reader understands {TRACE_VERSION})"
        )

    try:
        platform = platform_from_payload(header["platform"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"trace {path} has a malformed platform: {exc}") from None

    # Traces recorded while the replan path was a scheduler option carry it
    # as "incremental".  True is the only path left and is dropped; a trace
    # recorded from scratch cannot be replayed by it (on HiGHS the carried
    # basis leads to other System (2) vertices), so it is refused.
    scheduler_options = dict(header.get("scheduler_options") or {})
    if scheduler_options.pop("incremental", True) is not True:
        raise ServiceError(
            f"trace {path} was recorded on the from-scratch LP replan path, "
            "which no longer exists"
        )
    # The removed speculative pre-solves never changed a schedule, so a
    # trace recorded with "speculate" replays whatever its value.
    scheduler_options.pop("speculate", None)

    jobs: list[Job] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"trace {path}: malformed record at line {line_no}: {exc}"
            ) from None
        if not isinstance(record, dict) or record.get("kind") != "submission":
            raise ServiceError(
                f"trace {path}: unexpected record kind at line {line_no}"
            )
        try:
            jobs.append(job_from_payload(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"trace {path}: invalid submission at line {line_no}: {exc}"
            ) from None

    return SubmissionTrace(
        platform=platform,
        scheduler=str(header.get("scheduler", "online")),
        scheduler_options=scheduler_options,
        jobs=jobs,
        time_scale=float(header.get("time_scale", 0.0)),
    )
