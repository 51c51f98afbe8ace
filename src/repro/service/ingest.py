"""Submission ingestion: decoding client records with per-record accounting.

The daemon accepts submissions as JSON objects -- one per HTTP POST, or one
per line on a JSONL stream (the windowed-ingest shape: a malformed or
duplicate line is *rejected and counted*, never fatal, and never perturbs
the jobs already admitted).  This module owns the decoding and validation;
the daemon owns admission (release-date assignment, duplicate tracking,
journaling).

A client record looks like::

    {"size": 120.5, "databank": "SWISS-PROT", "weight": null,
     "name": "blast-1234", "client_id": "req-42"}

``size`` is required and must be a positive number.  ``client_id`` is the
optional idempotency key: the daemon rejects a repeated ``client_id`` as a
duplicate (exactly-once admission over at-least-once transports).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "SubmissionRequest",
    "RecordError",
    "IngestReport",
    "parse_submission",
    "ingest_lines",
]

#: Fields a submission record may carry; anything else is rejected (typo
#: protection -- a misspelled ``databnak`` must not silently drop the
#: placement constraint).
_ALLOWED_FIELDS = frozenset({"size", "databank", "weight", "name", "client_id"})


@dataclass(frozen=True)
class SubmissionRequest:
    """A validated client submission, before admission.

    The release date is *not* here: it is assigned by the daemon's admission
    clock at the moment the job is accepted.
    """

    size: float
    databank: str | None = None
    weight: float | None = None
    name: str = ""
    client_id: str | None = None


@dataclass(frozen=True)
class RecordError:
    """One rejected record: where it came from and why."""

    line_no: int
    reason: str
    raw: str = ""


@dataclass
class IngestReport:
    """Accounting of one ingestion window (a batch of JSONL lines)."""

    accepted: int = 0
    rejected: int = 0
    errors: list[RecordError] = field(default_factory=list)
    #: ``(line_no, job_id, release)`` per accepted record, in input order.
    admissions: list[tuple[int, int, float]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str, raw: str = "") -> None:
        self.rejected += 1
        self.errors.append(RecordError(line_no=line_no, reason=reason, raw=raw[:200]))

    def as_dict(self) -> dict[str, Any]:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": [
                {"line": e.line_no, "reason": e.reason, "raw": e.raw}
                for e in self.errors
            ],
            "admissions": [
                {"line": line_no, "job_id": job_id, "release": release}
                for line_no, job_id, release in self.admissions
            ],
        }


def parse_submission(payload: Mapping[str, Any]) -> SubmissionRequest:
    """Validate a decoded JSON object into a :class:`SubmissionRequest`.

    Raises ``ValueError`` with a client-presentable message on any problem.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("submission must be a JSON object")
    unknown = set(payload) - _ALLOWED_FIELDS
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
    if "size" not in payload:
        raise ValueError("missing required field 'size'")
    size = payload["size"]
    if isinstance(size, bool) or not isinstance(size, (int, float)):
        raise ValueError("'size' must be a number")
    if not size > 0 or size != size or size == float("inf"):
        raise ValueError("'size' must be a positive finite number")
    databank = payload.get("databank")
    if databank is not None and not isinstance(databank, str):
        raise ValueError("'databank' must be a string or null")
    weight = payload.get("weight")
    if weight is not None:
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError("'weight' must be a number or null")
        if not weight > 0:
            raise ValueError("'weight' must be positive")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ValueError("'name' must be a string")
    client_id = payload.get("client_id")
    if client_id is not None and not isinstance(client_id, str):
        raise ValueError("'client_id' must be a string or null")
    return SubmissionRequest(
        size=float(size),
        databank=databank,
        weight=None if weight is None else float(weight),
        name=name,
        client_id=client_id,
    )


def ingest_lines(
    lines: Iterable[str],
    admit: "Callable[[SubmissionRequest], tuple[int, float]]",
) -> IngestReport:
    """Feed a window of JSONL lines through ``admit``, accounting per record.

    ``admit`` takes a validated :class:`SubmissionRequest` and returns the
    ``(job_id, release)`` of the accepted job; it raises ``ValueError`` (or
    a :class:`~repro.service.trace.ServiceError`) to reject -- e.g. a
    duplicate ``client_id`` or an unhosted databank.  Rejections are counted
    and described in the report; they never stop the window and never touch
    jobs admitted earlier (each record is admitted independently).
    """
    from repro.service.trace import ServiceError

    report = IngestReport()
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            report.reject(line_no, f"malformed JSON: {exc}", text)
            continue
        try:
            request = parse_submission(payload)
        except ValueError as exc:
            report.reject(line_no, str(exc), text)
            continue
        try:
            job_id, release = admit(request)
        except (ValueError, ServiceError) as exc:
            report.reject(line_no, str(exc), text)
            continue
        report.accepted += 1
        report.admissions.append((line_no, job_id, release))
    return report
