"""Job model.

A *job* is a pattern-matching request submitted by a user: a motif that must
be compared against one protein databank.  In the scheduling model of the
paper a job :math:`J_j` is fully described by

* its release date :math:`r_j` (seconds),
* its size :math:`W_j` (work units, e.g. megabytes of databank to scan or
  Mflop of computation -- the unit is irrelevant as long as machine speeds
  use the same unit),
* the databank it targets (which induces the *restricted availability*
  constraint: the job may only run on machines hosting that databank), and
* an optional priority weight :math:`w_j` used by weighted-flow objectives.
  When left unset, the stretch convention :math:`w_j \\propto 1/W_j` is used
  (see :meth:`repro.core.instance.Instance.stretch_weight`).

Jobs are immutable; mutable execution state (remaining work) lives in the
simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.core.errors import ModelError
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["Job", "JobSet", "jobs_sorted_by_release", "renumber_jobs"]


@dataclass(frozen=True, order=False)
class Job:
    """A single divisible request.

    Parameters
    ----------
    job_id:
        Unique non-negative integer identifier.
    release:
        Release date :math:`r_j` in seconds (non-negative).
    size:
        Amount of work :math:`W_j` (strictly positive).
    databank:
        Name of the databank this request targets, or ``None`` when the job
        may execute on any machine (no data dependence).
    weight:
        Optional priority weight :math:`w_j`; ``None`` means "use the stretch
        weight" when a weighted metric is evaluated.
    name:
        Optional human-readable label (used in traces and examples).
    """

    job_id: int
    release: float
    size: float
    databank: str | None = None
    weight: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ModelError(f"job_id must be non-negative, got {self.job_id}")
        try:
            require_non_negative(self.release, "release")
            require_positive(self.size, "size")
            if self.weight is not None:
                require_positive(self.weight, "weight")
        except ValueError as exc:  # normalize into the library's hierarchy
            raise ModelError(str(exc)) from exc

    # -- convenience -----------------------------------------------------
    def with_release(self, release: float) -> "Job":
        """Return a copy of this job with a different release date."""
        return replace(self, release=release)

    def with_size(self, size: float) -> "Job":
        """Return a copy of this job with a different size."""
        return replace(self, size=size)

    def with_id(self, job_id: int) -> "Job":
        """Return a copy of this job with a different identifier."""
        return replace(self, job_id=job_id)

    @property
    def label(self) -> str:
        """A short display label (name if set, otherwise ``J<id>``)."""
        return self.name or f"J{self.job_id}"


class JobSet(Sequence[Job]):
    """An immutable, validated collection of jobs.

    The collection enforces unique job identifiers and provides the orderings
    and lookups every scheduler needs (by release date, by identifier).  It
    intentionally supports the standard :class:`~collections.abc.Sequence`
    protocol so it can be used wherever a plain list of jobs is expected.
    """

    __slots__ = ("_jobs", "_by_id", "_databank_keys")

    def __init__(self, jobs: Iterable[Job]):
        jobs = tuple(jobs)
        by_id: dict[int, Job] = {}
        for job in jobs:
            if not isinstance(job, Job):
                raise ModelError(f"JobSet expects Job instances, got {type(job)!r}")
            if job.job_id in by_id:
                raise ModelError(f"duplicate job_id {job.job_id}")
            by_id[job.job_id] = job
        self._jobs: tuple[Job, ...] = jobs
        self._by_id: dict[int, Job] = by_id
        self._databank_keys: frozenset[str | None] | None = None

    # -- Sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return JobSet(self._jobs[index])
        return self._jobs[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Job):
            return self._by_id.get(item.job_id) == item
        return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JobSet):
            return self._jobs == other._jobs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._jobs)

    def __repr__(self) -> str:
        return f"JobSet({len(self._jobs)} jobs)"

    # -- lookups ----------------------------------------------------------
    def by_id(self, job_id: int) -> Job:
        """Return the job with identifier ``job_id`` (KeyError if absent)."""
        return self._by_id[job_id]

    def ids(self) -> tuple[int, ...]:
        """All job identifiers, in collection order."""
        return tuple(job.job_id for job in self._jobs)

    def sorted_by_release(self) -> "JobSet":
        """Jobs ordered by non-decreasing release date (ties by id)."""
        return JobSet(jobs_sorted_by_release(self._jobs))

    def released_before(self, time: float, *, inclusive: bool = True) -> "JobSet":
        """Jobs whose release date is <= ``time`` (or < when not inclusive)."""
        if inclusive:
            return JobSet(j for j in self._jobs if j.release <= time)
        return JobSet(j for j in self._jobs if j.release < time)

    def total_work(self) -> float:
        """Sum of job sizes."""
        return float(sum(job.size for job in self._jobs))

    def size_ratio(self) -> float:
        """The quantity Δ of the paper: largest size / smallest size."""
        if not self._jobs:
            raise ModelError("size_ratio() is undefined for an empty JobSet")
        sizes = [job.size for job in self._jobs]
        return max(sizes) / min(sizes)

    def databanks(self) -> frozenset[str]:
        """The set of databanks referenced by at least one job."""
        return self.databank_keys() - {None}

    def databank_keys(self) -> frozenset[str | None]:
        """Every ``databank`` value of the jobs, ``None`` included (cached)."""
        if self._databank_keys is None:
            self._databank_keys = frozenset(j.databank for j in self._jobs)
        return self._databank_keys


def jobs_sorted_by_release(jobs: Iterable[Job]) -> list[Job]:
    """Return ``jobs`` sorted by (release date, job id)."""
    return sorted(jobs, key=lambda job: (job.release, job.job_id))


def renumber_jobs(jobs: Iterable[Job]) -> JobSet:
    """Renumber jobs 0..n-1 in release-date order.

    The paper assumes jobs are indexed by increasing release date; this
    helper normalizes arbitrarily numbered collections into that convention.
    """
    ordered = jobs_sorted_by_release(jobs)
    return JobSet(job.with_id(idx) for idx, job in enumerate(ordered))
