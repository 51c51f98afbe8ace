"""Data model for the max-stretch linear programs.

The LP layer does not work on :class:`~repro.core.instance.Instance` objects
directly, for two reasons:

1. **Machine aggregation.**  In the divisible model without per-job
   parallelism bounds, machines hosting the same databank set are mutually
   interchangeable; aggregating them into a single *resource* (speeds add)
   keeps the LPs small without changing feasibility.  The aggregation is the
   :meth:`~repro.core.platform.Platform.capability_classes` decomposition.
2. **On-line re-optimization.**  When the on-line heuristic re-solves the
   problem at a release date, the jobs' *remaining* works and earliest start
   dates (the current time) differ from their original sizes and release
   dates, while deadlines are still anchored at the original release dates.
   The :class:`LPJob` record carries both.

The deadline of job :math:`J_j` for objective value :math:`\\mathcal{F}` is

.. math:: \\bar d_j(\\mathcal{F}) = r_j + \\mathcal{F}\\cdot f_j

where ``f_j`` (:attr:`LPJob.flow_factor`) is :math:`1/w_j`; for the stretch,
``f_j`` is the job's ideal time on the platform, so that a max-stretch of 1
gives every job exactly its ideal time after release.

There is one way to build a problem: :func:`problem_from_instance` reads the
jobs' invariants (release, size, flow factor, eligible resources) from a
:class:`JobTable` and applies the remaining works and the current time to
it in one array pass.  Off-line solves, Bender98's resolutions and degraded
replans let it build the table; the on-line replan context keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.lp import kernels

__all__ = [
    "Affine",
    "Resource",
    "LPJob",
    "JobTable",
    "MaxStretchProblem",
    "problem_from_instance",
    "build_job_table",
    "build_resources",
    "eligible_resources",
    "job_rows",
]


@dataclass(frozen=True)
class Affine:
    """An affine function of the objective value: ``const + coef * F``."""

    const: float
    coef: float = 0.0

    def at(self, objective: float) -> float:
        """Evaluate the function at objective value ``objective``."""
        return self.const + self.coef * objective

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.const - other.const, self.coef - other.coef)

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.const + other.const, self.coef + other.coef)


@dataclass(frozen=True)
class Resource:
    """An aggregated computing resource (capability class).

    Parameters
    ----------
    index:
        Position of the resource in the problem's resource tuple.
    speed:
        Aggregate speed (work units per second) of the member machines.
    machine_ids:
        Physical machines backing this resource (used when materializing the
        LP allocation into per-machine work slices).
    databanks:
        Databanks hosted by the member machines (informational).
    """

    index: int
    speed: float
    machine_ids: tuple[int, ...]
    databanks: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ModelError(f"resource {self.index} has non-positive speed {self.speed}")
        if not self.machine_ids:
            raise ModelError(f"resource {self.index} has no member machine")


@dataclass(frozen=True)
class LPJob:
    """A job as seen by the LP layer.

    Parameters
    ----------
    job_id:
        Identifier in the originating instance.
    earliest_start:
        Earliest date at which (remaining) work may be processed.  Equals the
        release date in the off-line problem and the current time in on-line
        re-optimizations.
    remaining_work:
        Work still to be executed (original size off-line).
    release:
        Original release date :math:`r_j`, anchoring the deadline.
    flow_factor:
        :math:`1/w_j`; the deadline is ``release + F * flow_factor``.
    resources:
        Indices of the resources able to process this job.
    """

    job_id: int
    earliest_start: float
    remaining_work: float
    release: float
    flow_factor: float
    resources: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.remaining_work <= 0:
            raise ModelError(f"job {self.job_id} has non-positive remaining work")
        if self.flow_factor <= 0:
            raise ModelError(f"job {self.job_id} has non-positive flow factor")
        if self.earliest_start < self.release - 1e-12:
            raise ModelError(
                f"job {self.job_id} has earliest_start {self.earliest_start} "
                f"before its release {self.release}"
            )
        if not self.resources:
            raise ModelError(f"job {self.job_id} has no eligible resource")

    def deadline(self, objective: float) -> float:
        """:math:`\\bar d_j(F) = r_j + F\\,f_j`."""
        return self.release + objective * self.flow_factor

    def deadline_affine(self) -> Affine:
        """The deadline as an :class:`Affine` function of the objective."""
        return Affine(self.release, self.flow_factor)

    def start_affine(self) -> Affine:
        """The earliest start as a (constant) :class:`Affine` function."""
        return Affine(self.earliest_start, 0.0)


@dataclass(frozen=True)
class MaxStretchProblem:
    """A complete max weighted flow minimization problem."""

    resources: tuple[Resource, ...]
    jobs: tuple[LPJob, ...]

    def __post_init__(self) -> None:
        for idx, res in enumerate(self.resources):
            if res.index != idx:
                raise ModelError("resource indices must match their position")
        known = set(range(len(self.resources)))
        for job in self.jobs:
            unknown = set(job.resources) - known
            if unknown:
                raise ModelError(f"job {job.job_id} references unknown resources {unknown}")

    # -- lookups --------------------------------------------------------------
    def job_by_id(self, job_id: int) -> LPJob:
        """The job with identifier ``job_id`` (cached id -> job map, O(1))."""
        table = self.__dict__.get("_by_id")
        if table is None:
            table = {job.job_id: job for job in self.jobs}
            # Frozen dataclass: stash derived lookups directly in the
            # instance dict (pure caches, invisible to equality/hashing).
            object.__setattr__(self, "_by_id", table)
        return table[job_id]

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    # -- cached arrays ---------------------------------------------------------
    def resource_speeds(self) -> np.ndarray:
        """Per-resource aggregate speeds as a cached float64 array."""
        speeds = self.__dict__.get("_speeds")
        if speeds is None:
            speeds = np.fromiter(
                (r.speed for r in self.resources), dtype=np.float64, count=len(self.resources)
            )
            object.__setattr__(self, "_speeds", speeds)
        return speeds

    def remaining_works(self) -> np.ndarray:
        """Per-job remaining works (job order) as a cached float64 array."""
        works = self.__dict__.get("_works")
        if works is None:
            works = np.fromiter(
                (j.remaining_work for j in self.jobs), dtype=np.float64, count=len(self.jobs)
            )
            object.__setattr__(self, "_works", works)
        return works

    def _eligible_speeds(self) -> np.ndarray:
        """Per-job total eligible speed (job order), computed once."""
        espeeds = self.__dict__.get("_eligible")
        if espeeds is None:
            espeeds = np.fromiter(
                (self.eligible_speed(job) for job in self.jobs),
                dtype=np.float64,
                count=len(self.jobs),
            )
            object.__setattr__(self, "_eligible", espeeds)
        return espeeds

    # -- bounds ---------------------------------------------------------------
    def eligible_speed(self, job: LPJob) -> float:
        """Total speed of the resources able to process ``job``.

        Eligibility sets repeat heavily (one per databank), so each distinct
        resource tuple is summed once and memoized.
        """
        memo = self.__dict__.get("_espeed_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_espeed_memo", memo)
        total = memo.get(job.resources)
        if total is None:
            total = float(self.resource_speeds()[list(job.resources)].sum())
            memo[job.resources] = total
        return total

    def objective_lower_bound(self) -> float:
        """A valid lower bound on the optimal maximum weighted flow.

        Even alone in the system, job ``j`` cannot complete before
        ``earliest_start + remaining / eligible_speed``; its weighted flow is
        then at least ``(that - release) / flow_factor``.
        """
        if not self.jobs:
            return 0.0
        starts, releases, factors = self.job_vectors()
        completions = starts + self.remaining_works() / self._eligible_speeds()
        return float(((completions - releases) / factors).max())

    def objective_upper_bound(self) -> float:
        """A valid upper bound on the optimal maximum weighted flow.

        Derived from the trivial schedule that waits for the last earliest
        start date and then processes the jobs one after another, each on its
        own eligible resource set.
        """
        if not self.jobs:
            return 0.0
        starts, releases, factors = self.job_vectors()
        horizon = float(starts.max())
        horizon += float((self.remaining_works() / self._eligible_speeds()).sum())
        bound = float(((horizon - releases) / factors).max())
        # Guard against degenerate single-job cases where lower == upper.
        return max(bound, self.objective_lower_bound())

    def job_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (earliest_start, release, flow_factor) arrays in job order.

        On the replan fast path these are seeded directly by the
        :func:`repro.lp.kernels.active_jobs_delta` kernel instead of being
        rebuilt from the job dataclasses.
        """
        vectors = self.__dict__.get("_job_vectors_cache")
        if vectors is None:
            n = len(self.jobs)
            vectors = (
                np.fromiter((j.earliest_start for j in self.jobs), dtype=np.float64, count=n),
                np.fromiter((j.release for j in self.jobs), dtype=np.float64, count=n),
                np.fromiter((j.flow_factor for j in self.jobs), dtype=np.float64, count=n),
            )
            object.__setattr__(self, "_job_vectors_cache", vectors)
        return vectors


def build_resources(platform: Platform) -> tuple[Resource, ...]:
    """The LP resource tuple: one aggregated resource per capability class."""
    return tuple(
        Resource(
            index=i,
            speed=cls.aggregate_speed,
            machine_ids=cls.machine_ids,
            databanks=cls.databanks,
        )
        for i, cls in enumerate(platform.capability_classes())
    )


def eligible_resources(resources: Sequence[Resource], databank: str | None) -> tuple[int, ...]:
    """Indices of the resources able to run a job on ``databank`` (all for ``None``)."""
    return tuple(r.index for r in resources if databank is None or databank in r.databanks)


#: One :class:`JobTable` row: ``(job_id, release, size, flow_factor, resources)``.
JobRow = tuple[int, float, float, float, tuple[int, ...]]


@dataclass(frozen=True)
class JobTable:
    """Array-backed per-job invariants, the one way into a :class:`MaxStretchProblem`.

    One row per instance job, in instance order (which pins the LP job and
    column order): ``(job_id, release, size, flow_factor, eligible resource
    indices)``.  Releases, sizes, flow factors (the stretch weights, i.e.
    the jobs' ideal times) and eligibility never change during a simulation,
    so the :class:`~repro.lp.incremental.ReplanContext` builds the table
    once and every replan's :func:`problem_from_instance` call skips the
    weight and eligibility recomputation entirely.  A table built on a
    restricted platform (degraded replans) may hold rows with no eligible
    resource: those jobs must not be active.
    """

    rows: tuple[JobRow, ...]

    def arrays(self) -> tuple[list[int], np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
        """Cached column views of the table for the replan delta kernel.

        Returns ``(job ids, releases, flow factors, eligibility tuples)``;
        the float columns are float64 arrays ready for
        :func:`repro.lp.kernels.active_jobs_delta`.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            n = len(self.rows)
            cached = (
                [row[0] for row in self.rows],
                np.fromiter((row[1] for row in self.rows), dtype=np.float64, count=n),
                np.fromiter((row[3] for row in self.rows), dtype=np.float64, count=n),
                tuple(row[4] for row in self.rows),
            )
            object.__setattr__(self, "_arrays", cached)
        return cached


def job_rows(
    instance: Instance, jobs: Iterable[Job], resources: Sequence[Resource]
) -> tuple[JobRow, ...]:
    """The :class:`JobTable` rows of ``jobs`` (in the given order) on ``resources``."""
    by_databank: dict[str | None, tuple[int, ...]] = {}
    rows = []
    for job in jobs:
        eligible = by_databank.get(job.databank)
        if eligible is None:
            eligible = by_databank[job.databank] = eligible_resources(resources, job.databank)
        rows.append(
            (job.job_id, job.release, job.size, 1.0 / instance.weight(job.job_id), eligible)
        )
    return tuple(rows)


def build_job_table(instance: Instance, resources: "Sequence[Resource] | None" = None) -> JobTable:
    """The :class:`JobTable` of ``instance`` (resources default to its platform's)."""
    if resources is None:
        resources = build_resources(instance.platform)
    return JobTable(rows=job_rows(instance, instance.jobs, resources))


def problem_from_instance(
    instance: Instance,
    *,
    now: float | None = None,
    remaining: Mapping[int, float] | None = None,
    resources: tuple[Resource, ...] | None = None,
    job_table: JobTable | None = None,
) -> MaxStretchProblem:
    """Build a :class:`MaxStretchProblem` from an instance.

    Parameters
    ----------
    instance:
        The scheduling instance.
    now:
        Current time for on-line re-optimizations; job earliest starts become
        ``max(release, now)``.  ``None`` (off-line) keeps the release dates.
    remaining:
        Remaining work per job id; the problem holds exactly the jobs mapped
        to a positive value (the active jobs).  ``None`` means every job of
        the instance at its full size.
    resources:
        The resource tuple, by default that of ``instance.platform``.
        Degraded replans pass the resources of the surviving machines; the
        :class:`~repro.lp.incremental.ReplanContext` passes its cached tuple.
    job_table:
        The :class:`JobTable` of ``instance`` on ``resources`` (see
        :func:`build_job_table`, which builds it when omitted).  The replan
        context builds it once per run, so a replan skips the per-job weight
        and eligibility lookups.

    Raises :class:`~repro.core.errors.ModelError` (from :class:`LPJob`) when
    an active job has no eligible resource.
    """
    if resources is None:
        resources = build_resources(instance.platform)
    if job_table is None:
        job_table = build_job_table(instance, resources)
    if remaining is None:
        remaining = {row[0]: row[2] for row in job_table.rows}
    ids, releases, factors, eligibles = job_table.arrays()
    rem = np.fromiter(
        ((remaining.get(job_id) or 0.0) for job_id in ids),
        dtype=np.float64,
        count=len(ids),
    )
    idx, earliest, works, rel_active, fac_active = kernels.active_jobs_delta(
        releases, factors, rem, now
    )
    lp_jobs = tuple(
        LPJob(
            job_id=ids[i],
            earliest_start=float(earliest[k]),
            remaining_work=float(works[k]),
            release=float(rel_active[k]),
            flow_factor=float(fac_active[k]),
            resources=eligibles[i],
        )
        for k, i in enumerate(idx.tolist())
    )
    problem = MaxStretchProblem(resources=resources, jobs=lp_jobs)
    # The delta kernel already materialized the per-job float columns; seed
    # the problem's lazy caches so the milestone/bound consumers skip their
    # per-job python loops entirely.
    object.__setattr__(problem, "_works", works)
    object.__setattr__(problem, "_job_vectors_cache", (earliest, rel_active, fac_active))
    return problem
