"""Problem instances: a set of jobs to schedule on a platform.

An :class:`Instance` couples a :class:`~repro.core.job.JobSet` with a
:class:`~repro.core.platform.Platform` and exposes the derived quantities the
schedulers need:

* per-(machine, job) processing times :math:`p_{i,j} = W_j\\,p_i` (infinite
  when the machine does not host the job's databank),
* the set of machines eligible for a job,
* the *ideal time* of a job (time to process it alone on all its eligible
  machines), which is the normalisation constant of the stretch metric,
* the job-size ratio Δ used by the Bender heuristics and by the theoretical
  bounds.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.errors import ModelError
from repro.core.job import Job, JobSet
from repro.core.platform import CapabilityClass, Machine, Platform

__all__ = ["Instance", "LiveInstance"]


class Instance:
    """An immutable scheduling problem instance.

    Parameters
    ----------
    jobs:
        The requests to schedule.  Any iterable of :class:`Job`; stored as a
        :class:`JobSet` sorted by release date (the paper's convention).
    platform:
        The target platform.
    require_feasible:
        When True (default), building an instance containing a job whose
        databank is hosted nowhere raises :class:`ModelError` -- such a job
        could never be executed.
    """

    __slots__ = ("_jobs", "_platform", "_ideal_times", "_eligible_ids")

    def __init__(
        self,
        jobs: Iterable[Job],
        platform: Platform,
        *,
        require_feasible: bool = True,
    ):
        if not isinstance(platform, Platform):
            raise ModelError(f"platform must be a Platform, got {type(platform)!r}")
        jobset = jobs if isinstance(jobs, JobSet) else JobSet(jobs)
        jobset = jobset.sorted_by_release()
        self._jobs = jobset
        self._platform = platform
        self._eligible_ids: dict[str | None, tuple[int, ...]] = {}
        if require_feasible:
            for job in jobset:
                if not platform.machines_hosting(job.databank):
                    raise ModelError(
                        f"job {job.job_id} targets databank {job.databank!r} "
                        f"which is hosted on no machine"
                    )
        self._ideal_times: dict[int, float] = {}

    # -- basic accessors ----------------------------------------------------
    @property
    def jobs(self) -> JobSet:
        """The jobs, sorted by release date."""
        return self._jobs

    @property
    def platform(self) -> Platform:
        """The target platform."""
        return self._platform

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    @property
    def n_machines(self) -> int:
        return len(self._platform)

    def job(self, job_id: int) -> Job:
        """The job with identifier ``job_id``."""
        return self._jobs.by_id(job_id)

    def machine(self, machine_id: int) -> Machine:
        """The machine with identifier ``machine_id``."""
        return self._platform.by_id(machine_id)

    def __repr__(self) -> str:
        return f"Instance({self.n_jobs} jobs, {self.n_machines} machines)"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._jobs == other._jobs and self._platform == other._platform
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._jobs, self._platform))

    # -- derived quantities ----------------------------------------------------
    def processing_time(self, machine_id: int, job_id: int) -> float:
        """:math:`p_{i,j} = W_j p_i`, or ``inf`` if the machine is not eligible."""
        job = self.job(job_id)
        machine = self.machine(machine_id)
        if not machine.hosts(job.databank):
            return math.inf
        return job.size * machine.cycle_time

    def eligible_machines(self, job_id: int) -> tuple[Machine, ...]:
        """Machines that host the databank required by job ``job_id``."""
        return self._platform.machines_hosting(self.job(job_id).databank)

    def eligible_machine_ids(self, job_id: int) -> tuple[int, ...]:
        """Identifiers of the machines eligible for job ``job_id`` (one tuple per databank)."""
        databank = self.job(job_id).databank
        cached = self._eligible_ids.get(databank)
        if cached is None:
            cached = tuple(m.machine_id for m in self._platform.machines_hosting(databank))
            self._eligible_ids[databank] = cached
        return cached

    def eligible_classes(self, job_id: int) -> tuple[CapabilityClass, ...]:
        """Capability classes whose machines may process job ``job_id``."""
        job = self.job(job_id)
        return tuple(
            cls for cls in self._platform.capability_classes() if cls.hosts(job.databank)
        )

    def aggregate_speed(self, job_id: int) -> float:
        """Total speed available to job ``job_id`` (its equivalent processor)."""
        return float(sum(m.speed for m in self.eligible_machines(job_id)))

    def ideal_time(self, job_id: int) -> float:
        """Time to process job ``job_id`` alone, using all its eligible machines.

        This is the denominator of the stretch: a job alone in the system can
        complete in exactly this time (divisibility, no communication cost),
        so its stretch is 1.
        """
        cached = self._ideal_times.get(job_id)
        if cached is None:
            speed = self.aggregate_speed(job_id)
            if speed <= 0:
                raise ModelError(f"job {job_id} has no eligible machine")
            cached = self.job(job_id).size / speed
            self._ideal_times[job_id] = cached
        return cached

    def stretch_weight(self, job_id: int) -> float:
        """The weight :math:`w_j` turning weighted flow into stretch.

        Defined as :math:`1/t^*_j` where :math:`t^*_j` is :meth:`ideal_time`,
        so that :math:`w_j F_j = F_j / t^*_j = S_j`.  On a fully uniform
        platform this is proportional to the paper's :math:`1/W_j`.
        """
        return 1.0 / self.ideal_time(job_id)

    def weight(self, job_id: int) -> float:
        """The effective weight of a job: its explicit weight or the stretch weight."""
        job = self.job(job_id)
        if job.weight is not None:
            return job.weight
        return self.stretch_weight(job_id)

    def delta(self) -> float:
        """Δ: ratio of the largest to the smallest job size."""
        return self._jobs.size_ratio()

    def is_uniform(self) -> bool:
        """True when every job may execute on every machine.

        In that case Lemma 1 applies and the instance is equivalent to a
        single preemptive processor (see :mod:`repro.core.transform`).
        """
        banks = {job.databank for job in self._jobs}
        return self._platform.is_uniform_for(banks)

    # -- restrictions / projections -------------------------------------------
    def restrict_jobs(self, ids: Iterable[int]) -> "Instance":
        """A sub-instance containing only the jobs ``ids`` (platform unchanged)."""
        wanted = set(ids)
        return Instance(
            (j for j in self._jobs if j.job_id in wanted),
            self._platform,
            require_feasible=False,
        )

    def released_before(self, time: float, *, inclusive: bool = True) -> "Instance":
        """The sub-instance of jobs released up to ``time``."""
        return Instance(
            self._jobs.released_before(time, inclusive=inclusive),
            self._platform,
            require_feasible=False,
        )

    def with_jobs(self, jobs: Iterable[Job]) -> "Instance":
        """A new instance with the same platform and different jobs."""
        return Instance(jobs, self._platform)

    def with_platform(self, platform: Platform) -> "Instance":
        """A new instance with the same jobs on a different platform."""
        return Instance(self._jobs, platform)

    # -- summaries ---------------------------------------------------------------
    def lower_bound_makespan(self) -> float:
        """A trivial lower bound on the makespan (load / total speed, from last release)."""
        if self.n_jobs == 0:
            return 0.0
        total_work = self._jobs.total_work()
        return max(
            total_work / self._platform.aggregate_speed(),
            max(job.release + self.ideal_time(job.job_id) for job in self._jobs),
        )

    def describe(self) -> str:
        """Human-readable description used by the CLI and examples."""
        lines = [repr(self), self._platform.describe(), "Jobs:"]
        for job in self._jobs:
            bank = job.databank or "-"
            lines.append(
                f"  {job.label}: release={job.release:.3f}s size={job.size:.3f} "
                f"databank={bank} ideal={self.ideal_time(job.job_id):.3f}s"
            )
        return "\n".join(lines)


class LiveInstance(Instance):
    """An instance that grows as submissions are accepted (service mode).

    The batch engine materializes every job up front; the streaming daemon
    only learns about a job when it is submitted.  :class:`LiveInstance`
    supports that by allowing jobs to be *admitted* after construction, under
    one invariant that keeps it interchangeable with a batch
    :class:`Instance`: admissions must come in non-decreasing
    ``(release, job_id)`` order, so :attr:`jobs` is at all times exactly what
    ``Instance(jobs_so_far, platform)`` would hold.  Everything downstream
    that pins an order to the job sequence (LP column order, the replan
    :class:`~repro.lp.problem.JobTable`) therefore sees the same order
    whether the instance was materialized or grown.

    The caches of :class:`Instance` are keyed by job id or by databank (of
    the fixed platform), so admitting new jobs never invalidates them.  A
    :class:`LiveInstance` is mutable and must not be used as a dictionary key.
    """

    __slots__ = ()

    def __init__(self, platform: Platform, jobs: Iterable[Job] = ()):
        super().__init__(jobs, platform)

    def admit(self, job: Job) -> Job:
        """Append ``job`` to the instance (validating feasibility and order)."""
        if not self._platform.machines_hosting(job.databank):
            raise ModelError(
                f"job {job.job_id} targets databank {job.databank!r} "
                f"which is hosted on no machine"
            )
        jobs = self._jobs
        if len(jobs):
            last = jobs[len(jobs) - 1]
            if (job.release, job.job_id) < (last.release, last.job_id):
                raise ModelError(
                    f"job {job.job_id} admitted out of order: "
                    f"(release={job.release}, id={job.job_id}) sorts before "
                    f"(release={last.release}, id={last.job_id})"
                )
        self._jobs = JobSet(tuple(jobs) + (job,))
        return job
