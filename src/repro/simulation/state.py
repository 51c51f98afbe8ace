"""Mutable execution state shared between the engine and the schedulers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job

__all__ = ["JobRuntime", "SchedulerState", "Assignment"]


@dataclass
class JobRuntime:
    """Execution state of one released job."""

    job: Job
    remaining: float
    first_service: float | None = None

    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def processed(self) -> float:
        """Work already executed."""
        return self.job.size - self.remaining

    def is_finished(self, *, tol: float = 1e-9) -> bool:
        """True when the remaining work is negligible w.r.t. the job size."""
        return self.remaining <= tol * max(1.0, self.job.size)


@dataclass
class Assignment:
    """A scheduling decision: which machine works on which job.

    Attributes
    ----------
    mapping:
        ``machine_id -> job_id``.  Machines absent from the mapping are idle.
    valid_until:
        Optional absolute date after which the scheduler wants to be asked
        again even if no arrival or completion occurred (used by plan-based
        schedulers whose plans contain internal breakpoints).  ``None`` means
        "until the next arrival or completion".
    """

    mapping: dict[int, int] = field(default_factory=dict)
    valid_until: float | None = None

    def machines_of(self, job_id: int) -> list[int]:
        """Machines currently assigned to ``job_id``."""
        return [m for m, j in self.mapping.items() if j == job_id]

    @classmethod
    def idle(cls, valid_until: float | None = None) -> "Assignment":
        """An assignment leaving every machine idle."""
        return cls(mapping={}, valid_until=valid_until)


class SchedulerState:
    """Read-mostly view of the simulation handed to schedulers.

    The engine owns the state; schedulers must treat it as read-only except
    through their return values (assignments).
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.time: float = 0.0
        self.active: dict[int, JobRuntime] = {}
        self.completions: dict[int, float] = {}
        self.released_ids: set[int] = set()
        #: Machines currently unavailable (fault injection).  Empty on a
        #: fault-free run -- every availability-aware query below keeps the
        #: empty-set fast path identical to the historical behaviour.
        self.down: set[int] = set()
        self._machine_ids = frozenset(instance.platform.ids())

    # -- queries used by schedulers ------------------------------------------------
    def active_jobs(self) -> list[JobRuntime]:
        """Released, uncompleted jobs (arbitrary but deterministic order)."""
        return [self.active[j] for j in sorted(self.active)]

    def remaining_work(self, job_id: int) -> float:
        """Remaining work of an active job (0 when completed)."""
        if job_id in self.active:
            return self.active[job_id].remaining
        if job_id in self.completions:
            return 0.0
        raise ModelError(f"job {job_id} has not been released yet")

    def remaining_map(self) -> dict[int, float]:
        """``job_id -> remaining work`` for all active jobs."""
        return {j: rt.remaining for j, rt in self.active.items()}

    def released_jobs(self) -> list[Job]:
        """All jobs released so far (active or completed)."""
        return [self.instance.job(j) for j in sorted(self.released_ids)]

    def is_active(self, job_id: int) -> bool:
        return job_id in self.active

    def is_completed(self, job_id: int) -> bool:
        return job_id in self.completions

    def n_active(self) -> int:
        return len(self.active)

    # -- machine availability (fault injection) -----------------------------------
    def machine_available(self, machine_id: int) -> bool:
        """False while the machine is down per the active fault timeline."""
        return machine_id not in self.down

    def available_ids(self) -> set[int]:
        """Identifiers of the machines currently up."""
        ids = set(self._machine_ids)
        if self.down:
            ids -= self.down
        return ids

    def available_eligible(self, job_id: int):
        """``instance.eligible_machines`` filtered by current availability."""
        machines = self.instance.eligible_machines(job_id)
        if not self.down:
            return machines
        return tuple(m for m in machines if m.machine_id not in self.down)

    # -- mutations (engine only) --------------------------------------------------------
    def release(self, job: Job) -> JobRuntime:
        if job.job_id in self.released_ids:
            raise ModelError(f"job {job.job_id} released twice")
        runtime = JobRuntime(job=job, remaining=job.size)
        self.active[job.job_id] = runtime
        self.released_ids.add(job.job_id)
        return runtime

    def complete(self, job_id: int, time: float) -> None:
        if job_id not in self.active:
            raise ModelError(f"cannot complete job {job_id}: not active")
        del self.active[job_id]
        self.completions[job_id] = time
