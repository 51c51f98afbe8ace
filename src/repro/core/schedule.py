"""Schedule representation and validation.

A schedule is a set of :class:`WorkSlice` records.  Each slice states that a
machine was dedicated to one job during a time interval and processed a given
amount of that job's work.  Because the model is divisible with negligible
communication, this representation is lossless: any feasible execution of the
system can be described as such a set of slices, and completion times follow
directly.

:meth:`Schedule.validate` checks every constraint of the model:

* slices start no earlier than the job's release date,
* machines only process jobs whose databank they host,
* the work done in a slice never exceeds the machine's capacity over the
  slice duration,
* slices on the same machine do not overlap,
* (optionally) each job's slices sum to exactly its size.

The simulation engine records its runs as columns (job, machine, start, end,
work) and hands them over through :meth:`Schedule.from_columns`; such a
schedule builds its sorted :class:`WorkSlice` tuple only when something first
reads it (iteration, ``len``, :attr:`~Schedule.slices` or any derived
quantity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import ScheduleError
from repro.core.instance import Instance

__all__ = ["WorkSlice", "Schedule"]


@dataclass(frozen=True)
class WorkSlice:
    """A contiguous dedication of one machine to one job.

    Parameters
    ----------
    job_id, machine_id:
        The job processed and the machine processing it.
    start, end:
        Interval bounds in seconds, with ``end > start``.
    work:
        Amount of the job's work (same unit as :attr:`Job.size`) completed in
        the slice.  For a machine fully dedicated to the job during the slice
        this equals ``(end - start) * machine.speed``; it may be smaller when
        the machine idles part of the slice (e.g. LP leftovers).
    """

    job_id: int
    machine_id: int
    start: float
    end: float
    work: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ScheduleError(
                f"slice for job {self.job_id} on machine {self.machine_id} has "
                f"non-positive duration [{self.start}, {self.end}]"
            )
        if self.work <= 0:
            raise ScheduleError(
                f"slice for job {self.job_id} on machine {self.machine_id} has "
                f"non-positive work {self.work}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class Schedule:
    """An immutable set of work slices with derived metrics.

    Instances are typically produced by the simulation engine
    (:mod:`repro.simulation.engine`, through :meth:`from_columns`) or by the
    off-line LP scheduler.  Slices are ordered by ``(start, machine_id,
    job_id)``.
    """

    __slots__ = ("_slices", "_columns", "_completion_cache")

    def __init__(self, slices: Iterable[WorkSlice]):
        self._slices: tuple[WorkSlice, ...] | None = tuple(
            sorted(slices, key=lambda s: (s.start, s.machine_id, s.job_id))
        )
        #: ``(job_id, machine_id, start, end, work)`` arrays (integer ids,
        #: float64 dates and work), one entry per slice in recording order;
        #: set by :meth:`from_columns` only.
        self._columns: tuple[np.ndarray, ...] | None = None
        self._completion_cache: dict[int, float] | None = None

    @classmethod
    def from_columns(
        cls,
        job_id: Sequence[int],
        machine_id: Sequence[int],
        start: Sequence[float],
        end: Sequence[float],
        work: Sequence[float],
    ) -> "Schedule":
        """A schedule over slices given as equal-length columns.

        The columns are checked as :class:`WorkSlice` checks one slice
        (positive duration and work); the slice objects themselves are built
        on the first read.  Columns that already are integer (ids) or
        float64 (dates, work) arrays or buffers -- the engine's typed run
        buffers -- are held as views, not copied; other sequences are
        converted to int64 / float64 arrays.
        """
        columns = (
            _int_column(job_id),
            _int_column(machine_id),
            np.asarray(start, dtype=np.float64),
            np.asarray(end, dtype=np.float64),
            np.asarray(work, dtype=np.float64),
        )
        if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
            raise ScheduleError("schedule columns must be one-dimensional and of equal length")
        bad = np.flatnonzero(~((columns[3] > columns[2]) & (columns[4] > 0)))
        if bad.size:
            i = int(bad[0])
            # Raises the slice's own ScheduleError.
            WorkSlice(*(column[i].item() for column in columns))
        schedule = cls.__new__(cls)
        schedule._slices = None
        schedule._columns = columns
        schedule._completion_cache = None
        return schedule

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.slices)

    def __iter__(self) -> Iterator[WorkSlice]:
        return iter(self.slices)

    def __repr__(self) -> str:
        return f"Schedule({len(self)} slices)"

    @property
    def slices(self) -> tuple[WorkSlice, ...]:
        if self._slices is None:
            job, machine, start, end, work = self._columns  # type: ignore[misc]
            # ``lexsort`` sorts by its last key first: (start, machine, job).
            order = np.lexsort((job, machine, start))
            self._slices = tuple(
                map(
                    WorkSlice,
                    job[order].tolist(),
                    machine[order].tolist(),
                    start[order].tolist(),
                    end[order].tolist(),
                    work[order].tolist(),
                )
            )
        return self._slices

    def slices_for_job(self, job_id: int) -> tuple[WorkSlice, ...]:
        return tuple(s for s in self.slices if s.job_id == job_id)

    def slices_on_machine(self, machine_id: int) -> tuple[WorkSlice, ...]:
        return tuple(s for s in self.slices if s.machine_id == machine_id)

    def machine_ids(self) -> frozenset[int]:
        return frozenset(s.machine_id for s in self.slices)

    # -- derived quantities ------------------------------------------------------
    def completion_times(self) -> dict[int, float]:
        """Completion time of each job appearing in the schedule."""
        if self._completion_cache is None:
            completions: dict[int, float] = {}
            for s in self.slices:
                completions[s.job_id] = max(completions.get(s.job_id, -math.inf), s.end)
            self._completion_cache = completions
        return dict(self._completion_cache)

    def completion_time(self, job_id: int) -> float:
        """Completion time of one job (KeyError if the job never executes)."""
        return self.completion_times()[job_id]

    def makespan(self) -> float:
        """Largest slice end time (0 for an empty schedule)."""
        if not self.slices:
            return 0.0
        return max(s.end for s in self.slices)

    def start_time(self, job_id: int) -> float:
        """First time the job receives service."""
        slices = self.slices_for_job(job_id)
        if not slices:
            raise KeyError(job_id)
        return min(s.start for s in slices)

    def work_done(self, job_id: int) -> float:
        """Total work executed for the job across all machines."""
        return float(sum(s.work for s in self.slices if s.job_id == job_id))

    def busy_time(self, machine_id: int) -> float:
        """Total time the machine spends inside slices."""
        return float(sum(s.duration for s in self.slices if s.machine_id == machine_id))

    # -- validation -----------------------------------------------------------------
    def validate(
        self,
        instance: Instance,
        *,
        require_complete: bool = True,
        tol: float = 1e-6,
    ) -> None:
        """Raise :class:`ScheduleError` if the schedule violates the model.

        Parameters
        ----------
        instance:
            The instance this schedule is supposed to solve.
        require_complete:
            When True, also check that every job of the instance is fully
            processed (total work equals the job size).
        tol:
            Absolute/relative tolerance used for floating-point comparisons;
            LP-produced schedules accumulate roundoff of this order.
        """
        violations = self.violations(instance, require_complete=require_complete, tol=tol)
        if violations:
            raise ScheduleError("; ".join(violations))

    def violations(
        self,
        instance: Instance,
        *,
        require_complete: bool = True,
        tol: float = 1e-6,
    ) -> list[str]:
        """Return a list of human-readable constraint violations (empty if valid)."""
        problems: list[str] = []
        known_jobs = set(instance.jobs.ids())
        known_machines = set(instance.platform.ids())

        ordered = self.slices
        for s in ordered:
            if s.job_id not in known_jobs:
                problems.append(f"slice references unknown job {s.job_id}")
                continue
            if s.machine_id not in known_machines:
                problems.append(f"slice references unknown machine {s.machine_id}")
                continue
            job = instance.job(s.job_id)
            machine = instance.machine(s.machine_id)
            if s.start < job.release - tol:
                problems.append(
                    f"job {s.job_id} starts at {s.start:.6f} before its release {job.release:.6f}"
                )
            if not machine.hosts(job.databank):
                problems.append(
                    f"job {s.job_id} (databank {job.databank!r}) scheduled on machine "
                    f"{s.machine_id} which does not host it"
                )
            capacity = s.duration * machine.speed
            if s.work > capacity * (1 + tol) + tol:
                problems.append(
                    f"slice of job {s.job_id} on machine {s.machine_id} does "
                    f"{s.work:.6f} work but capacity is {capacity:.6f}"
                )

        # Machine overlap check.
        by_machine: dict[int, list[WorkSlice]] = {}
        for s in ordered:
            by_machine.setdefault(s.machine_id, []).append(s)
        for machine_id, slices in by_machine.items():
            slices = sorted(slices, key=lambda s: s.start)
            for prev, nxt in zip(slices, slices[1:]):
                if nxt.start < prev.end - tol:
                    problems.append(
                        f"machine {machine_id} overlaps: job {prev.job_id} until "
                        f"{prev.end:.6f} vs job {nxt.job_id} from {nxt.start:.6f}"
                    )

        # Completeness check: each job's work gathered in one pass, in slice
        # order, so every sum is the float :meth:`work_done` returns.
        if require_complete:
            works: dict[int, list[float]] = {}
            for s in ordered:
                works.setdefault(s.job_id, []).append(s.work)
            for job in instance.jobs:
                done = float(sum(works.get(job.job_id, ())))
                if not math.isclose(done, job.size, rel_tol=tol, abs_tol=tol * max(1.0, job.size)):
                    problems.append(
                        f"job {job.job_id} executed {done:.6f} work out of {job.size:.6f}"
                    )
        return problems

    # -- rendering ---------------------------------------------------------------------
    def gantt(self, instance: Instance, *, width: int = 72) -> str:
        """A coarse ASCII Gantt chart (one line per machine).

        Intended for examples and debugging, not for precise inspection: each
        character cell covers ``makespan / width`` seconds and shows the job
        that received the most service in that cell.
        """
        horizon = self.makespan()
        if horizon <= 0:
            return "(empty schedule)"
        lines = []
        cell = horizon / width
        for machine in instance.platform:
            row = []
            slices = self.slices_on_machine(machine.machine_id)
            for c in range(width):
                t0, t1 = c * cell, (c + 1) * cell
                best_job, best_overlap = None, 0.0
                for s in slices:
                    overlap = min(s.end, t1) - max(s.start, t0)
                    if overlap > best_overlap:
                        best_overlap, best_job = overlap, s.job_id
                row.append("." if best_job is None else _job_char(best_job))
            lines.append(f"{machine.label:>6} |{''.join(row)}|")
        lines.append(f"{'':>6}  0{'':<{width - 10}}{horizon:9.2f}s")
        return "\n".join(lines)

    # -- composition ---------------------------------------------------------------------
    def merged_with(self, other: "Schedule") -> "Schedule":
        """Union of two schedules (no validity check)."""
        return Schedule(list(self.slices) + list(other.slices))


def _job_char(job_id: int) -> str:
    """Map a job id to a printable character for the ASCII Gantt chart."""
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return alphabet[job_id % len(alphabet)]


def _int_column(values: Sequence[int]) -> np.ndarray:
    """``values`` as an integer array: a view when it already is one."""
    column = np.asarray(values)
    return column if column.dtype.kind in "iu" else column.astype(np.int64)
