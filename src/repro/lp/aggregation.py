"""Materialization of LP allocations into plans and work slices.

The LPs of Systems (1) and (2) allocate *work amounts* per (interval,
resource, job); a resource is a capability class, i.e. a group of machines
hosting the same databanks, which act as one equivalent processor.  This
module turns those allocations into something executable:

* inside an interval, the jobs allocated to a resource are serialized in a
  chosen order (any order is feasible because constraint (1c) guarantees that
  every allocated job's deadline is at or after the end of the interval);
  :func:`allocation_rows` yields the resulting ``(resource, job, start,
  end)`` rows;
* a row dedicates every machine of the class to the job, each processing
  work proportional to its speed.  The plan-following schedulers install the
  rows as they are, one lane per class (``per_machine=False``); the
  :class:`~repro.core.schedule.Schedule` of :func:`materialize_solution`
  spreads each row into one validated slice per physical machine, so the
  per-machine slices neither overlap nor exceed capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.schedule import Schedule, WorkSlice
from repro.lp.maxstretch import MaxStretchSolution
from repro.lp.problem import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Lane, Row

__all__ = [
    "allocation_rows",
    "materialize_solution",
    "split_work_across_machines",
    "edf_order",
    "swrpt_terminal_order",
]

#: Work amounts smaller than this (absolute) are not materialized.
_WORK_EPS = 1e-9
#: Relative tolerance accepted when an interval's serialized content slightly
#: exceeds the interval length because of LP roundoff.
_OVERFLOW_TOL = 1e-6


OrderRule = Callable[
    [MaxStretchSolution, int, int, Sequence[tuple[int, float]]], list[tuple[int, float]]
]


def edf_order(
    solution: MaxStretchSolution,
    interval: int,
    resource: int,
    allocations: Sequence[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Order jobs inside an interval by earliest deadline first (ties by id)."""
    return sorted(allocations, key=lambda item: (solution.deadline(item[0]), item[0]))


def swrpt_terminal_order(
    solution: MaxStretchSolution,
    interval: int,
    resource: int,
    allocations: Sequence[tuple[int, float]],
) -> list[tuple[int, float]]:
    """The ordering of the plain *Online* variant (Section 4.3.2, step 4).

    Jobs completing their share on this resource during this interval
    ("terminal jobs") come first, ordered by the SWRPT key (flow factor times
    remaining work, i.e. :math:`p_j\\,\\rho_t(j)` for stretch weights);
    non-terminal jobs follow, ordered by the interval in which their share on
    the resource completes.
    """
    terminal: list[tuple[int, float]] = []
    non_terminal: list[tuple[int, float]] = []
    for job_id, work in allocations:
        last = solution.completion_interval_on_resource(job_id, resource)
        if last is not None and last <= interval:
            terminal.append((job_id, work))
        else:
            non_terminal.append((job_id, work))

    def swrpt_key(item: tuple[int, float]) -> tuple[float, int]:
        job = solution.problem.job_by_id(item[0])
        return (job.flow_factor * job.remaining_work, item[0])

    def completion_key(item: tuple[int, float]) -> tuple[int, float, int]:
        job_id, _ = item
        last = solution.completion_interval_on_resource(job_id, resource)
        job = solution.problem.job_by_id(job_id)
        return (
            last if last is not None else len(solution.interval_bounds),
            job.flow_factor * job.remaining_work,
            job_id,
        )

    return sorted(terminal, key=swrpt_key) + sorted(non_terminal, key=completion_key)


def split_work_across_machines(
    instance: Instance,
    machine_ids: Sequence[int],
    job_id: int,
    start: float,
    end: float,
) -> list[WorkSlice]:
    """Dedicate the given machines to one job over ``[start, end]``.

    Every machine of the group is fully busy over the interval and processes
    work proportional to its speed; the total work equals the aggregate
    speed times the duration.
    """
    if end <= start:
        return []
    slices = []
    for machine_id in machine_ids:
        machine = instance.machine(machine_id)
        work = machine.speed * (end - start)
        if work <= _WORK_EPS:
            continue
        slices.append(
            WorkSlice(job_id=job_id, machine_id=machine_id, start=start, end=end, work=work)
        )
    return slices


def allocation_rows(
    solution: MaxStretchSolution, order_rule: OrderRule = edf_order
) -> Iterator[tuple[int, int, float, float]]:
    """Serialize the allocation into ``(resource, job_id, start, end)`` rows.

    One row per share, interval by interval and resource by resource; the
    rows of a resource never overlap and come out in increasing start order.
    """
    for t, (lo, hi) in enumerate(solution.interval_bounds):
        length = hi - lo
        if length <= 0:
            # Zero-length intervals can only carry zero work.
            continue
        for resource_idx, shares in sorted(solution.shares_in_interval(t).items()):
            allocations = [(job_id, work) for job_id, work in shares if work > _WORK_EPS]
            if not allocations:
                continue
            speed = solution.problem.resources[resource_idx].speed
            ordered = order_rule(solution, t, resource_idx, allocations)
            total_duration = sum(work for _, work in ordered) / speed
            scale = 1.0
            if total_duration > length:
                if total_duration > length * (1.0 + _OVERFLOW_TOL) + _OVERFLOW_TOL:
                    raise ScheduleError(
                        f"interval {t} on resource {resource_idx} overflows: "
                        f"needs {total_duration:.9f}s but only {length:.9f}s available"
                    )
                scale = length / total_duration
            cursor = lo
            for job_id, work in ordered:
                duration = (work / speed) * scale
                if duration <= 0:
                    continue
                end = min(cursor + duration, hi)
                yield resource_idx, job_id, cursor, end
                cursor = end


def materialize_solution(
    solution: MaxStretchSolution,
    instance: Instance,
    *,
    order_rule: OrderRule = edf_order,
    per_machine: bool = True,
) -> Schedule | list[Lane]:
    """Turn an LP allocation into a concrete schedule.

    Parameters
    ----------
    solution:
        The allocation to materialize.
    instance:
        The instance providing the physical machines behind each resource.
    order_rule:
        Serialization order of the jobs inside each (interval, resource);
        defaults to earliest deadline first, which is always feasible.
    per_machine:
        ``True`` spreads every row over the machines of its class and returns
        the validated :class:`Schedule`.  ``False`` returns the same plan as
        lanes, one per capability class, which is what the plan-following
        schedulers install: the machines of a class all follow one timeline.
    """
    resources = solution.problem.resources
    rows = allocation_rows(solution, order_rule)
    if not per_machine:
        return _class_lanes(resources, instance, rows)
    return Schedule(
        piece
        for resource_idx, job_id, start, end in rows
        for piece in split_work_across_machines(
            instance, resources[resource_idx].machine_ids, job_id, start, end
        )
    )


def _class_lanes(
    resources: Sequence[Resource],
    instance: Instance,
    rows: Iterable[tuple[int, int, float, float]],
) -> list[Lane]:
    """Group ``rows`` into one lane per resource, shared by all its machines.

    :func:`split_work_across_machines` drops a machine from a row in which it
    would do no more than ``_WORK_EPS`` work.  A class whose slowest machine
    keeps every row shares one timeline; any other class gets one lane per
    machine, holding exactly the rows that function keeps for it.
    """
    timelines: dict[int, list[Row]] = {}
    for resource_idx, job_id, start, end in rows:
        timelines.setdefault(resource_idx, []).append((start, end, job_id))
    lanes: list[Lane] = []
    for resource_idx, timeline in timelines.items():
        machine_ids = resources[resource_idx].machine_ids
        slowest = min(instance.machine(m).speed for m in machine_ids)
        if all(slowest * (end - start) > _WORK_EPS for start, end, _ in timeline):
            lanes.append((machine_ids, timeline))
            continue
        for m in machine_ids:
            kept = [
                row
                for row in timeline
                if split_work_across_machines(instance, (m,), row[2], row[0], row[1])
            ]
            lanes.append(((m,), kept))
    return lanes
