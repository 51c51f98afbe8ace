"""Materialization of LP allocations into plan lanes.

The LPs of Systems (1) and (2) allocate *work amounts* per (interval,
resource, job) -- the :class:`~repro.lp.maxstretch.Shares` arrays of a
:class:`~repro.lp.maxstretch.MaxStretchSolution`; a resource is a
capability class, i.e. a group of machines hosting the same databanks,
which act as one equivalent processor.  This module turns those arrays into
something executable:

* :func:`share_totals` derives, once per solution, what the plans read:
  each job's last interval with work on each resource (hence its last
  interval overall) and its work total per resource;
* inside an interval, the jobs allocated to a resource are serialized in a
  chosen order (any order is feasible because constraint (1c) guarantees that
  every allocated job's deadline is at or after the end of the interval).
  An order is a *key builder* (:func:`edf_order`,
  :func:`swrpt_terminal_order`): per-share key arrays, so one ``np.lexsort``
  orders every share; :func:`allocation_rows` yields the resulting
  ``(resource, job, start, end)`` rows;
* a row dedicates every machine of the class to the job, each processing
  work proportional to its speed.  :func:`materialize_solution` returns
  the rows as lanes, one timeline per class, which is what the
  plan-following schedulers install.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.schedule import WorkSlice
from repro.lp.maxstretch import MaxStretchSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Lane, Row

__all__ = [
    "ShareTotals",
    "share_totals",
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


class ShareTotals(NamedTuple):
    """Per-job views of a solution's shares.

    Jobs are numbered by their position in ``problem.jobs``.
    """

    #: Per share, the position of its job.
    pos: np.ndarray
    #: ``(job, resource)``: last interval with positive work there, -1 if none.
    last: np.ndarray
    #: ``(job, resource)``: work total there, summed in share order.
    work: np.ndarray


def share_totals(solution: MaxStretchSolution) -> ShareTotals:
    """The per-job views of ``solution.shares``, in one pass over the arrays."""
    problem = solution.problem
    shares = solution.shares
    ids = np.fromiter((job.job_id for job in problem.jobs), np.int64, problem.n_jobs)
    by_id = np.argsort(ids)
    pos = by_id[np.searchsorted(ids, shares.job_id, sorter=by_id)]
    n_resources = problem.n_resources
    size = problem.n_jobs * n_resources
    cell = pos * n_resources + shares.c
    last = np.full(size, -1, dtype=np.int64)
    positive = shares.work > 0
    np.maximum.at(last, cell[positive], shares.t[positive])
    work = np.bincount(cell, weights=shares.work, minlength=size)
    shape = (problem.n_jobs, n_resources)
    return ShareTotals(pos, last.reshape(shape), work.reshape(shape))


#: An order inside each (interval, resource): per-share sort keys, most
#: significant first; job ids break the remaining ties.
OrderKeys = Callable[[MaxStretchSolution, ShareTotals], tuple[np.ndarray, ...]]


def edf_order(solution: MaxStretchSolution, totals: ShareTotals) -> tuple[np.ndarray, ...]:
    """Earliest deadline first (ties by id): the key is the job's deadline."""
    _, releases, factors = solution.problem.job_vectors()
    return ((releases + solution.objective * factors)[totals.pos],)


def swrpt_terminal_order(
    solution: MaxStretchSolution, totals: ShareTotals
) -> tuple[np.ndarray, ...]:
    """The ordering of the plain *Online* variant (Section 4.3.2, step 4).

    Jobs completing their share on this resource during this interval
    ("terminal jobs") come first, ordered by the SWRPT key (flow factor times
    remaining work, i.e. :math:`p_j\\,\\rho_t(j)` for stretch weights);
    non-terminal jobs follow, ordered by the interval in which their share on
    the resource completes, then by the SWRPT key.  One key pair does both:
    a terminal share's last interval on the resource is its own, the
    earliest any share of the interval can have.
    """
    problem = solution.problem
    _, _, factors = problem.job_vectors()
    swrpt = factors * problem.remaining_works()
    return totals.last[totals.pos, solution.shares.c], swrpt[totals.pos]


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
    solution: MaxStretchSolution, order_rule: OrderKeys = edf_order
) -> Iterator[tuple[int, int, float, float]]:
    """Serialize the allocation into ``(resource, job_id, start, end)`` rows.

    One row per share above ``_WORK_EPS`` in an interval of positive
    length, interval by interval and resource by resource, each group in
    ``order_rule``'s order; the rows of a resource never overlap and come
    out in increasing start order.
    """
    shares = solution.shares
    bounds = solution.interval_bounds
    lengths = np.array([hi - lo for lo, hi in bounds])
    # Zero-length intervals can only carry zero work.
    (kept,) = np.nonzero((shares.work > _WORK_EPS) & (lengths[shares.t] > 0))
    keys = order_rule(solution, share_totals(solution))
    # ``np.lexsort`` sorts by its last key first: (t, c, rule keys..., job id).
    columns = (shares.t, shares.c, *keys, shares.job_id)
    kept = kept[np.lexsort([column[kept] for column in reversed(columns)])]
    ts = shares.t[kept]
    cs = shares.c[kept]
    opens = np.ones(kept.size, dtype=bool)  # the first row of each (t, c) group
    opens[1:] = (ts[1:] != ts[:-1]) | (cs[1:] != cs[:-1])
    firsts = np.flatnonzero(opens).tolist()
    ends = firsts[1:] + [kept.size]
    ts = ts.tolist()
    cs = cs.tolist()
    job_ids = shares.job_id[kept].tolist()
    works = shares.work[kept].tolist()
    resources = solution.problem.resources
    for first, end in zip(firsts, ends):
        t, resource_idx = ts[first], cs[first]
        lo, hi = bounds[t]
        length = hi - lo
        speed = resources[resource_idx].speed
        total_duration = sum(works[first:end]) / speed
        scale = 1.0
        if total_duration > length:
            if total_duration > length * (1.0 + _OVERFLOW_TOL) + _OVERFLOW_TOL:
                raise ScheduleError(
                    f"interval {t} on resource {resource_idx} overflows: "
                    f"needs {total_duration:.9f}s but only {length:.9f}s available"
                )
            scale = length / total_duration
        cursor = lo
        for job_id, work in zip(job_ids[first:end], works[first:end]):
            duration = (work / speed) * scale
            if duration <= 0:
                continue
            stop = min(cursor + duration, hi)
            yield resource_idx, job_id, cursor, stop
            cursor = stop


def materialize_solution(
    solution: MaxStretchSolution,
    instance: Instance,
    *,
    order_rule: OrderKeys = edf_order,
) -> list[Lane]:
    """Turn an LP allocation into plan lanes, one timeline per capability class.

    ``order_rule`` serializes the jobs inside each (interval, resource);
    it defaults to earliest deadline first, which is always feasible.

    :func:`split_work_across_machines` drops a machine from a row in which it
    would do no more than ``_WORK_EPS`` work.  A class whose slowest machine
    keeps every row shares one timeline; any other class gets one lane per
    machine, holding exactly the rows that function keeps for it.
    """
    resources = solution.problem.resources
    timelines: dict[int, list[Row]] = {}
    for resource_idx, job_id, start, end in allocation_rows(solution, order_rule):
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
