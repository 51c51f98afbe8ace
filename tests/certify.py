"""A solver-free certificate for System (1) and System (2) answers.

``certify(problem, solution)`` checks a System (1) optimum without a second
LP solver, in plain numpy:

* **Feasibility.**  The allocation meets the capacities (1d) and the
  completeness rows (1e) within :data:`FEASIBILITY_TOL` relative, and puts
  work only where System (1) allows it: on an eligible resource, in an
  interval inside the job's window ``[earliest start, deadline at S*]``
  (within :data:`REL`).  The rows get the looser tolerance because the LP
  solvers accept a primal infeasibility of 1e-7 (HiGHS's default, also
  behind ``linprog``): scipy answers to the warm-start property cases of
  ``test_lp_certificates.py`` overrun a capacity by up to 1.0e-7.
* **Optimality.**  System (1) at a fixed ``F`` is a transportation problem
  (capacities, completeness, no per-job parallelism bound), so by Hall's
  theorem it is infeasible iff some job set ``S`` has more work than the
  capacity its windows reach::

      work(S) > sum_c speed_c * |union of [e_j, d_j(F)] over j in S eligible on c|

  ``certify`` finds such a violated cut at ``S*(1 - 1e-9)``:

  - on an *on-line* problem (every job starts at the same ``now``) with at
    most three resources, the reach of a job set on resource ``c`` is one
    horizon ``[now, h_c]``; enumerating the horizon vectors over ``now``
    and the deadlines, with ``S(h) = {j : d_j <= h_c for every eligible
    c}``, finds the most violated cut ((n+1)^R vectors);
  - on any problem with at most :data:`MAX_SUBSET_JOBS` jobs, every job
    set is enumerated.

``certify_system2(problem, solution)`` checks a System (2) answer: the
feasibility part above at the answer's (inflated) objective.  System (2)
keeps the max-stretch and only moves work earlier, so feasibility against
the per-job problem is the whole contract; the allocations are checked
job by job, which is what the class LP's first-in first-out split must
deliver.

A failed check raises :class:`AssertionError`; a problem neither
optimality check applies to raises :class:`ValueError`.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.lp.maxstretch import MaxStretchSolution
from repro.lp.problem import MaxStretchProblem

__all__ = ["certify", "certify_system2", "MAX_HORIZON_RESOURCES", "MAX_SUBSET_JOBS"]

#: Relative tolerance of the window checks and of the optimality cut.
REL = 1e-9
#: Relative tolerance of the (1d)/(1e) rows: ten times the LP solvers'
#: primal feasibility tolerance.
FEASIBILITY_TOL = 1e-6
#: Largest resource count the horizon enumeration accepts: its grid has
#: (n+1)^R horizon vectors.
MAX_HORIZON_RESOURCES = 3
#: Largest job count the job-set enumeration accepts (2^n sets).
MAX_SUBSET_JOBS = 12


def certify(problem: MaxStretchProblem, solution: MaxStretchSolution) -> str:
    """Certify ``solution`` as a System (1) optimum of ``problem``.

    Returns the optimality check that applied (``"horizons"`` or
    ``"subsets"``).
    """
    _check_feasible(problem, solution)
    below = solution.objective * (1.0 - REL)
    starts = np.array([job.earliest_start for job in problem.jobs])
    if np.all(starts == starts[0]) and len(problem.resources) <= MAX_HORIZON_RESOURCES:
        found, method = _horizon_cut(problem, below), "horizons"
    elif problem.n_jobs <= MAX_SUBSET_JOBS:
        found, method = _subset_cut(problem, below), "subsets"
    else:
        raise ValueError(
            f"no optimality check for {problem.n_jobs} jobs with distinct starts "
            f"on {len(problem.resources)} resources"
        )
    assert found, f"no violated Hall cut at S*(1 - {REL}) = {below!r}: S* is not optimal"
    return method


def certify_system2(problem: MaxStretchProblem, solution: MaxStretchSolution) -> None:
    """Certify ``solution`` as a feasible System (2) answer for ``problem``.

    Capacities (1d), completeness (1e) and every job's window at
    ``solution.objective`` (the inflated deadline bound System (2) used).
    """
    _check_feasible(problem, solution)


def _check_feasible(problem: MaxStretchProblem, solution: MaxStretchSolution) -> None:
    """(1d) and (1e) within :data:`FEASIBILITY_TOL`, the windows within :data:`REL`."""
    works, starts, deadlines, eligible = _windows(problem, solution.objective)
    position = {job.job_id: p for p, job in enumerate(problem.jobs)}
    t, c, job_id, work = solution.shares
    pos = np.array([position[j] for j in job_id.tolist()], dtype=np.int64)
    bounds = np.array(solution.interval_bounds, dtype=float).reshape(-1, 2)
    start, end = bounds[t, 0], bounds[t, 1]
    positive = work > 0
    due = deadlines[pos]
    for bad, what in (
        (work < -FEASIBILITY_TOL * np.maximum(1.0, works[pos]), "negative work"),
        (positive & ~eligible[pos, c], "ineligible resource"),
        (positive & (start < starts[pos] - REL * np.maximum(1.0, np.abs(start))), "early"),
        (positive & (end > due + REL * np.maximum(1.0, np.abs(due))), "late"),
    ):
        assert not bad.any(), f"{what}: (t, c, job, work) = {[x[bad][0] for x in solution.shares]}"
    work = np.where(positive, work, 0.0)
    done = np.bincount(pos, weights=work, minlength=problem.n_jobs)
    for p in np.flatnonzero(np.abs(done - works) > FEASIBILITY_TOL * np.maximum(1.0, works)):
        raise AssertionError(f"job {problem.jobs[p].job_id} gets {done[p]!r} of {works[p]!r}")
    speeds = problem.resource_speeds()
    used = np.zeros((len(bounds), len(speeds)))
    np.add.at(used, (t, c), work)
    capacity = np.maximum(0.0, bounds[:, 1] - bounds[:, 0])[:, None] * speeds[None, :]
    over = used > capacity + FEASIBILITY_TOL * np.maximum(1.0, capacity)
    for row, col in zip(*np.nonzero(over)):
        raise AssertionError(
            f"interval {row} resource {col} holds {used[row, col]!r} > {capacity[row, col]!r}"
        )


def _windows(problem: MaxStretchProblem, objective: float):
    """Per-job works, windows at ``objective`` and eligibility matrix."""
    works = np.array([job.remaining_work for job in problem.jobs])
    starts = np.array([job.earliest_start for job in problem.jobs])
    deadlines = np.array([job.deadline(objective) for job in problem.jobs])
    eligible = np.zeros((problem.n_jobs, len(problem.resources)), dtype=bool)
    for row, job in enumerate(problem.jobs):
        eligible[row, list(job.resources)] = True
    return works, starts, deadlines, eligible


def _horizon_cut(problem: MaxStretchProblem, objective: float) -> bool:
    """Whether a horizon vector gives a violated cut (on-line problems)."""
    works, starts, deadlines, eligible = _windows(problem, objective)
    now = starts[0]
    reach = np.maximum(deadlines, now)
    speeds = problem.resource_speeds()
    candidates = [
        np.unique(np.concatenate(([now], reach[eligible[:, c]])))
        for c in range(len(problem.resources))
    ]
    for first in candidates[0]:  # one slice of the (n+1)^R grid at a time
        grid = np.array(list(itertools.product([first], *candidates[1:])))
        # A job is inside S(h) when every eligible resource's horizon covers it.
        inside = np.all((reach[None, :, None] <= grid[:, None, :]) | ~eligible[None], axis=2)
        capacity = (grid - now) @ speeds
        if np.any(inside.astype(float) @ works > capacity):
            return True
    return False


def _subset_cut(problem: MaxStretchProblem, objective: float) -> bool:
    """Whether some job set gives a violated cut (small problems)."""
    works, starts, deadlines, eligible = _windows(problem, objective)
    points = np.unique(np.concatenate((starts, deadlines)))
    left, right = points[:-1], points[1:]
    # covers[j, k]: job j's window contains elementary segment k.
    covers = (starts[:, None] <= left[None]) & (right[None] <= deadlines[:, None])
    members = (np.arange(1, 2**problem.n_jobs)[:, None] >> np.arange(problem.n_jobs)) & 1
    capacity = np.zeros(len(members))
    for c, resource in enumerate(problem.resources):
        reached = (members @ (covers & eligible[:, [c]])) > 0
        capacity += resource.speed * (reached @ (right - left))
    return bool(np.any(members @ works > capacity))
