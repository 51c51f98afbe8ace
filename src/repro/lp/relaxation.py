"""System (2): sum-stretch-like re-optimization at fixed max-stretch.

Once the best achievable max-stretch :math:`\\mathcal{S}^*` is known, the
on-line heuristic of Section 4.3.2 re-optimizes the allocation so that jobs
finish *as early as possible on average* without degrading the optimal
max-stretch.  Since sum-stretch minimization is an open problem, the paper
uses a rational relaxation: minimize the sum over jobs of the mean time of
the intervals in which the job is processed, weighted by the fraction of the
job processed there,

.. math::

   \\min \\sum_j \\sum_t \\Big(\\sum_i \\alpha^{(t)}_{i,j}\\Big)
        \\frac{\\sup I_t + \\inf I_t}{2},

subject to the same deadline/capacity/completeness constraints as System (1)
with the objective fixed at :math:`\\mathcal{S}^*`.

System (2) is degenerate: its costs ignore the resource, so every split of
a job's interval work across its eligible resources is optimal.  The paper
leaves the choice among these optima open.  The split *inside* a job class
is fixed: the LP has one column set per class and its work is served
first-in first-out (:func:`~repro.lp.maxstretch._extract_allocations`),
which costs nothing because the cost per unit of work, ``midpoint /
work``, is the same for every member.  The split across resources is fixed
after the solve: :func:`~repro.lp.maxstretch._split_across_resources`
derives it from the per-(interval, class) totals and the capacities alone,
so it no longer depends on the solver's starting basis.  What stays open
are exchanges between classes of equal work, whose costs tie too.

System (1) is more degenerate still: every schedule meeting the deadlines
at :math:`\\mathcal{S}^*` is optimal.  ``generic=True`` picks one of them
with a hashed cost per column (:func:`_generic_costs`) instead of System
(2)'s, which the off-line schedule uses: its answer is then a function of
the problem, and it favours neither early nor late completions.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InfeasibleError, SolverError
from repro.lp.backends import SolverBackend, make_backend
from repro.lp.intervals import IntervalStructure, build_interval_structure
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    LiveProbe,
    NO_SHARES,
    MaxStretchSolution,
    _extract_allocations,
    _lp_spec,
    _split_across_resources,
    build_skeleton,
    warm_hint,
)
from repro.lp.problem import MaxStretchProblem

__all__ = ["reoptimize_allocation"]


def reoptimize_allocation(
    problem: MaxStretchProblem,
    objective: float,
    *,
    inflation: float | None = None,
    backend: SolverBackend | None = None,
    live: LiveProbe | None = None,
    generic: bool = False,
) -> MaxStretchSolution:
    """Solve System (2) for ``problem`` at max weighted flow ``objective``.

    Parameters
    ----------
    problem:
        The problem whose optimal max weighted flow was just computed.
    objective:
        The max weighted flow bound :math:`\\mathcal{S}^*` (deadlines are
        derived from it).
    backend:
        LP solver backend (``None`` -> a fresh persistent HiGHS backend).
    live:
        The winning probe of ``problem``'s milestone search.  System (2)
        usually lands in the probe's milestone interval: a target inside
        its ``F`` bounds -- each geometric inflation retry included --
        whose interval structure is the probe's takes the probe's skeleton
        and is solved on its model; otherwise, or on failure, the program
        is rebuilt (warm-started from the series basis).
    inflation:
        Relative slack added to ``objective`` before building the deadlines.
        The optimum returned by :func:`minimize_max_weighted_flow` sits
        exactly on the feasibility boundary; without a tiny inflation the
        re-optimization LP can come out marginally infeasible because of
        floating-point roundoff (the paper reports the same phenomenon).
        If the LP is still infeasible the inflation is increased tenfold
        at a time up to ``1e-3`` before giving up.  Defaults to ``1e-7``,
        and to ``1e-12`` with ``generic``, whose answer is installed as a
        System (1) optimum: its deadlines stay at the optimum to 1e-12.
    generic:
        Replace System (2)'s costs by a fixed generic cost per column
        (:func:`_generic_costs`).  The program then only picks *one* of
        System (1)'s optima at ``objective``, as a function of the problem
        rather than of the solver's pivoting, without favouring early
        completions: the off-line schedule's tie-break.

    Returns
    -------
    MaxStretchSolution
        The re-optimized allocation.  Its ``objective`` attribute records the
        (possibly inflated) deadline bound actually used.
    """
    if not problem.jobs:
        return MaxStretchSolution(
            objective=objective,
            problem=problem,
            structure=build_interval_structure(problem, max(objective, 0.0)),
            interval_bounds=(),
            shares=NO_SHARES,
        )

    backend = make_backend(backend)
    if inflation is None:
        inflation = 1e-12 if generic else 1e-7
    slack = inflation
    last_error: str | None = None
    while slack <= 1e-3:
        target = objective * (1.0 + slack)
        solution = _solve_fixed_objective(problem, target, backend, live, generic)
        if solution is not None:
            return solution
        last_error = f"System (2) infeasible at objective {target!r}"
        slack *= 10.0
    raise InfeasibleError(last_error or "System (2) infeasible")


def _solve_fixed_objective(
    problem: MaxStretchProblem,
    objective: float,
    backend: SolverBackend,
    live: LiveProbe | None,
    generic: bool,
) -> MaxStretchSolution | None:
    skeleton = _fixed_objective_skeleton(problem, objective, live)
    if skeleton is None:
        return None
    structure = skeleton.structure

    # Objective coefficient per work column: fraction of a member's work
    # processed in the interval (work / remaining, equal across the class)
    # times the interval midpoint -- vectorized over the skeleton's
    # per-column interval/class index arrays; slacks cost nothing (the
    # boundary values at ``objective`` double as the solution's interval
    # bounds below).
    boundary_values = structure.bnd_const + structure.bnd_coef * objective
    midpoints = 0.5 * (boundary_values[:-1] + boundary_values[1:])
    costs = np.zeros(skeleton.n_variables)
    if generic:
        costs[: skeleton.key_t.size] = _generic_costs(skeleton)
    else:
        works = problem.remaining_works()[skeleton.class_pos]
        costs[: skeleton.key_t.size] = midpoints[skeleton.key_t] / works[skeleton.key_k]
    result = None
    if live is not None and live.skeleton is skeleton and live.f_low <= objective <= live.f_high:
        try:
            result = backend.resolve_fixed(
                live.model, column=0, value=objective, costs=np.concatenate(([0.0], costs))
            )
        except SolverError:
            pass  # build the program afresh below
    if result is None:
        spec = _lp_spec(problem, skeleton, fixed_objective=objective, costs=costs)
        result = backend.solve(spec, warm=warm_hint(skeleton, with_objective_var=False))
    if not result.feasible:
        return None
    offset = result.values.size - skeleton.n_variables  # 1 on the live model: F leads
    x = _split_across_resources(problem, skeleton, offset, result.values, objective)
    values = boundary_values.tolist()
    bounds = tuple(zip(values[:-1], values[1:]))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        shares=_extract_allocations(problem, skeleton, 0, x),
    )


def _fixed_objective_skeleton(
    problem: MaxStretchProblem, objective: float, live: LiveProbe | None
) -> ConstraintSkeleton | None:
    """The constraint skeleton of ``problem`` at ``objective``.

    Strictly inside the live probe's ``F`` range the milestone order is the
    probe's, so its skeleton is the one a rebuild would produce.  Anywhere
    else the interval structure is rebuilt at ``objective``, and one equal
    to the probe's takes the probe's skeleton all the same: at the range's
    closed ends, where coincident boundaries may keep the probe's order,
    the solve then runs on the probe's model.
    """
    if live is not None and live.f_low < objective < live.f_high:
        return live.skeleton
    structure = build_interval_structure(problem, objective)
    if live is not None and _same_structure(structure, live.skeleton.structure):
        return live.skeleton
    return build_skeleton(problem, structure)


def _same_structure(a: IntervalStructure, b: IntervalStructure) -> bool:
    """Whether ``a`` and ``b`` have the same boundaries and job windows."""
    return (
        np.array_equal(a.bnd_const, b.bnd_const)
        and np.array_equal(a.bnd_coef, b.bnd_coef)
        and np.array_equal(a.start_index, b.start_index)
        and np.array_equal(a.deadline_index, b.deadline_index)
    )


def _generic_costs(skeleton: ConstraintSkeleton) -> np.ndarray:
    """A cost in ``[1, 2)`` per ``x`` column, hashed from its warm-start identity.

    The identity is ``(interval, resource, class)`` with a class named by
    its first member's job id, so the costs are a function of the problem
    alone.  The SplitMix64 finalizer mixes every bit of the identity into
    every bit of the cost: a cost that were affine in the interval (a plain
    multiplicative hash) would make every exchange of work between two
    classes and two intervals cost nothing, the very ties this breaks.
    Unrelated to time, the chosen optimum favours neither early nor late
    completions.
    """
    z = skeleton.warm_col_ids[1 : 1 + skeleton.key_t.size].astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return 1.0 + (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)
