"""System (1): optimal max weighted flow / max-stretch (Section 4.3.1).

The off-line optimal maximum weighted flow is computed by

1. bracketing the optimum between a trivial lower bound (every job needs at
   least its ideal time) and a trivial upper bound (serial execution),
2. enumerating the *milestones* inside the bracket
   (:mod:`repro.lp.milestones`),
3. locating the first milestone interval on which the parametric linear
   program System (1) is feasible, and
4. returning that LP's minimizer, which is the global optimum because
   feasibility of "max weighted flow <= F" is monotone in ``F``.

Step 3 is a *certificate-guided parametric search*: because the deadline
right-hand sides are affine in the objective ``F``, the Farkas/dual-ray
certificate of an infeasible probe evaluates to an affine function
``g(F) = A + B F`` that every feasible objective must keep non-negative, so
a single infeasible solve refutes every milestone below ``-A/B`` and the
search jumps straight past them.  Symmetrically, a feasible probe whose LP
optimum lands *strictly inside* its milestone interval is already the global
optimum (monotone feasibility), so the downward confirmation probes of the
classical gallop are skipped outright.  Backends without certificate support
(the one-shot scipy path) degrade to the uncertified probe order; results
are identical either way, only the number of LPs actually solved changes
(the legacy gallop + bisection is the test oracle in
``tests/replan_oracles.py``).

The LP works on *resources* (capability classes) rather than individual
machines; variables are the amounts of work ``x[t, c, j]`` of job ``j``
processed on resource ``c`` during elementary interval ``t``, plus the
objective ``F`` itself.  Constraints are exactly (1a)-(1e) of the paper:
interval/resource capacities (affine in ``F``), structural zeros outside the
[earliest start, deadline] window, and per-job completeness -- assembled into
one :class:`~repro.lp.backends.LPSpec` from the index arrays of a
:class:`ConstraintSkeleton`.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import MutableMapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import InfeasibleError
from repro.lp import kernels
from repro.lp.backends import LPSpec, SolverBackend, WarmStartHint, make_backend
from repro.lp.intervals import IntervalStructure, build_interval_structure
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import MaxStretchProblem

__all__ = [
    "MaxStretchSolution",
    "ConstraintSkeleton",
    "LiveProbe",
    "MilestoneSearchReport",
    "build_skeleton",
    "warm_hint",
    "minimize_max_weighted_flow",
    "solve_on_objective_range",
]

#: Work amounts below this threshold (relative to the job's remaining work)
#: are dropped from the reported allocation.
_ALLOCATION_EPS = 1e-10


class _AllocationIndex:
    """Everything the :class:`MaxStretchSolution` accessors answer, from one pass.

    Totals are ``sum()`` over the works in allocation order, exactly what a
    full scan of the dict adds up.
    """

    __slots__ = ("shares", "share_last", "job_last", "share_work", "job_work")

    def __init__(self, allocations: dict[tuple[int, int, int], float]):
        #: ``interval -> resource -> [(job, work), ...]`` in allocation order.
        self.shares: dict[int, dict[int, list[tuple[int, float]]]] = {}
        #: Last interval with positive work, per ``(job, resource)`` and per job.
        self.share_last: dict[tuple[int, int], int] = {}
        self.job_last: dict[int, int] = {}
        share_works: dict[tuple[int, int], list[float]] = {}
        job_works: dict[int, list[float]] = {}
        for (t, c, j), w in allocations.items():
            self.shares.setdefault(t, {}).setdefault(c, []).append((j, w))
            share_works.setdefault((j, c), []).append(w)
            job_works.setdefault(j, []).append(w)
            if w > 0:
                self.share_last[j, c] = max(t, self.share_last.get((j, c), t))
                self.job_last[j] = max(t, self.job_last.get(j, t))
        self.share_work = {key: float(sum(works)) for key, works in share_works.items()}
        self.job_work = {key: float(sum(works)) for key, works in job_works.items()}


@dataclass(frozen=True)
class MaxStretchSolution:
    """A feasible (usually optimal) allocation achieving a given max weighted flow.

    Attributes
    ----------
    objective:
        The achieved maximum weighted flow :math:`\\mathcal{F}` (equals the
        max-stretch when stretch weights are used).
    problem:
        The problem that was solved.
    structure:
        The interval structure used by the LP.
    interval_bounds:
        The elementary intervals, evaluated at :attr:`objective`, as
        ``(start, end)`` pairs.
    allocations:
        Mapping ``(interval index, resource index, job id) -> work``.
    """

    objective: float
    problem: MaxStretchProblem
    structure: IntervalStructure
    interval_bounds: tuple[tuple[float, float], ...]
    allocations: dict[tuple[int, int, int], float]

    # -- lookups ---------------------------------------------------------------
    def deadline(self, job_id: int) -> float:
        """Deadline of the job at the achieved objective."""
        return self.problem.job_by_id(job_id).deadline(self.objective)

    def _index(self) -> _AllocationIndex:
        """The one-pass index over :attr:`allocations` behind every accessor."""
        index = self.__dict__.get("_allocation_index")
        if index is None:
            index = _AllocationIndex(self.allocations)
            # Frozen dataclass: a pure cache stashed in the instance dict,
            # invisible to equality (see ``MaxStretchProblem.job_by_id``).
            object.__setattr__(self, "_allocation_index", index)
        return index

    def shares_in_interval(self, interval: int) -> dict[int, list[tuple[int, float]]]:
        """``resource -> [(job, work), ...]`` inside one interval, in allocation order."""
        return self._index().shares.get(interval, {})

    def allocations_in_interval(self, interval: int) -> dict[tuple[int, int], float]:
        """``(resource, job) -> work`` allocations inside one interval."""
        return {
            (c, j): w
            for c, shares in self.shares_in_interval(interval).items()
            for j, w in shares
            if w > 0
        }

    def work_for_job(self, job_id: int) -> float:
        """Total work allocated to the job across intervals and resources."""
        return self._index().job_work.get(job_id, 0.0)

    def work_for_job_on_resource(self, job_id: int, resource: int) -> float:
        """Total work of the job allocated to one resource."""
        return self._index().share_work.get((job_id, resource), 0.0)

    def completion_interval(self, job_id: int) -> int:
        """Index of the last interval in which the job receives work.

        Used by the Online-EGDF variant to build its global priority list.
        Raises :class:`KeyError` when the job receives no allocation.
        """
        return self._index().job_last[job_id]

    def completion_interval_on_resource(self, job_id: int, resource: int) -> int | None:
        """Last interval in which the job receives work on ``resource`` (None if never)."""
        return self._index().share_last.get((job_id, resource))

    def jobs_on_resource(self, resource: int) -> list[int]:
        """Job ids receiving any work on ``resource``."""
        return sorted(j for j, c in self._index().share_last if c == resource)

    def max_weighted_flow_of_allocation(self) -> float:
        """The max weighted flow actually implied by the allocation.

        Every job completes no later than the end of its last allocation
        interval, so this is a (possibly pessimistic) certificate that the
        allocation achieves :attr:`objective`.
        """
        worst = 0.0
        for job in self.problem.jobs:
            try:
                t = self.completion_interval(job.job_id)
            except KeyError:
                continue
            completion = self.interval_bounds[t][1]
            worst = max(worst, (completion - job.release) / job.flow_factor)
        return worst


@dataclass(frozen=True, eq=False)
class ConstraintSkeleton:
    """The structural part of a System (1)/(2) linear program, as index arrays.

    Everything here depends only on the interval structure and the jobs'
    eligible resources -- not on the objective bounds, the remaining works or
    the LP objective coefficients.  The on-line :class:`~repro.lp.incremental.
    ReplanContext` caches skeletons keyed by :attr:`signature` so that
    successive solves on the same milestone interval (e.g. the winning System
    (1) probe and the System (2) re-optimization that follows it) skip the
    indexing work.

    The work variables ``x[t, c, j]`` (the columns) come in the canonical
    order: job order of the problem, then interval, then resource in
    ``job.resources`` order.  The order pins the LP column order, keeping
    solver output bit-identical between the cached and the from-scratch
    paths.  The rows are one capacity row (1d) per (interval, resource) pair
    some column uses, sorted by (interval, resource), then one completeness
    row (1e) per job in job order, whose entries are the job's columns
    (:attr:`key_jpos` names each column's row).  Index arrays are int64,
    lengths and boundaries float64; nothing here is ever written to.

    Attributes
    ----------
    structure:
        The interval structure the skeleton was built on.
    signature:
        Hashable cache key: the boundary affines plus every job's
        (id, window, resources) tuple.
    key_t, key_c, key_j, key_jpos:
        Per column: its interval, resource, job id and the job's position
        in ``problem.jobs``.
    cap_entry_rows, cap_entry_cols:
        The capacity block's unit entries, by row, columns ascending
        inside a row.
    cap_t, cap_c:
        Per capacity row: its interval and resource.
    cap_len_const, cap_len_coef:
        Per capacity row: the length of its interval, ``const + coef * F``.
    bnd_const, bnd_coef:
        The structure's boundaries, ``const + coef * F``.
    warm_col_ids, warm_row_ids:
        The basis-transplant identities of :func:`warm_hint`: the objective
        variable ``F`` first, then every column; the capacity rows, then
        the completeness rows.
    """

    structure: IntervalStructure
    signature: tuple
    key_t: np.ndarray
    key_c: np.ndarray
    key_j: np.ndarray
    key_jpos: np.ndarray
    cap_entry_rows: np.ndarray
    cap_entry_cols: np.ndarray
    cap_t: np.ndarray
    cap_c: np.ndarray
    cap_len_const: np.ndarray
    cap_len_coef: np.ndarray
    bnd_const: np.ndarray
    bnd_coef: np.ndarray
    warm_col_ids: np.ndarray
    warm_row_ids: np.ndarray

    @property
    def n_variables(self) -> int:
        return self.key_t.size


#: Stable column identity of the objective variable F in warm-start hints
#: (work-variable identities are non-negative bit-packed triples).
_F_COL_ID = -1


def build_skeleton(
    problem: MaxStretchProblem,
    structure: IntervalStructure,
    cache: MutableMapping[tuple, "ConstraintSkeleton"] | None = None,
) -> ConstraintSkeleton | None:
    """Build (or fetch from ``cache``) the constraint skeleton for ``structure``.

    Returns ``None`` when some job has no interval to run in, i.e. its
    deadline does not lie strictly after its earliest start -- the quick
    structural infeasibility check of the milestone search.  Job ``j``'s
    intervals are the range ``[job_start_index, job_deadline_index)``, so
    every per-column array comes from one ``np.repeat`` over the jobs.
    """
    jobs = tuple(
        (
            job.job_id,
            structure.job_start_index[job.job_id],
            structure.job_deadline_index[job.job_id],
            job.resources,
        )
        for job in problem.jobs
    )
    if any(end <= start for _j, start, end, _r in jobs):
        return None

    signature = (tuple((b.const, b.coef) for b in structure.boundaries), jobs)
    if cache is not None:
        cached = cache.get(signature)
        if cached is not None:
            return cached

    table = np.array(
        [(j, start, end, len(r)) for j, start, end, r in jobs], dtype=np.int64
    ).reshape(-1, 4)
    job_id, start, end, n_res = table.T
    resources = np.fromiter(
        (c for *_window, r in jobs for c in r), dtype=np.int64, count=int(n_res.sum())
    )

    # Column k of job p is interval start[p] + k // n_res[p] on resource
    # number k % n_res[p] of the job.
    n_cols = (end - start) * n_res
    key_jpos = np.repeat(np.arange(len(jobs), dtype=np.int64), n_cols)
    local = np.arange(key_jpos.size, dtype=np.int64) - (np.cumsum(n_cols) - n_cols)[key_jpos]
    width = n_res[key_jpos]
    key_t = start[key_jpos] + local // width
    key_c = resources[(np.cumsum(n_res) - n_res)[key_jpos] + local % width]
    key_j = job_id[key_jpos]

    # Capacity rows: a stable sort by (interval, resource) keeps the columns
    # of one row in ascending order.
    cap_entry_cols = np.lexsort((key_c, key_t))
    sorted_t = key_t[cap_entry_cols]
    sorted_c = key_c[cap_entry_cols]
    new_row = np.ones(cap_entry_cols.size, dtype=bool)
    np.logical_or(sorted_t[1:] != sorted_t[:-1], sorted_c[1:] != sorted_c[:-1], out=new_row[1:])
    cap_t = sorted_t[new_row]
    cap_c = sorted_c[new_row]

    bnd_const = np.array([b.const for b in structure.boundaries], dtype=np.float64)
    bnd_coef = np.array([b.coef for b in structure.boundaries], dtype=np.float64)
    warm_col_ids = np.empty(key_t.size + 1, dtype=np.int64)
    warm_col_ids[0] = _F_COL_ID
    warm_col_ids[1:] = (key_t << 36) | (key_c << 24) | key_j

    skeleton = ConstraintSkeleton(
        structure=structure,
        signature=signature,
        key_t=key_t,
        key_c=key_c,
        key_j=key_j,
        key_jpos=key_jpos,
        cap_entry_rows=np.cumsum(new_row, dtype=np.int64) - 1,
        cap_entry_cols=cap_entry_cols,
        cap_t=cap_t,
        cap_c=cap_c,
        # The same single subtraction as ``IntervalStructure.interval_length``.
        cap_len_const=bnd_const[cap_t + 1] - bnd_const[cap_t],
        cap_len_coef=bnd_coef[cap_t + 1] - bnd_coef[cap_t],
        bnd_const=bnd_const,
        bnd_coef=bnd_coef,
        warm_col_ids=warm_col_ids,
        warm_row_ids=np.concatenate([(cap_t << 12) | cap_c, (1 << 60) | job_id]),
    )
    if cache is not None:
        cache[signature] = skeleton
    return skeleton


def warm_hint(skeleton: ConstraintSkeleton, *, with_objective_var: bool) -> WarmStartHint:
    """Basis-transplant identities for the LP built from ``skeleton``.

    Work variables are identified by their ``(interval, resource, job)``
    triple, capacity rows by ``(interval, resource)`` and completeness rows
    by job id -- bit-packed into int64 so the backend's basis mapping stays
    vectorized.  Consecutive milestone probes (and the System (2) solve
    after the winning probe -- ``with_objective_var=False`` drops the F
    column) overlap on most identities, so the previous basis mapped through
    them is a near-optimal starting basis even though the matrices differ.
    All LPs of one search/replan sequence share a single series: the backend
    is per-context, so bases never leak across simulation runs.

    The hint holds the skeleton's own :attr:`~ConstraintSkeleton.warm_col_ids`
    / :attr:`~ConstraintSkeleton.warm_row_ids` (no copy).
    """
    col_ids = skeleton.warm_col_ids
    return WarmStartHint(
        series="milestone-lps",
        col_ids=col_ids if with_objective_var else col_ids[1:],
        row_ids=skeleton.warm_row_ids,
    )


def _lp_spec(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    *,
    f_range: tuple[float, float] | None = None,
    fixed_objective: float | None = None,
    costs: np.ndarray | None = None,
) -> LPSpec:
    """The System (1) or System (2) program on ``skeleton``, as one :class:`LPSpec`.

    With ``f_range = (f_low, f_high)`` this is System (1): ``min F`` over
    ``f_low <= F <= f_high``, ``F`` in column 0 and the x variables after
    it, capacities affine in ``F`` (zero ``F`` coefficients dropped).
    Otherwise it is System (2) at ``fixed_objective``: x variables only,
    costs ``costs`` and constant capacities.  Rows are the capacity rows
    (1d), sorted by (interval, resource), then the completeness rows (1e)
    in job order; every array is derived from the skeleton's index arrays
    by numpy operations, without a per-entry Python loop.
    """
    n_x = skeleton.n_variables
    speeds = problem.resource_speeds()[skeleton.cap_c]
    if f_range is not None:
        offset = 1
        ub_rows, ub_cols, ub_vals, ub_rhs = kernels.scatter_capacity_sys1(
            skeleton.cap_entry_rows,
            skeleton.cap_entry_cols,
            skeleton.cap_len_const,
            skeleton.cap_len_coef,
            speeds,
            offset,
            0,
        )
        objective = np.concatenate(([1.0], np.zeros(n_x)))
        lower = np.concatenate(([f_range[0]], np.zeros(n_x)))
        upper = np.concatenate(([f_range[1]], np.full(n_x, math.inf)))
    else:
        assert fixed_objective is not None and costs is not None
        offset = 0
        ub_rows = skeleton.cap_entry_rows
        ub_cols = skeleton.cap_entry_cols
        ub_vals = np.ones(n_x, dtype=np.float64)
        ub_rhs = speeds * np.maximum(
            0.0, skeleton.cap_len_const + skeleton.cap_len_coef * fixed_objective
        )
        objective = costs
        lower = np.zeros(n_x)
        upper = np.full(n_x, math.inf)
    return LPSpec(
        n_vars=offset + n_x,
        objective=objective,
        lower=lower,
        upper=upper,
        ub_rows=ub_rows,
        ub_cols=ub_cols,
        ub_vals=ub_vals,
        ub_rhs=ub_rhs,
        eq_rows=skeleton.key_jpos,
        eq_cols=np.arange(offset, offset + n_x, dtype=np.int64),
        eq_vals=np.ones(n_x, dtype=np.float64),
        eq_rhs=problem.remaining_works(),
    )


class LiveProbe(NamedTuple):
    """A feasible probe's ``LPResult.model`` (``F`` is column 0), skeleton, F bounds."""

    model: object
    skeleton: ConstraintSkeleton
    f_low: float
    f_high: float


@dataclass
class ProbeOutcome:
    """Mutable side channel filled by :func:`solve_on_objective_range`.

    ``certificate_bound`` is populated on infeasible probes whose backend
    produced a usable dual ray (persistent HiGHS), ``live`` on feasible
    probes whose backend keeps models; both stay ``None`` otherwise.
    """

    certificate_bound: float | None = None
    live: LiveProbe | None = None


@dataclass
class MilestoneSearchReport:
    """What one milestone search hands its caller (filled when requested).

    The search's probe economy goes to the backend's
    :attr:`~repro.lp.backends.SolverBackend.stats` instead.

    Attributes
    ----------
    live:
        The winning probe's :class:`LiveProbe`, for System (2) (or ``None``).
    """

    live: LiveProbe | None = None


#: Coefficients of F below this threshold make a certificate bound
#: numerically meaningless (division blows up); such rays are discarded.
_RAY_COEF_EPS = 1e-12

#: Relative margin by which a feasible probe's optimum must clear its
#: interval's lower boundary before the interior-optimum short circuit
#: declares it globally optimal.  Must exceed the LP solvers' objective
#: tolerance (~1e-9) so a boundary optimum is never mistaken for an
#: interior one; at a true interior optimum the margin is the distance to
#: the previous milestone, orders of magnitude larger.
_INTERIOR_RTOL = 1e-7


def _probe_certificate(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    dual_ray: np.ndarray,
    outcome: "ProbeOutcome",
) -> None:
    """Evaluate a dual ray as an affine function of F and fill ``outcome``.

    The ray's aggregated constraint reads ``g(F) = A + v . W + B F`` with
    ``A`` / ``B`` the capacity multipliers ``u`` against the constant /
    ``F`` parts of the capacities and ``v . W`` the completeness
    multipliers against the remaining works.  Every feasible objective
    keeps ``g(F) >= 0``, so for ``B > 0`` the bound is ``-(A + v . W) / B``;
    a ``B`` too small to divide by, or a non-finite bound, is discarded.
    """
    n_cap = skeleton.cap_c.size
    if dual_ray.size != n_cap + len(problem.jobs):
        return
    u = dual_ray[:n_cap]
    v = dual_ray[n_cap:]
    cap_speed = problem.resource_speeds()[skeleton.cap_c]
    capacity_coef = float(u @ (cap_speed * skeleton.cap_len_coef))
    if capacity_coef <= _RAY_COEF_EPS:
        return
    capacity_const = float(u @ (cap_speed * skeleton.cap_len_const))
    load = sum((v * problem.remaining_works())[v != 0.0].tolist())
    bound = -(capacity_const + load) / capacity_coef
    if math.isfinite(bound):
        outcome.certificate_bound = bound


def solve_on_objective_range(
    problem: MaxStretchProblem,
    f_low: float,
    f_high: float,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    outcome: ProbeOutcome | None = None,
) -> MaxStretchSolution | None:
    """Solve System (1) restricted to objective values in ``[f_low, f_high]``.

    Returns ``None`` when no feasible schedule exists with a maximum weighted
    flow in that range (the expected outcome for ranges below the optimum).
    ``skeleton_cache`` optionally reuses constraint skeletons across solves
    sharing the same interval structure (see :class:`ConstraintSkeleton`);
    ``backend`` selects the LP solver backend (persistent backends
    additionally start each probe from the basis of the previous one,
    mapped through :func:`warm_hint`) and receives the assembly time in its
    :attr:`~repro.lp.backends.SolverBackend.stats`; ``None`` means a fresh
    one-shot scipy backend.  ``outcome``, when provided,
    receives the dual-ray objective bound of a refused probe (backends
    without dual-ray support leave it empty).
    """
    if not problem.jobs:
        return MaxStretchSolution(
            objective=0.0,
            problem=problem,
            structure=build_interval_structure(problem, 0.0),
            interval_bounds=(),
            allocations={},
        )
    if f_high < f_low:
        raise ValueError(f"invalid objective range [{f_low}, {f_high}]")

    backend = make_backend(backend)
    assembly_start = time.perf_counter()
    probe = _probe_value(f_low, f_high)
    structure = build_interval_structure(problem, probe)
    skeleton = build_skeleton(problem, structure, skeleton_cache)
    if skeleton is None:
        backend.stats.assembly_seconds += time.perf_counter() - assembly_start
        return None

    spec = _lp_spec(problem, skeleton, f_range=(f_low, f_high))
    warm = None
    if backend.persistent:
        warm = warm_hint(skeleton, with_objective_var=True)
    backend.stats.assembly_seconds += time.perf_counter() - assembly_start
    result = backend.solve(spec, warm=warm)
    if not result.feasible:
        if outcome is not None and result.dual_ray is not None:
            _probe_certificate(problem, skeleton, result.dual_ray, outcome)
        return None

    if outcome is not None and result.model is not None:
        outcome.live = LiveProbe(result.model, skeleton, f_low, f_high)
    objective = result.value(0)
    allocations = _extract_allocations(problem, skeleton, 1, result.values)
    bounds = tuple(structure.bounds_at(objective))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        allocations=allocations,
    )


def minimize_max_weighted_flow(
    problem: MaxStretchProblem,
    *,
    warm_start: float | None = None,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution:
    """Compute the optimal max weighted flow (max-stretch) for ``problem``.

    Parameters
    ----------
    problem:
        The scheduling problem (off-line or an on-line re-optimization).
    warm_start:
        Optional objective value expected to be close to the optimum
        (the previous replan's :math:`S^*` in the on-line heuristics).  The
        milestone search starts at the interval containing it.  Because
        feasibility is monotone in the objective, the result is *identical*
        to a cold search -- only the probe order changes.
    skeleton_cache:
        Optional mapping reusing constraint skeletons across solves (see
        :class:`ConstraintSkeleton`).
    backend:
        LP solver backend; ``None`` means one fresh one-shot scipy backend
        for the whole search.  A persistent backend
        (``HighsPersistentBackend``) additionally warm-starts dual simplex
        from the previous basis and produces the dual-ray certificates the
        search prunes with; results are equivalent within solver tolerance.
        The search records its probe economy and timings in the backend's
        :attr:`~repro.lp.backends.SolverBackend.stats`.
    report:
        Optional :class:`MilestoneSearchReport` receiving the winning
        probe's live model (for System (2)).

    Raises
    ------
    InfeasibleError
        If no feasible schedule exists (cannot happen for well-formed
        problems: the trivial serial schedule is always feasible).
    """
    if not problem.jobs:
        return solve_on_objective_range(problem, 0.0, 0.0)  # type: ignore[return-value]

    backend = make_backend(backend)
    search_start = time.perf_counter()
    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    milestones = enumerate_milestones(problem, lower=f_lb, upper=f_ub)
    boundaries = [f_lb] + milestones + [f_ub]
    last = len(boundaries) - 2

    start_idx = 0 if warm_start is None else _interval_of(boundaries, warm_start, 0, last)

    best = _search_certificate(
        problem,
        boundaries,
        start_idx,
        skeleton_cache=skeleton_cache,
        backend=backend,
        report=report,
    )

    if best is None:
        # The serial upper bound should always be feasible; if roundoff made
        # the last interval infeasible, retry with a widened bracket before
        # giving up.
        widened = solve_on_objective_range(
            problem, f_lb, 2.0 * f_ub + 1.0, skeleton_cache=skeleton_cache,
            backend=backend,
        )
        if widened is None:
            raise InfeasibleError(
                "no feasible schedule found for the max weighted flow problem"
            )
        best = widened
    backend.stats.search_seconds += time.perf_counter() - search_start
    return best


def _interval_of(boundaries: Sequence[float], value: float, lo: int, hi: int) -> int:
    """Index of the milestone interval containing ``value``, clamped to [lo, hi]."""
    idx = bisect.bisect_right(boundaries, value) - 1
    return min(max(idx, lo), hi)


def _is_interior(solution: MaxStretchSolution, lower_boundary: float) -> bool:
    """Whether the probe's optimum lies strictly inside its milestone interval.

    By monotone feasibility this certifies *global* optimality: were any
    objective below the interval feasible, every objective above it would be
    too -- including the sub-optimum part of this interval, contradicting
    the LP's minimality.  The margin must only exceed the solver's objective
    tolerance (see :data:`_INTERIOR_RTOL`).
    """
    return solution.objective > lower_boundary + _INTERIOR_RTOL * max(1.0, abs(lower_boundary))


def _search_certificate(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """Locate the first feasible milestone interval and return its optimum.

    Feasibility of "max weighted flow in [boundaries[i], boundaries[i+1]]" is
    monotone in the interval index ``i``, so the minimizer lives in the first
    feasible interval; certificates guide the search for it.
    Upward, an infeasible probe's dual ray refutes every milestone below its
    affine bound ``-A/B``, so the search jumps straight to the first
    non-refuted interval instead of galloping through the refuted ones.
    Downward, a feasible probe whose optimum is strictly interior *is* the
    global optimum (monotone feasibility) and the search stops without the
    legacy confirmation probes; a boundary optimum falls back to bisection,
    its pivots biased by any further certificates.

    Certificate bounds only ever choose the *probe order*, never the
    outcome: beyond its own milestone interval a dual ray is evaluated on a
    stale interval structure, so its bound may legitimately overshoot the
    optimum.  Acceptance therefore always requires the interior proof or a
    solved infeasible probe directly below the accepted interval (``lo``
    advances exclusively on solved infeasibilities, which refute everything
    beneath them by monotonicity) -- a misleading bound costs extra probes
    but can never produce a wrong result.
    """
    last = len(boundaries) - 2
    solved = 0
    skipped = 0
    interior_exit = False
    live: LiveProbe | None = None

    def probe(i: int) -> tuple[MaxStretchSolution | None, float | None]:
        nonlocal solved, live
        outcome = ProbeOutcome()
        solution = solve_on_objective_range(
            problem, boundaries[i], boundaries[i + 1],
            skeleton_cache=skeleton_cache, backend=backend, outcome=outcome,
        )
        solved += 1
        if solution is not None:
            # Every feasible probe becomes ``best``: keep only its model.
            live = outcome.live
        return solution, outcome.certificate_bound

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        if report is not None:
            report.live = live
        stats = backend.stats
        stats.n_certificate_skipped += skipped
        stats.searches.append((solved, skipped))
        stats.n_interior_exits += int(interior_exit)
        return best

    # -- upward phase: find some feasible interval ---------------------------------
    idx = min(max(start_idx, 0), last)
    floor = -1  # highest index with a *solved* infeasible probe
    step = 1
    best: MaxStretchSolution | None = None
    while True:
        solution, bound = probe(idx)
        if solution is not None:
            best = solution
            best_idx = idx
            break
        floor = idx
        if idx == last:
            return finish(None)
        nxt = min(idx + step, last)
        step *= 2
        if bound is not None:
            # Jump past every milestone the certificate refutes (never
            # backward: the gallop step is the uncertified floor).
            nxt = max(nxt, _interval_of(boundaries, bound, idx + 1, last))
        idx = nxt

    # -- downward phase: prove best_idx is the *first* feasible interval -----------
    lo = floor + 1  # lowest index NOT refuted by a solved probe (sound floor)
    hint: float | None = None
    while best_idx > lo:
        if _is_interior(best, boundaries[best_idx]):
            # The winning probe's own optimum certifies global optimality;
            # the candidates below are eliminated without solving them.
            interior_exit = True
            skipped += best_idx - lo
            break
        hi = best_idx - 1
        if hint is not None:
            # Probe the interval the last certificate points at (clamped
            # into the open bracket) instead of the bisection midpoint: a
            # feasible outcome moves ``best_idx`` down onto it, an
            # infeasible outcome *soundly* refutes everything below it by
            # monotonicity.  The bound itself never advances ``lo``.
            mid = _interval_of(boundaries, hint, lo, hi)
            hint = None
        else:
            mid = (lo + hi) // 2
        solution, bound = probe(mid)
        if solution is not None:
            best = solution
            best_idx = mid
        else:
            if bound is not None and mid + 1 < best_idx:
                hint = bound
            lo = mid + 1
    return finish(best)


# -- helpers shared with the System (2) relaxation ------------------------------------


def _probe_value(f_low: float, f_high: float) -> float:
    """A probe objective strictly inside ``[f_low, f_high]`` whenever possible."""
    if math.isinf(f_high):
        return f_low + 1.0
    if f_high <= f_low:
        return f_low
    return 0.5 * (f_low + f_high)


def _extract_allocations(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    offset: int,
    values: np.ndarray,
) -> dict[tuple[int, int, int], float]:
    """Read the x variables back, dropping numerically-zero allocations.

    ``offset`` is the index of the first x variable (1 when the objective
    variable precedes them).  The per-variable threshold (relative to the
    job's remaining work, as the historical loop computed it) is evaluated
    as one vectorized comparison; only the surviving entries, in ascending
    column order, become dict items.
    """
    vals = np.asarray(values)[offset:offset + skeleton.n_variables]
    works = problem.remaining_works()
    kept = np.nonzero(vals > _ALLOCATION_EPS * np.maximum(1.0, works[skeleton.key_jpos]))[0]
    keys = zip(
        skeleton.key_t[kept].tolist(), skeleton.key_c[kept].tolist(), skeleton.key_j[kept].tolist()
    )
    return dict(zip(keys, vals[kept].tolist()))
