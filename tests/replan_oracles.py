"""Reference twins of the on-line replan path, kept as test oracles.

Production has one replan path: :class:`~repro.lp.incremental.ReplanContext`
with the certificate-guided milestone search.  The slower twins it was
proven against live here, verbatim, so the equalities they proved stay
checkable:

* :func:`search_gallop` -- the bidirectional gallop + bisection milestone
  search.  It has the signature of ``maxstretch._search_certificate``; swap
  it in for a whole search with
  ``monkeypatch.setattr(maxstretch, "_search_certificate", search_gallop)``.
* :class:`FromScratchOnlineLP` -- the on-line LP heuristic rebuilding every
  System (1) / System (2) LP at each release date, without the context's
  caches, warm starts or carried basis.
* :func:`problem_from_instance_general` -- the per-job loop that built a
  :class:`~repro.lp.problem.MaxStretchProblem` without a
  :class:`~repro.lp.problem.JobTable` (off-line solves, Bender98 and
  degraded replans used it), the oracle of the one table-backed
  ``problem_from_instance`` path (``tests/test_lp_problem.py``).
* The per-job LP: :class:`PerJobSkeleton`, :func:`build_per_job_skeleton`,
  :func:`per_job_lp_spec` and the rest of the path that gave every job its
  own ``x[t, c, j]`` columns and one completeness row, before
  ``maxstretch.build_skeleton`` gave every job *class* one column set on a
  slack chain.  :func:`per_job_search` swaps it in for a whole milestone
  search and :func:`per_job_reoptimize_allocation` is its System (2);
  ``tests/test_class_lp.py`` requires the class LP to reach the same
  optima.

On the stateless scipy backend the first two return results bit-identical to
production (``tests/test_lp_incremental.py``,
``tests/test_lp_certificates.py``).  On persistent HiGHS the from-scratch
twin starts every replan from a cold basis and may land on an alternate
System (2) vertex, so it is only a reference on scipy.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, MutableMapping, Sequence

import numpy as np
import pytest

from repro.core.errors import InfeasibleError, ModelError, SolverError
from repro.core.instance import Instance
from repro.lp import kernels, maxstretch
from repro.lp.backends import LPSpec, SolverBackend, WarmStartHint, make_backend
from repro.lp.maxstretch import (
    _ALLOCATION_EPS,
    _F_COL_ID,
    _RAY_COEF_EPS,
    ConstraintSkeleton,
    LiveProbe,
    NO_SHARES,
    MaxStretchSolution,
    MilestoneSearchReport,
    ProbeOutcome,
    Shares,
    _probe_value,
    minimize_max_weighted_flow,
)
from repro.lp.intervals import IntervalStructure, build_interval_structure
from repro.lp.problem import (
    LPJob,
    MaxStretchProblem,
    Resource,
    build_resources,
    problem_from_instance,
)
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.state import SchedulerState

__all__ = [
    "search_gallop",
    "FromScratchOnlineLP",
    "problem_from_instance_general",
    "PerJobSkeleton",
    "build_per_job_skeleton",
    "per_job_warm_hint",
    "per_job_lp_spec",
    "per_job_probe_certificate",
    "per_job_solve_on_objective_range",
    "per_job_extract_allocations",
    "per_job_reoptimize_allocation",
    "per_job_search",
]


def problem_from_instance_general(
    instance: Instance,
    *,
    now: float | None = None,
    remaining: Mapping[int, float] | None = None,
    resources: tuple[Resource, ...] | None = None,
) -> MaxStretchProblem:
    """The general (table-free) ``problem_from_instance`` path, verbatim.

    Restricted to the keys of ``remaining`` when given (all jobs at full
    size otherwise); jobs mapped to a non-positive value are dropped.  The
    per-databank eligibility is the former ``build_eligibility``.
    """
    if resources is None:
        resources = build_resources(instance.platform)
    eligibility: dict[str | None, tuple[int, ...]] = {}
    for job in instance.jobs:
        if job.databank not in eligibility:
            eligibility[job.databank] = tuple(
                r.index
                for r in resources
                if job.databank is None or job.databank in r.databanks
            )

    if remaining is not None:
        wanted = set(remaining)
    else:
        wanted = set(instance.jobs.ids())
    lp_jobs: list[LPJob] = []
    for job in instance.jobs:
        if job.job_id not in wanted:
            continue
        rem = job.size if remaining is None else remaining.get(job.job_id, job.size)
        if rem is None or rem <= 0:
            continue
        eligible = eligibility[job.databank]
        if not eligible:
            raise ModelError(f"job {job.job_id} has no eligible capability class")
        factor = 1.0 / instance.weight(job.job_id)
        earliest = job.release if now is None else max(job.release, now)
        lp_jobs.append(
            LPJob(
                job_id=job.job_id,
                earliest_start=earliest,
                remaining_work=float(rem),
                release=job.release,
                flow_factor=float(factor),
                resources=eligible,
            )
        )
    return MaxStretchProblem(resources=resources, jobs=tuple(lp_jobs))


def search_gallop(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """The legacy bidirectional gallop + bisection (reference strategy).

    Gallops outward from ``start_idx`` -- downward while feasible, upward
    while infeasible, with doubling steps -- then binary-searches the
    bracket found.  Solves strictly more LPs than the certificate search
    (every candidate is settled by an actual solve); kept as the oracle the
    certificate search is equality-gated against in tests and benchmarks.
    """
    last = len(boundaries) - 2
    solved = 0

    def probe(i: int) -> MaxStretchSolution | None:
        nonlocal solved
        solved += 1
        return maxstretch.solve_on_objective_range(
            problem,
            boundaries[i],
            boundaries[i + 1],
            skeleton_cache=skeleton_cache,
            backend=backend,
        )

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        backend.stats.searches.append((solved, 0))
        return best

    best: MaxStretchSolution | None = None
    lo = 0
    hi = -1
    solution = probe(start_idx)
    if solution is not None:
        # Gallop downward until an infeasible interval bounds the bracket
        # (a feasible probe at index 0 means the optimum lives there and the
        # bracket stays empty).
        best = solution
        floor = start_idx
        step = 1
        idx = start_idx - 1
        while idx >= 0:
            solution = probe(idx)
            if solution is None:
                lo, hi = idx + 1, floor - 1
                break
            best = solution
            floor = idx
            if idx == 0:
                break
            idx = max(idx - step, 0)
            step *= 2
    else:
        # Gallop upward until a feasible interval is found.
        prev = start_idx
        step = 1
        idx = start_idx + 1
        while idx <= last:
            solution = probe(idx)
            if solution is not None:
                best = solution
                lo, hi = prev + 1, idx - 1
                break
            prev = idx
            if idx == last:
                break
            idx = min(idx + step, last)
            step *= 2
        if best is None:
            return finish(None)

    # Refine inside the bracket (lo..hi are untested indices below the first
    # known-feasible one).
    while lo <= hi:
        mid = (lo + hi) // 2
        solution = probe(mid)
        if solution is not None:
            best = solution
            hi = mid - 1
        else:
            lo = mid + 1
    return finish(best)


class FromScratchOnlineLP(OnlineLPScheduler):
    """The on-line LP heuristic rebuilding everything at every resolution.

    Each replan builds the problem with ``problem_from_instance`` and runs a
    cold milestone search and System (2) on a backend of its own, as the
    paper's heuristic does.  The inherited context is still built (and fed
    arrivals and outages) but no replan reads it.  Degraded replans
    (machine outages) are the production ones: they rebuild over the
    surviving machines by design.
    """

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        # Persistent solver state never leaks across runs: freshly named
        # backends start empty, and a caller-supplied instance is
        # emptied here (mirroring the ReplanContext lifetime).
        self._backend = make_backend(self.solver_backend)
        self._backend.close()
        self.lp_stats = self._backend.stats

    def _replan(self, state: SchedulerState) -> None:
        instance = state.instance
        now = state.time
        remaining = state.remaining_map()
        if state.down:
            self._replan_degraded(state, now, remaining)
            return
        if not remaining:
            self.set_plan([])
            return

        # Step 2: best achievable max-stretch given the decisions already made.
        problem = problem_from_instance(instance, now=now, remaining=remaining)
        best = minimize_max_weighted_flow(problem, backend=self._backend)
        self.last_objective = best.objective
        self.n_resolutions += 1

        # Step 3: System (2) re-optimization at fixed max-stretch, or, for the
        # non-optimized variant, System (1)'s optimum picked by generic costs.
        solution = reoptimize_allocation(
            problem, best.objective, backend=self._backend,
            generic=self.variant == "online-nonopt",
        )

        # Step 4: build the executable plan.
        self._install_plan(solution, instance, now)


# -- the per-job LP ---------------------------------------------------------------------
#
# Verbatim from ``repro.lp.maxstretch`` / ``repro.lp.relaxation`` before the
# class columns, renamed only.


@dataclass(frozen=True, eq=False)
class PerJobSkeleton:
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



def build_per_job_skeleton(
    problem: MaxStretchProblem,
    structure: IntervalStructure,
    cache: MutableMapping[tuple, "PerJobSkeleton"] | None = None,
) -> PerJobSkeleton | None:
    """Build (or fetch from ``cache``) the constraint skeleton for ``structure``.

    Returns ``None`` when some job has no interval to run in, i.e. its
    deadline does not lie strictly after its earliest start -- the quick
    structural infeasibility check of the milestone search.  Job ``j``'s
    intervals are the range ``[job_start_index, job_deadline_index)``, so
    every per-column array comes from one ``np.repeat`` over the jobs.
    """
    jobs = tuple(
        (job.job_id, start, end, job.resources)
        for job, start, end in zip(
            problem.jobs, structure.start_index.tolist(), structure.deadline_index.tolist()
        )
    )
    if any(end <= start for _j, start, end, _r in jobs):
        return None

    signature = (structure.bnd_const.tobytes(), structure.bnd_coef.tobytes(), jobs)
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

    bnd_const = structure.bnd_const
    bnd_coef = structure.bnd_coef
    warm_col_ids = np.empty(key_t.size + 1, dtype=np.int64)
    warm_col_ids[0] = _F_COL_ID
    warm_col_ids[1:] = (key_t << 36) | (key_c << 24) | key_j

    skeleton = PerJobSkeleton(
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
        # Interval lengths as affines in F: one subtraction of boundaries.
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



def per_job_warm_hint(skeleton: PerJobSkeleton, *, with_objective_var: bool) -> WarmStartHint:
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

    The hint holds the skeleton's own :attr:`~PerJobSkeleton.warm_col_ids`
    / :attr:`~PerJobSkeleton.warm_row_ids` (no copy).
    """
    col_ids = skeleton.warm_col_ids
    return WarmStartHint(
        series="milestone-lps",
        col_ids=col_ids if with_objective_var else col_ids[1:],
        row_ids=skeleton.warm_row_ids,
    )



def per_job_lp_spec(
    problem: MaxStretchProblem,
    skeleton: PerJobSkeleton,
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



def per_job_probe_certificate(
    problem: MaxStretchProblem,
    skeleton: PerJobSkeleton,
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



def per_job_solve_on_objective_range(
    problem: MaxStretchProblem,
    f_low: float,
    f_high: float,
    *,
    skeleton_cache: MutableMapping[tuple, PerJobSkeleton] | None = None,
    backend: SolverBackend | None = None,
    outcome: ProbeOutcome | None = None,
) -> MaxStretchSolution | None:
    """Solve System (1) restricted to objective values in ``[f_low, f_high]``.

    Returns ``None`` when no feasible schedule exists with a maximum weighted
    flow in that range (the expected outcome for ranges below the optimum).
    ``skeleton_cache`` optionally reuses constraint skeletons across solves
    sharing the same interval structure (see :class:`PerJobSkeleton`);
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
            shares=NO_SHARES,
        )
    if f_high < f_low:
        raise ValueError(f"invalid objective range [{f_low}, {f_high}]")

    backend = make_backend(backend)
    assembly_start = time.perf_counter()
    probe = _probe_value(f_low, f_high)
    structure = build_interval_structure(problem, probe)
    skeleton = build_per_job_skeleton(problem, structure, skeleton_cache)
    if skeleton is None:
        backend.stats.assembly_seconds += time.perf_counter() - assembly_start
        return None

    spec = per_job_lp_spec(problem, skeleton, f_range=(f_low, f_high))
    warm = None
    if backend.persistent:
        warm = per_job_warm_hint(skeleton, with_objective_var=True)
    backend.stats.assembly_seconds += time.perf_counter() - assembly_start
    result = backend.solve(spec, warm=warm)
    if not result.feasible:
        if outcome is not None and result.dual_ray is not None:
            per_job_probe_certificate(problem, skeleton, result.dual_ray, outcome)
        return None

    if outcome is not None and result.model is not None:
        outcome.live = LiveProbe(result.model, skeleton, f_low, f_high)
    objective = result.value(0)
    bounds = tuple(structure.bounds_at(objective))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        shares=per_job_extract_allocations(problem, skeleton, 1, result.values),
    )



def per_job_extract_allocations(
    problem: MaxStretchProblem,
    skeleton: PerJobSkeleton,
    offset: int,
    values: np.ndarray,
) -> Shares:
    """Read the x variables back, dropping numerically-zero allocations.

    ``offset`` is the index of the first x variable (1 when the objective
    variable precedes them).  The per-variable threshold (relative to the
    job's remaining work, as the historical loop computed it) is evaluated
    as one vectorized comparison; only the surviving entries, in ascending
    column order, become shares.
    """
    vals = np.asarray(values)[offset:offset + skeleton.n_variables]
    works = problem.remaining_works()
    kept = np.nonzero(vals > _ALLOCATION_EPS * np.maximum(1.0, works[skeleton.key_jpos]))[0]
    return Shares.frozen(
        skeleton.key_t[kept], skeleton.key_c[kept], skeleton.key_j[kept], vals[kept]
    )

def per_job_reoptimize_allocation(
    problem: MaxStretchProblem,
    objective: float,
    *,
    inflation: float = 1e-7,
    skeleton_cache: MutableMapping[tuple, PerJobSkeleton] | None = None,
    backend: SolverBackend | None = None,
    live: LiveProbe | None = None,
) -> MaxStretchSolution:
    """Solve System (2) for ``problem`` at max weighted flow ``objective``.

    Parameters
    ----------
    problem:
        The problem whose optimal max weighted flow was just computed.
    objective:
        The max weighted flow bound :math:`\\mathcal{S}^*` (deadlines are
        derived from it).
    skeleton_cache:
        Optional mapping reusing constraint skeletons across solves.  The
        System (2) probe usually lands in the same milestone interval as the
        winning System (1) probe, so the skeleton is a cache hit when the
        same mapping was passed to
        :func:`~repro.lp.maxstretch.minimize_max_weighted_flow`.
    backend:
        LP solver backend (``None`` -> one-shot scipy default).
    live:
        The winning probe of ``problem``'s milestone search.  A target with
        its skeleton and inside its ``F`` bounds -- each geometric inflation
        retry included -- is solved on its model; otherwise, or on failure,
        the program is rebuilt (warm-started from the series basis).
    inflation:
        Relative slack added to ``objective`` before building the deadlines.
        The optimum returned by :func:`minimize_max_weighted_flow` sits
        exactly on the feasibility boundary; without a tiny inflation the
        re-optimization LP can come out marginally infeasible because of
        floating-point roundoff (the paper reports the same phenomenon).
        If the LP is still infeasible the inflation is increased tenfold
        at a time up to ``1e-3`` before giving up.

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
    slack = inflation
    last_error: str | None = None
    while slack <= 1e-3:
        target = objective * (1.0 + slack)
        solution = per_job_solve_fixed_objective(problem, target, skeleton_cache, backend, live)
        if solution is not None:
            return solution
        last_error = f"System (2) infeasible at objective {target!r}"
        slack *= 10.0
    raise InfeasibleError(last_error or "System (2) infeasible")



def per_job_solve_fixed_objective(
    problem: MaxStretchProblem,
    objective: float,
    skeleton_cache: MutableMapping[tuple, PerJobSkeleton] | None,
    backend: SolverBackend,
    live: LiveProbe | None,
) -> MaxStretchSolution | None:
    structure = build_interval_structure(problem, objective)
    skeleton = build_per_job_skeleton(problem, structure, skeleton_cache)
    if skeleton is None:
        return None
    structure = skeleton.structure

    # Objective coefficient per variable: fraction of the job processed in
    # the interval (work / remaining) times the interval midpoint --
    # vectorized over the skeleton's per-column interval/job index arrays
    # (the boundary values at ``objective`` double as the solution's
    # interval bounds below).
    boundary_values = skeleton.bnd_const + skeleton.bnd_coef * objective
    midpoints = 0.5 * (boundary_values[:-1] + boundary_values[1:])
    works = problem.remaining_works()
    costs = midpoints[skeleton.key_t] / works[skeleton.key_jpos]
    result = None
    if live is not None and live.skeleton is skeleton and live.f_low <= objective <= live.f_high:
        try:
            result = backend.resolve_fixed(
                live.model, column=0, value=objective, costs=np.concatenate(([0.0], costs))
            )
        except SolverError:
            pass  # build the program afresh below
    if result is None:
        spec = per_job_lp_spec(problem, skeleton, fixed_objective=objective, costs=costs)
        warm = None
        if backend.persistent:
            warm = per_job_warm_hint(skeleton, with_objective_var=False)
        result = backend.solve(spec, warm=warm)
    if not result.feasible:
        return None
    offset = result.values.size - skeleton.n_variables  # 1 on the live model: F leads
    values = boundary_values.tolist()
    bounds = tuple(zip(values[:-1], values[1:]))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        shares=per_job_extract_allocations(problem, skeleton, offset, result.values),
    )


@contextmanager
def per_job_search() -> Iterator[None]:
    """Run every milestone search inside the block on the per-job LP.

    The search reaches the LP through ``maxstretch.solve_on_objective_range``
    (resolved at call time), so swapping that one name swaps every probe.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maxstretch, "solve_on_objective_range", per_job_solve_on_objective_range)
        yield
