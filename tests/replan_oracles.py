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
* :func:`build_skeleton_tuples`, :class:`AssemblyArraysOracle`,
  :func:`warm_ids_oracle` and :func:`extract_allocations_oracle` -- the
  tuple-loop constraint skeleton (one Python tuple per LP column, turned
  back into numpy with ``np.fromiter``) that the array-native
  ``maxstretch.build_skeleton`` replaced; ``tests/test_lp_maxstretch.py``
  requires every array of the new skeleton to equal the one derived here.

On the stateless scipy backend both return results bit-identical to
production (``tests/test_lp_incremental.py``,
``tests/test_lp_certificates.py``).  On persistent HiGHS the from-scratch
twin starts every replan from a cold basis and may land on an alternate
System (2) vertex, so it is only a reference on scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.lp import maxstretch
from repro.lp.backends import SolverBackend, make_backend
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    MaxStretchSolution,
    MilestoneSearchReport,
    minimize_max_weighted_flow,
)
from repro.lp.intervals import IntervalStructure
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
    "SkeletonTuples",
    "build_skeleton_tuples",
    "AssemblyArraysOracle",
    "warm_ids_oracle",
    "extract_allocations_oracle",
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


@dataclass(frozen=True)
class SkeletonTuples:
    """The tuple-form constraint skeleton (the former ``ConstraintSkeleton``).

    ``keys`` holds ``(interval, resource, job_id)`` for every variable in
    the canonical column order, ``capacity_groups`` ``((interval,
    resource), variable positions)`` sorted by (interval, resource), and
    ``completeness_groups`` ``(job position, variable positions)`` in job
    order.
    """

    structure: IntervalStructure
    keys: tuple[tuple[int, int, int], ...]
    capacity_groups: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    completeness_groups: tuple[tuple[int, tuple[int, ...]], ...]
    signature: tuple


def _skeleton_signature(problem: MaxStretchProblem, structure: IntervalStructure) -> tuple:
    boundaries = tuple((b.const, b.coef) for b in structure.boundaries)
    jobs = tuple(
        (
            job.job_id,
            structure.job_start_index[job.job_id],
            structure.job_deadline_index[job.job_id],
            job.resources,
        )
        for job in problem.jobs
    )
    return (boundaries, jobs)


def build_skeleton_tuples(
    problem: MaxStretchProblem,
    structure: IntervalStructure,
    cache: MutableMapping[tuple, SkeletonTuples] | None = None,
) -> SkeletonTuples | None:
    """The tuple-loop ``build_skeleton``, verbatim."""
    for job in problem.jobs:
        if len(structure.job_intervals(job.job_id)) == 0:
            return None

    signature = _skeleton_signature(problem, structure)
    if cache is not None:
        cached = cache.get(signature)
        if cached is not None:
            return cached

    keys: list[tuple[int, int, int]] = []
    by_interval_resource: dict[tuple[int, int], list[int]] = {}
    by_job: list[tuple[int, tuple[int, ...]]] = []
    for pos_job, job in enumerate(problem.jobs):
        job_positions: list[int] = []
        for t in structure.job_intervals(job.job_id):
            for c in job.resources:
                position = len(keys)
                keys.append((t, c, job.job_id))
                by_interval_resource.setdefault((t, c), []).append(position)
                job_positions.append(position)
        by_job.append((pos_job, tuple(job_positions)))

    skeleton = SkeletonTuples(
        structure=structure,
        keys=tuple(keys),
        capacity_groups=tuple(
            (tc, tuple(positions)) for tc, positions in sorted(by_interval_resource.items())
        ),
        completeness_groups=tuple(by_job),
        signature=signature,
    )
    if cache is not None:
        cache[signature] = skeleton
    return skeleton


def warm_ids_oracle(
    problem: MaxStretchProblem, skeleton: SkeletonTuples
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(col ids with F, col ids without F, row ids)`` of the former ``warm_hint``."""
    keys = skeleton.keys
    col_ids = np.fromiter(
        ((t << 36) | (c << 24) | j for t, c, j in keys),
        dtype=np.int64,
        count=len(keys),
    )
    n_caps = len(skeleton.capacity_groups)
    row_ids = np.fromiter(
        ((t << 12) | c for (t, c), _positions in skeleton.capacity_groups),
        dtype=np.int64,
        count=n_caps,
    )
    job_rows = np.fromiter(
        (
            (1 << 60) | problem.jobs[pos_job].job_id
            for pos_job, _positions in skeleton.completeness_groups
        ),
        dtype=np.int64,
        count=len(skeleton.completeness_groups),
    )
    return (
        np.concatenate([np.array([maxstretch._F_COL_ID], dtype=np.int64), col_ids]),
        col_ids,
        np.concatenate([row_ids, job_rows]),
    )


class AssemblyArraysOracle:
    """The former ``_AssemblyArrays``: numpy index arrays from the group tuples."""

    def __init__(self, skeleton: SkeletonTuples):
        structure = skeleton.structure
        cap_groups = skeleton.capacity_groups
        n_cap = len(cap_groups)
        sizes = np.fromiter((len(p) for _tc, p in cap_groups), dtype=np.int64, count=n_cap)
        self.cap_entry_rows = np.repeat(np.arange(n_cap, dtype=np.int64), sizes)
        self.cap_entry_cols = np.fromiter(
            (p for _tc, ps in cap_groups for p in ps), dtype=np.int64, count=int(sizes.sum())
        )
        self.cap_c = np.fromiter((tc[1] for tc, _ps in cap_groups), dtype=np.int64, count=n_cap)
        lengths = [structure.interval_length(tc[0]) for tc, _ps in cap_groups]
        self.cap_len_const = np.fromiter(
            (ln.const for ln in lengths), dtype=np.float64, count=n_cap
        )
        self.cap_len_coef = np.fromiter((ln.coef for ln in lengths), dtype=np.float64, count=n_cap)

        comp_groups = skeleton.completeness_groups
        n_comp = len(comp_groups)
        comp_sizes = np.fromiter((len(p) for _pj, p in comp_groups), dtype=np.int64, count=n_comp)
        self.comp_entry_rows = np.repeat(np.arange(n_comp, dtype=np.int64), comp_sizes)
        self.comp_entry_cols = np.fromiter(
            (p for _pj, ps in comp_groups for p in ps),
            dtype=np.int64,
            count=int(comp_sizes.sum()),
        )
        self.comp_job_pos = np.fromiter(
            (pj for pj, _ps in comp_groups), dtype=np.int64, count=n_comp
        )

        n_keys = len(skeleton.keys)
        self.key_t = np.fromiter((t for t, _c, _j in skeleton.keys), dtype=np.int64, count=n_keys)
        self.key_jpos = np.empty(n_keys, dtype=np.int64)
        self.key_jpos[self.comp_entry_cols] = self.comp_job_pos[self.comp_entry_rows]

        boundaries = structure.boundaries
        self.bnd_const = np.fromiter(
            (b.const for b in boundaries), dtype=np.float64, count=len(boundaries)
        )
        self.bnd_coef = np.fromiter(
            (b.coef for b in boundaries), dtype=np.float64, count=len(boundaries)
        )


def extract_allocations_oracle(
    problem: MaxStretchProblem,
    skeleton: SkeletonTuples,
    offset: int,
    values: np.ndarray,
) -> dict[tuple[int, int, int], float]:
    """The former ``_extract_allocations``, keyed through the tuple skeleton."""
    arrays = AssemblyArraysOracle(skeleton)
    vals = np.asarray(values)[offset : offset + len(skeleton.keys)]
    works = problem.remaining_works()
    threshold = maxstretch._ALLOCATION_EPS * np.maximum(1.0, works[arrays.key_jpos])
    keys = skeleton.keys
    return {keys[i]: float(vals[i]) for i in np.nonzero(vals > threshold)[0]}


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

        if self.variant == "online-nonopt":
            solution = best
        else:
            # Step 3: System (2) re-optimization at fixed max-stretch.
            solution = reoptimize_allocation(problem, best.objective, backend=self._backend)

        # Step 4: build the executable plan.
        self._install_plan(solution, instance, now)
