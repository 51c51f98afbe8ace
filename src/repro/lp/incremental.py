"""Incremental replanning context for the on-line LP heuristics.

The on-line heuristics of Section 4.3.2 solve Systems (1) and (2) from
scratch at every release date, which is the scheduling-cost bottleneck that
Section 5.3 measures.  Between two consecutive replans, however, most of the
work is identical:

* the **platform** never changes, so the capability-class decomposition and
  the per-databank eligible resource sets are invariants of the run;
* the per-job **flow factors** (ideal times) are invariants of the instance;
* the optimal max-stretch :math:`S^*` moves little from one release date to
  the next, so the milestone search is **warm-started** at the previous
  optimum -- the only solution value carried from one replan to the next;
* the winning System (1) probe and the System (2) re-optimization that
  follows share the same milestone interval, so their **constraint
  skeletons** (one column set per job class, its variable indexing and row
  grouping) are identical and cached;
  on persistent HiGHS, System (2) even re-solves the winning probe's model.

:class:`ReplanContext` bundles these caches behind the same three calls a
from-scratch replan makes (`build problem`, `solve System (1)`, `re-optimize
System (2)`).  Because warm-starting only reorders the probes of a monotone
feasibility search and the cached skeletons pin the exact variable order of
every LP, the context returns *bit-identical* objectives and
allocations to rebuilding every LP from scratch -- the from-scratch
scheduler survives only as the test oracle in ``tests/replan_oracles.py``.

The LP solves themselves go through a :mod:`repro.lp.backends` backend
that lives for the context's run.  The bit-identical guarantee above holds
on a stateless solver (the tests' one-shot ``linprog`` reference); the
persistent HiGHS backend additionally carries the simplex basis between the
probes and replans of the run, which changes results only within solver
tolerance (``tests/test_lp_backends.py`` compares the two).

Across runs, the only carry is the **cross-run solver-state bank**
(:mod:`repro.lp.bank`): when the campaign runner hands the context a
:class:`~repro.lp.bank.SolverStateBank`, a System (1) or (2) problem whose
:func:`~repro.lp.bank.problem_signature` matches a stored one is answered
by the stored exact optimum (skipping the whole search or
re-optimization), and the context stores its own optima as it solves them.
A reused solution is an exact optimum of a content-identical LP, so
acceptance logic in :mod:`repro.lp.maxstretch` is untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.errors import SolverError
from repro.core.instance import Instance
from repro.lp.backends import SolverBackend, make_backend
from repro.lp.backends.base import annotate_solver_error
from repro.lp.bank import BankBucket, SolverStateBank, instance_content_key, problem_signature
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    LiveProbe,
    MaxStretchSolution,
    MilestoneSearchReport,
    minimize_max_weighted_flow,
)
from repro.lp.problem import (
    JobTable,
    MaxStretchProblem,
    Resource,
    build_job_table,
    build_resources,
    job_rows,
    problem_from_instance,
)
from repro.lp.relaxation import reoptimize_allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job

__all__ = ["ReplanContext"]

#: Skeleton cache entries kept per context.  One replan touches a handful of
#: milestone intervals; keeping a small multiple of that bounds memory on
#: long campaigns without measurably hurting the hit rate.
_MAX_SKELETONS = 64


class ReplanContext:
    """Caches carried across the successive LP solves of one simulation run.

    Parameters
    ----------
    instance:
        The instance being simulated.  The platform-derived caches (resource
        tuple and :class:`~repro.lp.problem.JobTable`) are computed once here.
    solver_backend:
        The run's LP solver backend, resolved through
        :func:`~repro.lp.backends.make_backend`: ``None``, ``"auto"`` or
        ``"highs"`` for a fresh persistent HiGHS backend, or a ready
        :class:`~repro.lp.backends.SolverBackend` instance.  Consecutive
        milestone probes and System (2) solves of the run start dual
        simplex from the previous basis instead of a cold one.
    state_bank:
        Optional :class:`~repro.lp.bank.SolverStateBank` shared across the
        runs of one campaign worker.  The context acquires the bucket for
        the instance's content key at construction, answers exact
        problem-signature matches from its stored optima and stores its own
        optima into it as it solves them.  ``None`` (the default, and every
        non-campaign path) keeps the run isolated.

    Attributes
    ----------
    last_objective:
        The optimal max weighted flow of the previous replan (``None`` before
        the first); the next milestone search starts from it.  This warm
        start is the only solution value carried across replans, and it
        only chooses the first probed milestone interval.
    n_replans:
        Number of System (1) resolutions performed through this context.
    backend:
        The resolved :class:`~repro.lp.backends.SolverBackend`.  Its
        :attr:`~repro.lp.backends.SolverBackend.stats` are the run's LP
        counters, started fresh here; the context adds its bank lookup and
        primal reuses to them.
    """

    def __init__(
        self,
        instance: Instance,
        *,
        solver_backend: "str | SolverBackend | None" = None,
        state_bank: "SolverStateBank | None" = None,
    ):
        self.instance = instance
        self.resources: tuple[Resource, ...] = build_resources(instance.platform)
        self.job_table: JobTable = build_job_table(instance, self.resources)
        self._table_ids: set[int] = {row[0] for row in self.job_table.rows}
        self.backend: SolverBackend = make_backend(solver_backend)
        # A caller-supplied backend instance may have served a previous run;
        # drop its series bases and its counters, so both describe this run.
        self.backend.close()
        self.last_objective: float | None = None
        self.n_replans: int = 0
        self._skeletons: dict[tuple, ConstraintSkeleton] = {}
        self._bucket: BankBucket | None = None
        self._last_problem: MaxStretchProblem | None = None
        self._live: LiveProbe | None = None
        if state_bank is not None:
            self._bucket, hit = state_bank.acquire(instance_content_key(instance))
            if hit:
                self.backend.stats.n_bank_hits += 1
            else:
                self.backend.stats.n_bank_misses += 1

    # -- problem construction ------------------------------------------------------
    def build_problem(
        self, now: float, remaining: Mapping[int, float]
    ) -> MaxStretchProblem:
        """The on-line problem at time ``now`` for the active jobs.

        ``problem_from_instance(instance, now=now, remaining=remaining)`` on
        the context's resource tuple and :class:`~repro.lp.problem.JobTable`,
        so no replan recomputes capability classes, eligibility or weights.
        """
        return problem_from_instance(
            self.instance,
            now=now,
            remaining=remaining,
            resources=self.resources,
            job_table=self.job_table,
        )

    def ensure_jobs(self, jobs: "Sequence[Job]") -> None:
        """Extend the replan fast path with jobs admitted after construction.

        Batch mode builds the :class:`~repro.lp.problem.JobTable` from the
        full instance up front, so this is a no-op there (every arriving job
        is already a table row).  In service mode the instance *grows* as
        submissions are accepted; the scheduler calls this from its arrival
        hook so the table gains one row per admitted job, computed by
        :func:`~repro.lp.problem.job_rows` like the rest of the table.
        Jobs are admitted in ``(release, job_id)`` order (the
        :class:`~repro.core.instance.LiveInstance` invariant), so a table
        grown incrementally is bit-identical to one built from the final
        instance restricted to the jobs seen so far -- which keeps service
        replans bit-identical to their batch counterparts.
        """
        new = []
        for job in jobs:
            if job.job_id not in self._table_ids:
                self._table_ids.add(job.job_id)
                new.append(job)
        if new:
            # JobTable is frozen (its arrays() cache must match its rows);
            # grow by replacement so the cache is rebuilt lazily.
            rows = job_rows(self.instance, new, self.resources)
            self.job_table = JobTable(rows=self.job_table.rows + rows)

    # -- solves --------------------------------------------------------------------
    def solve_max_stretch(self, problem: MaxStretchProblem) -> MaxStretchSolution:
        """System (1), warm-started at the previous optimum.

        The warm start only chooses the first probed milestone interval;
        the search stays exact.  With a bank bucket, a solution stored for
        the same :func:`~repro.lp.bank.problem_signature` by an earlier run
        of the same instance is re-bound and returned without solving.
        """
        self._live = None
        bucket = self._bucket
        sig = None
        if bucket is not None:
            sig = problem_signature(problem)
            banked = bucket.sys1.get(sig)
            if banked is not None:
                self.backend.stats.n_primal_reuses += 1
                return self._note_solution(problem, self._rebind(banked, problem))

        report = MilestoneSearchReport()
        try:
            solution = minimize_max_weighted_flow(
                problem,
                warm_start=self.last_objective,
                skeleton_cache=self._skeletons,
                backend=self.backend,
                report=report,
            )
        except SolverError as exc:
            # Attach the probe identity so a campaign `failed` record can
            # say which LP content died without re-running the replan.
            annotate_solver_error(
                exc,
                backend=self.backend.name,
                probe_signature=sig if sig is not None else problem_signature(problem),
            )
            raise
        self._live = report.live
        self._trim_skeletons()
        if bucket is not None:
            bucket.sys1[sig] = solution
            bucket.trim()
        return self._note_solution(problem, solution)

    def invalidate_carry(self) -> None:
        """Forget the :math:`S^*` carried from the previous replan.

        Called on machine availability transitions: the carried warm start
        describes the previous plan on a stable platform, and an outage
        invalidates that (a downed machine executes nothing its plan
        claimed).  Structural caches (resources, job table, skeletons)
        survive: they describe problem shapes, not solution values, and the
        full-platform problem returns unchanged once every machine is back
        up.  Bank entries also survive -- they are keyed by the full problem
        content, so they can only ever re-bind exact optima.
        """
        self.last_objective = None

    def _note_solution(
        self, problem: MaxStretchProblem, solution: MaxStretchSolution
    ) -> MaxStretchSolution:
        """Per-replan bookkeeping shared by the solved and reused paths."""
        self.last_objective = solution.objective
        self.n_replans += 1
        self._last_problem = problem
        return solution

    @staticmethod
    def _rebind(
        solution: MaxStretchSolution, problem: MaxStretchProblem
    ) -> MaxStretchSolution:
        """``solution`` re-anchored on ``problem`` (same content, new object).

        Banked solutions keep a reference to the problem of the run that
        solved them; consumers swap in their own so every derived lookup
        (``deadline``, the plans' per-job totals, ...) resolves against the
        live run's job objects.  The interval structure and the read-only
        :class:`~repro.lp.maxstretch.Shares` arrays are shared.
        """
        if solution.problem is problem:
            return solution
        return replace(solution, problem=problem)

    def reoptimize(
        self, problem: MaxStretchProblem, objective: float
    ) -> MaxStretchSolution:
        """System (2) at fixed ``objective``, sharing the skeleton cache.

        With a bank bucket, a re-optimization already stored for the
        exact ``(problem signature, objective)`` pair is re-bound and
        returned without solving (the deterministic inflation loop makes
        the stored solution the one this call would compute).
        """
        return self._at_fixed_objective(problem, objective, generic=False)

    def pick_optimum(
        self, problem: MaxStretchProblem, objective: float
    ) -> MaxStretchSolution:
        """One of System (1)'s optima at ``objective``, picked by the problem alone.

        :func:`~repro.lp.relaxation.reoptimize_allocation` with generic
        costs, as plain ``offline`` installs, so the plan does not depend on
        the solver's pivoting; banked like :meth:`reoptimize`, under its
        own key.
        """
        return self._at_fixed_objective(problem, objective, generic=True)

    def publish(self) -> None:
        """End the run: drop the live model (the scheduler's ``finalize`` hook).

        Nothing is left to publish: the bank's optima are stored as they
        are solved.
        """
        self._live = None

    def close(self) -> None:
        """Release the backend's persistent solver state (the series bases)."""
        self.backend.close()

    # -- internals ----------------------------------------------------------------
    def _at_fixed_objective(
        self, problem: MaxStretchProblem, objective: float, generic: bool
    ) -> MaxStretchSolution:
        live = self._live if problem is self._last_problem else None
        self._live = None
        bucket = self._bucket
        key = None
        if bucket is not None:
            key = (problem_signature(problem), objective, generic)
            banked = bucket.sys2.get(key)
            if banked is not None:
                self.backend.stats.n_primal_reuses += 1
                return self._rebind(banked, problem)
        solution = reoptimize_allocation(
            problem, objective, skeleton_cache=self._skeletons, backend=self.backend,
            live=live, generic=generic,
        )
        if bucket is not None:
            bucket.sys2[key] = solution
            bucket.trim()
        return solution

    def _trim_skeletons(self) -> None:
        """Bound the skeleton cache (drop oldest entries, dict is insertion-ordered)."""
        while len(self._skeletons) > _MAX_SKELETONS:
            self._skeletons.pop(next(iter(self._skeletons)))
