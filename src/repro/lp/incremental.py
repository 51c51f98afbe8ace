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
  skeletons** (variable indexing and row grouping) are identical and cached;
  on persistent HiGHS, System (2) even re-solves the winning probe's model.

:class:`ReplanContext` bundles these caches behind the same three calls a
from-scratch replan makes (`build problem`, `solve System (1)`, `re-optimize
System (2)`).  Because warm-starting only reorders the probes of a monotone
feasibility search and the cached skeletons pin the exact variable order of
every LP, the context returns *bit-identical* objectives and
allocations to rebuilding every LP from scratch -- the from-scratch
scheduler survives only as the test oracle in ``tests/replan_oracles.py``.

The LP solves themselves go through a pluggable :mod:`repro.lp.backends`
backend owned by the context.  The default (one-shot scipy) preserves the
bit-identical guarantee above; the persistent HiGHS backend
(``solver_backend="highs"``) additionally carries the simplex basis
between probes and replans, which changes results only within solver
tolerance (equivalence is enforced by ``tests/test_lp_backends.py``).

Two exact-match shortcuts stack on top of the per-run caches: a problem
content-identical to the previous replan's reuses its solution outright,
and a **cross-run solver-state bank** (:mod:`repro.lp.bank`) -- when the
campaign runner hands the context a :class:`~repro.lp.bank.SolverStateBank`
-- supplies banked primal optima for exact
:func:`~repro.lp.bank.problem_signature` matches (skipping the whole
System (1) search or System (2) re-optimization), the previous publisher's
final :math:`S^*` as the first replan's warm start, and its exported
warm-start bases; the context publishes its own final state back on run
completion (:meth:`ReplanContext.publish`).  Both are accelerators only --
reused solutions are exact optima of content-identical LPs and a warm start
merely reorders a monotone search -- so acceptance logic in
:mod:`repro.lp.maxstretch` is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.errors import SolverError
from repro.core.instance import Instance
from repro.lp.backends import SolverBackend, make_backend
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
from repro.lp.resilience import annotate_solver_error

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
        LP solver backend carried across the context's solves: a name
        (``"scipy"`` | ``"highs"`` | ``"auto"``), a ready
        :class:`~repro.lp.backends.SolverBackend` instance, or ``None`` for
        the one-shot scipy default.  With the persistent HiGHS backend the
        context owns the warm-start series bases alongside its
        constraint-skeleton cache, so consecutive milestone probes and
        System (2) solves start dual simplex from the previous basis instead
        of from a cold one.
    state_bank:
        Optional :class:`~repro.lp.bank.SolverStateBank` shared across the
        runs of one campaign worker.  The context acquires the bucket for
        the instance's content key at construction (seeding the backend's
        warm-start series from the previous publisher's exported bases),
        consumes banked primal solutions and the first replan's warm start
        during the run, and publishes its own final state back through
        :meth:`publish`.  ``None`` (the default, and every non-campaign
        path) keeps the historical per-run-isolated behavior.

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
        # drop its series bases so warm starts never cross simulations, and
        # its counters so they describe this run only.  Cross-run carry
        # happens exclusively through the content-addressed bank.
        self.backend.close()
        self.last_objective: float | None = None
        self.n_replans: int = 0
        self._skeletons: dict[tuple, ConstraintSkeleton] = {}
        self._bucket: BankBucket | None = None
        self._last_sig: tuple | None = None
        self._last_problem: MaxStretchProblem | None = None
        self._last_solution: MaxStretchSolution | None = None
        self._live: LiveProbe | None = None
        if state_bank is not None:
            self._bucket, hit = state_bank.acquire(instance_content_key(instance))
            if hit:
                self.backend.stats.n_bank_hits += 1
                if self._bucket.series_state is not None:
                    self.backend.import_series_state(self._bucket.series_state)
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

        The warm start (:meth:`_warm_hint`) only chooses the first probed
        milestone interval; the search stays exact.

        Before searching at all, two exact-match shortcuts are tried: a
        problem content-identical to the previous replan's reuses its
        solution outright, and a banked solution stored for the same
        :func:`~repro.lp.bank.problem_signature` by an earlier run of the
        same instance is re-bound and returned without solving.
        """
        self._live = None
        sig = problem_signature(problem)
        reused = self._reuse_sys1(problem, sig)
        if reused is not None:
            return reused

        report = MilestoneSearchReport()
        try:
            solution = minimize_max_weighted_flow(
                problem,
                warm_start=self._warm_hint(),
                skeleton_cache=self._skeletons,
                backend=self.backend,
                report=report,
            )
        except SolverError as exc:
            # Attach the probe identity so a campaign `failed` record can
            # say which LP content died without re-running the replan.
            annotate_solver_error(exc, backend=self.backend.name, probe_signature=sig)
            raise
        self._note_solution(problem, sig, solution)
        self._live = report.live
        self._trim_skeletons()
        if self._bucket is not None and sig not in self._bucket.sys1:
            self._bucket.sys1[sig] = solution
            self._bucket.trim()
        return solution

    def _reuse_sys1(
        self, problem: MaxStretchProblem, sig: tuple
    ) -> MaxStretchSolution | None:
        """A stored System (1) optimum for ``sig``, or ``None`` to solve.

        Checks the previous replan of *this* run first (the active set can
        be unchanged when a replan fires without progress), then the bank
        bucket (an earlier run of the content-identical instance solved the
        exact same problem -- e.g. every variant's first replan, before any
        executed work diverges).  A reused solution is an exact optimum of
        this problem, so downstream acceptance is unchanged.
        """
        if sig == self._last_sig and self._last_solution is not None:
            self.backend.stats.n_primal_reuses += 1
            solution = self._rebind(self._last_solution, problem)
            self._note_solution(problem, sig, solution)
            return solution
        if self._bucket is not None:
            banked = self._bucket.sys1.get(sig)
            if banked is not None:
                self.backend.stats.n_primal_reuses += 1
                solution = self._rebind(banked, problem)
                self._note_solution(problem, sig, solution)
                return solution
        return None

    def invalidate_carry(self) -> None:
        """Forget everything carried from previous replans.

        Called on machine availability transitions.  The carried
        :math:`S^*` and previous-solution shortcut describe the previous
        plan on a stable platform -- an outage invalidates that (a downed
        machine executes nothing its plan claimed).  Structural caches (resources, job table,
        skeletons) survive: they describe problem shapes, not solution
        values, and the full-platform problem returns unchanged once every
        machine is back up.  Bank entries also survive -- they are keyed by
        the full problem content, so they can only ever re-bind exact
        optima.
        """
        self.last_objective = None
        self._last_sig = None
        self._last_problem = None
        self._last_solution = None

    def _note_solution(
        self,
        problem: MaxStretchProblem,
        sig: tuple,
        solution: MaxStretchSolution,
    ) -> None:
        """Per-replan bookkeeping shared by the solved and reused paths."""
        self.last_objective = solution.objective
        self.n_replans += 1
        self._last_sig = sig
        self._last_problem = problem
        self._last_solution = solution

    @staticmethod
    def _rebind(
        solution: MaxStretchSolution, problem: MaxStretchProblem
    ) -> MaxStretchSolution:
        """``solution`` re-anchored on ``problem`` (same content, new object).

        Banked solutions keep a reference to the publisher run's problem;
        consumers swap in their own so every derived accessor
        (``deadline``, per-resource allocation views, ...) resolves against
        the live run's job objects.  The interval structure and allocation
        payload are shared -- both are immutable in practice (the structure
        is frozen, the allocation dict is copied).
        """
        if solution.problem is problem:
            return solution
        return MaxStretchSolution(
            objective=solution.objective,
            problem=problem,
            structure=solution.structure,
            interval_bounds=solution.interval_bounds,
            allocations=dict(solution.allocations),
        )

    def _warm_hint(self) -> float | None:
        """The milestone-search warm start: the previous replan's :math:`S^*`.

        ``None`` on a cold first replan; with a warm bank bucket the first
        replan starts from the previous publisher's final :math:`S^*`
        instead (probe order only, never the answer).
        """
        if self.last_objective is None and self._bucket is not None:
            return self._bucket.last_objective
        return self.last_objective

    def reoptimize(
        self, problem: MaxStretchProblem, objective: float
    ) -> MaxStretchSolution:
        """System (2) at fixed ``objective``, sharing the skeleton cache.

        With a bank bucket, a re-optimization already published for the
        exact ``(problem signature, objective)`` pair is re-bound and
        returned without solving (the deterministic inflation loop makes
        the stored solution the one this call would compute).
        """
        live = self._live if problem is self._last_problem else None
        self._live = None
        if self._bucket is None:
            return reoptimize_allocation(
                problem, objective, skeleton_cache=self._skeletons, backend=self.backend, live=live
            )
        sig = (
            self._last_sig
            if problem is self._last_problem
            else problem_signature(problem)
        )
        key = (sig, objective)
        banked = self._bucket.sys2.get(key)
        if banked is not None:
            self.backend.stats.n_primal_reuses += 1
            return self._rebind(banked, problem)
        solution = reoptimize_allocation(
            problem, objective, skeleton_cache=self._skeletons, backend=self.backend, live=live
        )
        self._bucket.sys2[key] = solution
        self._bucket.trim()
        return solution

    # -- bank publication ----------------------------------------------------------
    def publish(self) -> None:
        """Publish the run's final solver state into the bank bucket.

        Called on run completion (the scheduler's ``finalize`` hook).  The
        final :math:`S^*` overwrites the bucket's warm start (latest
        publisher wins -- any content-identical run's is an equally good
        hint); the exported warm-start bases are kept first-publisher
        wins, since later runs consumed them and re-deriving adds nothing.
        Drops the live model either way.
        """
        self._live = None
        bucket = self._bucket
        if bucket is None:
            return
        if self.last_objective is not None:
            bucket.last_objective = self.last_objective
        if bucket.series_state is None:
            bucket.series_state = self.backend.export_series_state()
        bucket.n_publications += 1

    def close(self) -> None:
        """Release the backend's persistent solver state (the series bases)."""
        self.backend.close()

    # -- internals ----------------------------------------------------------------
    def _trim_skeletons(self) -> None:
        """Bound the skeleton cache (drop oldest entries, dict is insertion-ordered)."""
        while len(self._skeletons) > _MAX_SKELETONS:
            self._skeletons.pop(next(iter(self._skeletons)))
