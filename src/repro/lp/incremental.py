"""Incremental replanning context for the on-line LP heuristics.

The on-line heuristics of Section 4.3.2 solve Systems (1) and (2) from
scratch at every release date, which is the scheduling-cost bottleneck that
Section 5.3 measures.  Between two consecutive replans, however, most of the
work is identical:

* the **platform** never changes, so the capability-class decomposition and
  the per-databank eligible resource sets are invariants of the run;
* the per-job **flow factors** (ideal times) are invariants of the instance;
* the optimal max-stretch :math:`S^*` moves little from one release date to
  the next, so the milestone search can be **warm-started** at the previous
  optimum -- and the previous search's strongest **infeasibility
  certificate**, re-evaluated against the new remaining works, prunes the
  next search further still (arrival ``k+1`` starts above every milestone
  the carried dual ray refutes);
* the winning System (1) probe and the System (2) re-optimization that
  follows share the same milestone interval, so their **constraint
  skeletons** (variable indexing and row grouping) are identical and cached.

:class:`ReplanContext` bundles these caches behind the same three calls a
from-scratch replan makes (`build problem`, `solve System (1)`, `re-optimize
System (2)`).  Because warm-starting only reorders the probes of a monotone
feasibility search and the cached skeletons pin the exact variable order of
the historical builder, the context returns *bit-identical* objectives and
allocations to rebuilding every LP from scratch -- the from-scratch
scheduler survives only as the test oracle in ``tests/replan_oracles.py``.

The LP solves themselves go through a pluggable :mod:`repro.lp.backends`
backend owned by the context.  The default (one-shot scipy) preserves the
bit-identical guarantee above; the persistent HiGHS backend
(``solver_backend="highs"``) additionally carries the simplex basis
between probes and replans, which changes results only within solver
tolerance (equivalence is enforced by ``tests/test_lp_backends.py``).

Two further accelerators stack on top of the per-run caches:

* a **cross-run solver-state bank** (:mod:`repro.lp.bank`): when the
  campaign runner hands the context a :class:`~repro.lp.bank.SolverStateBank`,
  the bucket for the instance's content key supplies banked primal optima
  (exact :func:`~repro.lp.bank.problem_signature` matches skip the whole
  System (1) search or System (2) re-optimization), first-replan warm
  hints, and the previous publisher's exported warm-start bases; the
  context publishes its own final state back on run completion
  (:meth:`ReplanContext.publish`);
* a **feasible-side carry** within the run: when the active set only
  *shrank* since the previous replan (a subset of the jobs, none with more
  remaining work), the accepted :math:`S^*` stays feasible and is passed
  as ``feasible_cap`` so the milestone search never gallops upward past
  the known-feasible interval -- and an exactly-unchanged problem reuses
  the previous solution outright.

Both are accelerators only -- banked solutions are exact optima of
content-identical LPs and hints/caps merely reorder a monotone search --
so acceptance logic in :mod:`repro.lp.maxstretch` is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.errors import ModelError, SolverError
from repro.core.instance import Instance
from repro.lp.backends import (
    SolverBackend,
    make_backend,
    note_bank_lookup,
    note_primal_reuse,
)
from repro.lp.bank import BankBucket, SolverStateBank, instance_content_key, problem_signature
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    MaxStretchSolution,
    MilestoneSearchReport,
    SearchCertificate,
    minimize_max_weighted_flow,
)
from repro.lp.problem import (
    JobTable,
    MaxStretchProblem,
    Resource,
    build_eligibility,
    build_job_table,
    build_resources,
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
        tuple, per-databank eligibility) are computed once here.
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
        consumes banked primal solutions and first-replan hints during the
        run, and publishes its own final state back through
        :meth:`publish`.  ``None`` (the default, and every non-campaign
        path) keeps the historical per-run-isolated behavior.

    Attributes
    ----------
    last_objective:
        The optimal max weighted flow of the previous replan (``None`` before
        the first); used to warm-start the next milestone search.
    last_certificate:
        The strongest infeasibility certificate of the previous milestone
        search (``None`` without certificate support).  Re-evaluated against
        the next replan's remaining works, it raises the warm start above
        every milestone the carried dual ray still refutes -- a pure
        probe-order hint, so results are unaffected.
    n_replans:
        Number of System (1) resolutions performed through this context.
    n_probes_solved / n_probes_skipped:
        Accumulated milestone-search probe economy across the context's
        replans (solved LPs vs candidates eliminated without a solve).
    backend:
        The resolved :class:`~repro.lp.backends.SolverBackend`.
    """

    def __init__(
        self,
        instance: Instance,
        *,
        solver_backend: "str | SolverBackend | None" = None,
        state_bank: "SolverStateBank | None" = None,
    ):
        self.instance = instance
        self.resources: tuple[Resource, ...] = build_resources(instance)
        self.eligibility: dict[str | None, tuple[int, ...]] = build_eligibility(
            instance, self.resources
        )
        self.job_table: JobTable = build_job_table(
            instance, self.resources, self.eligibility
        )
        self._table_ids: set[int] = {row[0] for row in self.job_table.rows}
        self.backend: SolverBackend = make_backend(solver_backend)
        # A caller-supplied backend instance may have served a previous run;
        # drop its series bases so warm starts never cross simulations
        # (no-op for the freshly made or stateless backends).  Cross-run
        # carry happens exclusively through the content-addressed bank.
        self.backend.close()
        self.last_objective: float | None = None
        self.last_certificate: SearchCertificate | None = None
        self.n_replans: int = 0
        self.n_probes_solved: int = 0
        self.n_probes_skipped: int = 0
        self._skeletons: dict[tuple, ConstraintSkeleton] = {}
        self._bucket: BankBucket | None = None
        self._bank_hit = False
        # The hit/miss counter is emitted at the first solve instead of here
        # so it lands inside the run's record_lp_probes block.
        self._bank_lookup_pending = False
        self._last_sig: tuple | None = None
        self._last_problem: MaxStretchProblem | None = None
        self._last_solution: MaxStretchSolution | None = None
        self._prev_active: dict[int, float] | None = None
        if state_bank is not None:
            self._bucket, self._bank_hit = state_bank.acquire(
                instance_content_key(instance)
            )
            self._bank_lookup_pending = True
            if self._bank_hit and self._bucket.series_state is not None:
                self.backend.import_series_state(self._bucket.series_state)

    # -- problem construction ------------------------------------------------------
    def build_problem(
        self, now: float, remaining: Mapping[int, float]
    ) -> MaxStretchProblem:
        """The on-line problem at time ``now`` for the active jobs.

        Identical to ``problem_from_instance(instance, now=now,
        remaining=remaining)`` but skipping the capability-class,
        eligibility and per-job weight recomputation (the array-backed
        :class:`~repro.lp.problem.JobTable` fast path).
        """
        return problem_from_instance(
            self.instance,
            now=now,
            remaining=remaining,
            resources=self.resources,
            eligibility=self.eligibility,
            job_table=self.job_table,
        )

    def ensure_jobs(self, jobs: "Sequence[Job]") -> None:
        """Extend the replan fast path with jobs admitted after construction.

        Batch mode builds the :class:`~repro.lp.problem.JobTable` from the
        full instance up front, so this is a no-op there (every arriving job
        is already a table row).  In service mode the instance *grows* as
        submissions are accepted; the scheduler calls this from its arrival
        hook so the table gains one row per admitted job, computed by the
        exact expressions :func:`~repro.lp.problem.build_job_table` uses.
        Jobs are admitted in ``(release, job_id)`` order (the
        :class:`~repro.core.instance.LiveInstance` invariant), so a table
        grown incrementally is bit-identical to one built from the final
        instance restricted to the jobs seen so far -- which keeps service
        replans bit-identical to their batch counterparts.
        """
        new_rows = []
        for job in jobs:
            if job.job_id in self._table_ids:
                continue
            eligible = self.eligibility.get(job.databank)
            if eligible is None:
                # First job targeting this databank: derive its eligible
                # resource set exactly as build_eligibility would have.
                eligible = tuple(
                    r.index
                    for r in self.resources
                    if job.databank is None or job.databank in r.databanks
                )
                self.eligibility[job.databank] = eligible
            if not eligible:
                raise ModelError(f"job {job.job_id} has no eligible capability class")
            new_rows.append(
                (
                    job.job_id,
                    job.release,
                    job.size,
                    1.0 / self.instance.weight(job.job_id),
                    eligible,
                )
            )
            self._table_ids.add(job.job_id)
        if new_rows:
            # JobTable is frozen (its arrays() cache must match its rows);
            # grow by replacement so the cache is rebuilt lazily.
            self.job_table = JobTable(rows=self.job_table.rows + tuple(new_rows))

    # -- solves --------------------------------------------------------------------
    def solve_max_stretch(self, problem: MaxStretchProblem) -> MaxStretchSolution:
        """System (1), warm-started at the previous optimum and certificate.

        The warm start is the previous replan's :math:`S^*`, raised to the
        carried certificate's re-evaluated bound when that refutes more
        (e.g. after a burst of arrivals increased the load).  Both only
        choose the first probed milestone interval; the search stays exact.

        Before searching at all, two exact-match shortcuts are tried: a
        problem content-identical to the previous replan's reuses its
        solution outright, and a banked solution stored for the same
        :func:`~repro.lp.bank.problem_signature` by an earlier run of the
        same instance is re-bound and returned without solving.
        """
        if self._bank_lookup_pending:
            # Deferred from __init__ so the counter lands inside the run's
            # record_lp_probes block rather than at scheduler construction.
            self._bank_lookup_pending = False
            note_bank_lookup(self._bank_hit)
        sig = problem_signature(problem)
        reused = self._reuse_sys1(problem, sig)
        if reused is not None:
            return reused

        report = MilestoneSearchReport()
        try:
            solution = minimize_max_weighted_flow(
                problem,
                warm_start=self._warm_hint(problem),
                feasible_cap=self._feasible_cap(problem),
                skeleton_cache=self._skeletons,
                backend=self.backend,
                report=report,
            )
        except SolverError as exc:
            # Attach the probe identity so a campaign `failed` record can
            # say which LP content died without re-running the replan.
            annotate_solver_error(exc, backend=self.backend.name, probe_signature=sig)
            raise
        self._note_solution(problem, sig, solution, report.certificate)
        self.n_probes_solved += report.n_solved
        self.n_probes_skipped += report.n_skipped
        self._trim_skeletons()
        if self._bucket is not None and sig not in self._bucket.sys1:
            self._bucket.sys1[sig] = (solution, report.certificate)
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
            note_primal_reuse()
            solution = self._rebind(self._last_solution, problem)
            self._note_solution(problem, sig, solution, None)
            return solution
        if self._bucket is not None:
            stored = self._bucket.sys1.get(sig)
            if stored is not None:
                banked, certificate = stored
                note_primal_reuse()
                solution = self._rebind(banked, problem)
                self._note_solution(problem, sig, solution, certificate)
                return solution
        return None

    def invalidate_carry(self) -> None:
        """Forget everything carried from previous replans.

        Called on machine availability transitions.  The carried
        :math:`S^*`, certificate and previous-solution shortcut are all
        justified by the previous plan having been *followed* on a stable
        platform -- an outage violates that (a downed machine
        executes nothing its plan claimed, so the carried cap may refute the
        new true optimum).  Structural caches (resources, job table,
        skeletons) survive: they describe problem shapes, not solution
        values, and the full-platform problem returns unchanged once every
        machine is back up.  Bank entries also survive -- they are keyed by
        the full problem content, so they can only ever re-bind exact
        optima.
        """
        self.last_objective = None
        self.last_certificate = None
        self._last_sig = None
        self._last_problem = None
        self._last_solution = None
        self._prev_active = None

    def _note_solution(
        self,
        problem: MaxStretchProblem,
        sig: tuple,
        solution: MaxStretchSolution,
        certificate: SearchCertificate | None,
    ) -> None:
        """Per-replan bookkeeping shared by the solved and reused paths."""
        self.last_objective = solution.objective
        self.last_certificate = certificate or self.last_certificate
        self.n_replans += 1
        self._last_sig = sig
        self._last_problem = problem
        self._last_solution = solution
        self._prev_active = {
            job.job_id: job.remaining_work for job in problem.jobs
        }

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

    def _warm_hint(self, problem: MaxStretchProblem) -> float | None:
        """The milestone-search warm start for ``problem``.

        ``None`` on a cold first replan; with a warm bank bucket the first
        replan starts from the previous publisher's final :math:`S^*` and
        strongest certificate instead (probe order only, like every hint).
        """
        hint = self.last_objective
        certificate = self.last_certificate
        if hint is None and self._bucket is not None:
            hint = self._bucket.last_objective
            certificate = certificate or self._bucket.certificate
        if certificate is not None:
            works = {job.job_id: job.remaining_work for job in problem.jobs}
            bound = certificate.bound_for(works)
            if bound is not None and (hint is None or bound > hint):
                hint = bound
        return hint

    def _feasible_cap(self, problem: MaxStretchProblem) -> float | None:
        """The previous :math:`S^*` when it is provably still feasible.

        Feasibility survives when the active set only shrank: every job of
        ``problem`` already existed at the previous replan with at least as
        much remaining work, so the previous accepted allocation (restricted
        to the survivors) still meets every deadline at the previous
        objective.  Under the default replan-on-arrival policy the set only
        ever grows, so this fires for batched/threshold replan policies and
        degenerate same-set replans -- never changing existing probe counts.
        """
        if self.last_objective is None or self._prev_active is None:
            return None
        prev = self._prev_active
        for job in problem.jobs:
            before = prev.get(job.job_id)
            if before is None or job.remaining_work > before + 1e-12:
                return None
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
        if self._bucket is None:
            return reoptimize_allocation(
                problem, objective, skeleton_cache=self._skeletons, backend=self.backend
            )
        sig = (
            self._last_sig
            if problem is self._last_problem
            else problem_signature(problem)
        )
        key = (sig, objective)
        banked = self._bucket.sys2.get(key)
        if banked is not None:
            note_primal_reuse()
            return self._rebind(banked, problem)
        solution = reoptimize_allocation(
            problem, objective, skeleton_cache=self._skeletons, backend=self.backend
        )
        self._bucket.sys2[key] = solution
        self._bucket.trim()
        return solution

    # -- bank publication ----------------------------------------------------------
    def publish(self) -> None:
        """Publish the run's final solver state into the bank bucket.

        Called on run completion (the scheduler's ``finalize`` hook).  The
        final :math:`S^*`/certificate overwrite the bucket's hint state
        (latest publisher wins -- any content-identical state is an equally
        good hint); the exported warm-start bases are kept first-publisher
        wins, since later runs consumed them and re-deriving adds nothing.
        No-op without a bank.
        """
        bucket = self._bucket
        if bucket is None:
            return
        if self.last_objective is not None:
            bucket.last_objective = self.last_objective
            if self.last_certificate is not None:
                bucket.certificate = self.last_certificate
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
