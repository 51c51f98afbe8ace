"""The LP-based on-line heuristics of Section 4.3.2.

At every release date the scheduler

1. preempts everything (implicit: the plan is recomputed from scratch),
2. computes the best max-stretch :math:`S^*` still achievable *given the
   work already performed* (System (1) restricted to the remaining work of
   the active jobs),
3. re-optimizes a sum-stretch-like relaxation under the constraint that
   :math:`S^*` is preserved (System (2)), unless the non-optimized variant is
   selected, and
4. turns the LP allocation into an executable plan, in one of three ways:

   * **Online** -- inside each (interval, processor) the jobs completing
     their share there ("terminal jobs") run first under the SWRPT order,
     followed by the non-terminal jobs;
   * **Online-EDF** -- per processor, the total shares are list-scheduled in
     the order of the interval in which each share completes (ties broken by
     SWRPT);
   * **Online-EGDF** -- a single global priority list (ordered by the
     interval in which the job's total work completes, ties broken by SWRPT)
     is used with the greedy restricted-availability rule of Section 3.

The *non-optimized* variant (``variant="online-nonopt"``) skips step 3 and
directly materializes a System (1) optimum -- the one generic costs pick
(:meth:`~repro.lp.incremental.ReplanContext.pick_optimum`), so its plan
does not depend on the solver's pivoting; Figure 3 of the paper compares
it against the optimized version.

A :mod:`~repro.schedulers.policies` replan policy decides *when* the LP
resolutions run (``"on-arrival"``, the paper's behaviour, by default).
Every full-platform resolution goes through a
:class:`~repro.lp.incremental.ReplanContext`, which carries caches and an
:math:`S^*` warm start across replans: it cuts the LP probe count per
release date by several times while producing schedules bit-identical to
rebuilding every LP from scratch (the from-scratch twin is the test oracle
in ``tests/replan_oracles.py``).
"""

from __future__ import annotations

import math
import time as _time
from typing import Literal, Sequence

from repro.core.instance import Instance
from repro.core.job import Job
from repro.lp.aggregation import (
    edf_order,
    materialize_solution,
    share_totals,
    swrpt_terminal_order,
)
from repro.lp.backends import SolverBackend
from repro.lp.bank import SolverStateBank
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import MaxStretchSolution, MilestoneSearchReport
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import build_resources, problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.simulation.state import Assignment, SchedulerState
from repro.schedulers.base import (
    Lane,
    PlanBasedScheduler,
    PlanSegment,
    Row,
    greedy_assignment,
)
from repro.schedulers.policies import OnArrivalPolicy, ReplanPolicy, parse_policy

__all__ = ["OnlineLPScheduler"]

Variant = Literal["online", "online-edf", "online-egdf", "online-nonopt"]

_VARIANT_NAMES = {
    "online": "Online",
    "online-edf": "Online-EDF",
    "online-egdf": "Online-EGDF",
    "online-nonopt": "Online (non-opt.)",
}


class OnlineLPScheduler(PlanBasedScheduler):
    """On-line max-stretch heuristic built on Systems (1) and (2).

    Parameters
    ----------
    variant:
        One of ``"online"``, ``"online-edf"``, ``"online-egdf"`` or
        ``"online-nonopt"`` (see module docstring).
    policy:
        Replan policy (textual spec or :class:`ReplanPolicy` instance); the
        default ``"on-arrival"`` reproduces the paper exactly.
    solver_backend:
        LP solver backend: ``None``, ``"auto"`` or ``"highs"`` for a fresh
        persistent HiGHS backend per run, or a
        :class:`~repro.lp.backends.SolverBackend` instance (how tests inject
        a reference solver); anything else raises
        :class:`~repro.core.errors.SolverError` at reset.  The backend lives
        at the solver layer: one instance per run, owned by the
        ReplanContext.
    state_bank:
        Optional :class:`~repro.lp.bank.SolverStateBank` shared across runs
        (the campaign workers hold one each), or ``None``.  Any other value
        raises :class:`TypeError`: the bool of
        :attr:`ExperimentConfig.state_bank` must be turned into a bank or
        ``None`` by the caller, as the campaign runner does.
    """

    def __init__(
        self,
        variant: Variant = "online",
        *,
        policy: "str | ReplanPolicy" = "on-arrival",
        solver_backend: "str | SolverBackend | None" = None,
        state_bank: SolverStateBank | None = None,
    ):
        super().__init__(policy=parse_policy(policy))
        if variant not in _VARIANT_NAMES:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant: Variant = variant
        self.name = _VARIANT_NAMES[variant]
        if not isinstance(self.policy, OnArrivalPolicy):
            # Non-default cadences are a new scenario axis; make them visible
            # in result tables without renaming the paper-faithful default.
            self.name = f"{self.name} [{self.policy.describe()}]"
        if state_bank is not None and not isinstance(state_bank, SolverStateBank):
            raise TypeError(
                f"state_bank must be a SolverStateBank or None, got {state_bank!r}"
            )
        self.solver_backend = solver_backend
        self.state_bank = state_bank
        #: Built by :meth:`reset`, once per run.
        self._context: ReplanContext
        #: Best achievable max-stretch computed at the last release date.
        self.last_objective: float | None = None
        #: Number of LP re-optimizations performed.
        self.n_resolutions = 0
        self._egdf_rank: dict[int, tuple[float, ...]] = {}

    # -- event handling ------------------------------------------------------------
    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._context = ReplanContext(
            instance,
            solver_backend=self.solver_backend,
            state_bank=self.state_bank,
        )
        self.lp_stats = self._context.backend.stats
        self.last_objective = None
        self.n_resolutions = 0
        self._egdf_rank = {}

    def on_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        # The carried S* and solution assume the previous plan was followed
        # on a stable platform; an outage breaks that premise, so the
        # context must restart cold.
        self._context.invalidate_carry()
        super().on_availability(state, downs, ups)

    def on_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        # Service mode admits jobs after reset; make sure the replan fast
        # path has a row for each before any policy decision can trigger
        # an LP resolution.  No-op in batch mode (the table is built from
        # the full instance up front), so schedules are unchanged there.
        self._context.ensure_jobs(jobs)
        super().on_arrivals(state, jobs)

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        # Kept for API compatibility (direct calls in tests/examples); the
        # policy-driven path goes through PlanBasedScheduler.on_arrivals.
        self._do_replan(state)

    def finalize(self, state: SchedulerState) -> None:
        """Drop the run's live LP model (:meth:`ReplanContext.publish`)."""
        self._context.publish()

    def on_idle(self, state: SchedulerState, until: float) -> None:
        """No-op, kept only for the end-to-end benchmark harness.

        The engine never calls it: it was the hook of the speculative
        replan pre-solves, which are gone.  ``benchmarks/e2e/common.py`` and
        its tracer still look it up with ``vars(OnlineLPScheduler)["on_idle"]``
        to time it, so without it the traced pass would raise ``KeyError``.
        Delete it together with that lookup.
        """

    def replan(self, state: SchedulerState) -> None:
        start = _time.perf_counter()
        try:
            self._replan(state)
        finally:
            self.lp_stats.record_replan(_time.perf_counter() - start)

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
        problem = self._context.build_problem(now, remaining)
        best = self._context.solve_max_stretch(problem)
        self.last_objective = best.objective
        self.n_resolutions += 1

        if self.variant == "online-nonopt":
            # No step 3: one of System (1)'s optima, picked by the problem alone.
            solution = self._context.pick_optimum(problem, best.objective)
        else:
            # Step 3: System (2) re-optimization at fixed max-stretch.
            solution = self._context.reoptimize(problem, best.objective)

        # Step 4: build the executable plan.
        self._install_plan(solution, instance, now)

    def _install_plan(
        self, solution: MaxStretchSolution, instance: Instance, now: float
    ) -> None:
        """Step 4: turn the LP allocation into an executable plan."""
        if self.variant == "online-egdf":
            self._egdf_rank = self._global_priorities(solution)
            self.set_plan([])  # the EGDF variant does not follow a plan
        elif self.variant == "online-edf":
            self.set_lanes(self._per_processor_list_plan(solution, now))
        else:
            order_rule = edf_order if self.variant == "online-nonopt" else swrpt_terminal_order
            self.set_lanes(materialize_solution(solution, instance, order_rule=order_rule))

    # -- degraded replans (machine outages) --------------------------------------------
    def _replan_degraded(
        self, state: SchedulerState, now: float, remaining: "dict[int, float]"
    ) -> None:
        """Replan on the surviving machines only (fault-injection path).

        The LP is rebuilt from scratch over the capability classes of the
        *restricted* platform, bypassing every :class:`ReplanContext` cache
        (whose resources, job table and carried state all describe the full
        platform) but solving on the context's backend, which it never
        closes.  Flow factors still come from the full-platform ideal
        times -- the instance's stretch convention -- so objectives remain
        comparable across availability regimes.  Jobs whose eligible
        machines are all down are left out of the LP; they park until an UP
        transition forces the next replan.
        """
        instance = state.instance
        runnable = {
            job_id: rem
            for job_id, rem in remaining.items()
            if rem > 0 and state.available_eligible(job_id)
        }
        if not runnable:
            self.set_plan([])
            self._egdf_rank = {}
            return
        platform = instance.platform.restrict_to(sorted(state.available_ids()))
        problem = problem_from_instance(
            instance, now=now, remaining=runnable, resources=build_resources(platform)
        )
        backend = self._context.backend
        skeletons: dict = {}  # lets System (2) find the winning probe's model
        report = MilestoneSearchReport()
        best = minimize_max_weighted_flow(
            problem, backend=backend, skeleton_cache=skeletons, report=report
        )
        self.last_objective = best.objective
        self.n_resolutions += 1
        solution = reoptimize_allocation(
            problem, best.objective, backend=backend, skeleton_cache=skeletons,
            live=report.live, generic=self.variant == "online-nonopt",
        )
        self._install_plan(solution, instance, now)

    # -- EGDF: global priority list -------------------------------------------------
    @staticmethod
    def _global_priorities(solution: MaxStretchSolution) -> dict[int, tuple[float, ...]]:
        """Rank jobs by the interval in which their total work completes."""
        job_last = share_totals(solution).last.max(axis=1).tolist()
        never = len(solution.interval_bounds)
        return {
            lp_job.job_id: (
                float(last if last >= 0 else never),
                lp_job.flow_factor * lp_job.remaining_work,
                float(lp_job.job_id),
            )
            for lp_job, last in zip(solution.problem.jobs, job_last)
        }

    # -- Online-EDF: per-processor list scheduling ------------------------------------
    @staticmethod
    def _per_processor_list_plan(solution: MaxStretchSolution, now: float) -> list[Lane]:
        """Per resource, list-schedule each job's total share from ``now`` on.

        Jobs go in the order of the interval in which their share there
        completes, ties broken by the SWRPT key, then by id.
        """
        totals = share_totals(solution)
        jobs = solution.problem.jobs
        swrpt = [job.flow_factor * job.remaining_work for job in jobs]
        lanes: list[Lane] = []
        for resource in solution.problem.resources:
            last = totals.last[:, resource.index].tolist()
            work = totals.work[:, resource.index].tolist()
            here = [p for p, t in enumerate(last) if t >= 0]
            if not here:
                continue
            here.sort(key=lambda p: (last[p], swrpt[p], jobs[p].job_id))
            cursor = now
            rows: list[Row] = []
            for p in here:
                end = cursor + work[p] / resource.speed
                rows.append((cursor, end, jobs[p].job_id))
                cursor = end
            lanes.append((resource.machine_ids, rows))
        return lanes

    # -- deferred-arrival absorption (threshold policy) ---------------------------------
    def absorb_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        """Append deferred jobs to the plan greedily (no LP resolution).

        Each job goes, in its entirety, to the eligible machine completing it
        earliest behind the already-planned work -- the MCT rule, appended at
        the *tail* of the machine's plan (not its first idle gap, which may be
        shorter than the job and would create overlapping segments).  The EGDF
        variant does not follow a plan; its greedy rule already serves
        unranked jobs last, so nothing is written (writing segments would
        only flip :class:`ThresholdPolicy` onto its plan-based estimate for a
        plan nobody executes).
        """
        if self.variant == "online-egdf":
            return
        now = state.time
        for job in jobs:
            best_machine = None
            best_start = now
            best_completion = math.inf
            for machine in state.available_eligible(job.job_id):
                start = self.plan_tail(machine.machine_id, now)
                completion = start + job.size / machine.speed
                if completion < best_completion - 1e-15:
                    best_machine, best_start, best_completion = machine, start, completion
            if best_machine is None:
                # Every eligible machine is down (fault injection): leave the
                # job unplanned; the next availability transition forces a
                # replan that picks it up.  Unreachable on a reliable
                # platform -- instances are validated upstream.
                continue
            self.extend_plan(
                [
                    PlanSegment(
                        machine_id=best_machine.machine_id,
                        job_id=job.job_id,
                        start=best_start,
                        end=best_completion,
                    )
                ]
            )

    # -- assignment --------------------------------------------------------------------
    def plan_assignment(self, state: SchedulerState) -> Assignment:
        if self.variant != "online-egdf":
            return super().plan_assignment(state)
        # Greedy restricted-availability rule with the stored global priorities.
        order = sorted(
            state.active_jobs(),
            key=lambda rt: self._egdf_rank.get(
                rt.job_id, (math.inf, math.inf, float(rt.job_id))
            ),
        )
        return greedy_assignment(state, order)
