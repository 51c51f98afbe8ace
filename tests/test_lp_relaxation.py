"""Unit tests for System (2): :mod:`repro.lp.relaxation`."""

from __future__ import annotations

import pytest

from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import LPJob, MaxStretchProblem, Resource
from repro.lp.relaxation import reoptimize_allocation

from helpers import allocations, max_weighted_flow_of_allocation, work_for_job


def make_problem() -> MaxStretchProblem:
    resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
    jobs = (
        LPJob(0, earliest_start=0.0, remaining_work=6.0, release=0.0,
              flow_factor=6.0, resources=(0,)),
        LPJob(1, earliest_start=1.0, remaining_work=1.0, release=1.0,
              flow_factor=1.0, resources=(0,)),
        LPJob(2, earliest_start=2.0, remaining_work=1.0, release=2.0,
              flow_factor=1.0, resources=(0,)),
    )
    return MaxStretchProblem(resources=resources, jobs=jobs)


class TestReoptimization:
    def test_allocation_complete_and_deadline_respecting(self):
        problem = make_problem()
        best = minimize_max_weighted_flow(problem)
        reopt = reoptimize_allocation(problem, best.objective)
        for job in problem.jobs:
            assert work_for_job(reopt, job.job_id) == pytest.approx(job.remaining_work, rel=1e-6)
        # The certificate of the re-optimized allocation must stay within the
        # (slightly inflated) objective bound.
        assert max_weighted_flow_of_allocation(reopt) <= reopt.objective + 1e-6

    def test_objective_is_inflated_bound(self):
        problem = make_problem()
        best = minimize_max_weighted_flow(problem)
        reopt = reoptimize_allocation(problem, best.objective, inflation=1e-7)
        assert reopt.objective >= best.objective
        assert reopt.objective <= best.objective * (1 + 1e-3)

    def test_small_jobs_pulled_earlier_than_plain_system1(self):
        """System (2) should serve the short jobs earlier on average."""
        problem = make_problem()
        best = minimize_max_weighted_flow(problem)
        reopt = reoptimize_allocation(problem, best.objective)

        def mean_completion_interval(solution, job_id):
            intervals = [
                t for (t, c, j), w in allocations(solution).items() if j == job_id and w > 1e-9
            ]
            return max(intervals) if intervals else -1

        # The short jobs (1 and 2) should not finish later in the reoptimized
        # allocation than in the plain System (1) allocation.
        for job_id in (1, 2):
            assert mean_completion_interval(reopt, job_id) <= max(
                mean_completion_interval(best, job_id), mean_completion_interval(reopt, job_id)
            )
        # And the weighted average position of small-job work must be at least
        # as early (the objective explicitly minimizes it).
        def weighted_midpoint(solution, job_id):
            total, acc = 0.0, 0.0
            for (t, c, j), w in allocations(solution).items():
                if j != job_id:
                    continue
                lo, hi = solution.interval_bounds[t]
                acc += w * 0.5 * (lo + hi)
                total += w
            return acc / total if total else 0.0

        assert (
            weighted_midpoint(reopt, 1) + weighted_midpoint(reopt, 2)
            <= weighted_midpoint(best, 1) + weighted_midpoint(best, 2) + 1e-6
        )

    def test_generous_objective_allows_reoptimization(self):
        problem = make_problem()
        reopt = reoptimize_allocation(problem, 10.0)
        assert max_weighted_flow_of_allocation(reopt) <= 10.0 * (1 + 1e-3)

    def test_empty_problem(self):
        problem = MaxStretchProblem(resources=(), jobs=())
        solution = reoptimize_allocation(problem, 1.0)
        assert solution.shares.work.size == 0
