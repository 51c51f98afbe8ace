"""Unit tests for :mod:`repro.lp.aggregation` (materialization of LP allocations)."""

from __future__ import annotations

import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.core import metrics
from repro.lp.aggregation import (
    edf_order,
    materialize_solution,
    share_totals,
    split_work_across_machines,
    swrpt_terminal_order,
)
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation

from helpers import schedule_of


@pytest.fixture
def restricted_instance() -> Instance:
    platform = Platform(
        [
            Machine(0, 1.0, 0, frozenset({"a"})),
            Machine(1, 0.5, 0, frozenset({"a"})),
            Machine(2, 1.0, 1, frozenset({"a", "b"})),
            Machine(3, 2.0, 2, frozenset({"b"})),
        ]
    )
    jobs = [
        Job(0, release=0.0, size=6.0, databank="a"),
        Job(1, release=0.5, size=1.0, databank="b"),
        Job(2, release=1.0, size=2.0, databank="a"),
        Job(3, release=1.5, size=1.0, databank="b"),
    ]
    return Instance(jobs, platform)


class TestSplitWork:
    def test_split_across_machines_proportional(self, restricted_instance):
        slices = split_work_across_machines(
            restricted_instance, [0, 1], job_id=0, start=1.0, end=3.0
        )
        works = {s.machine_id: s.work for s in slices}
        assert works[0] == pytest.approx(2.0)   # speed 1 over 2 seconds
        assert works[1] == pytest.approx(4.0)   # speed 2 over 2 seconds
        assert all(s.start == 1.0 and s.end == 3.0 for s in slices)

    def test_empty_interval_gives_no_slices(self, restricted_instance):
        assert split_work_across_machines(restricted_instance, [0], 0, 2.0, 2.0) == []


class TestMaterializeSolution:
    def test_materialized_schedule_is_valid_and_optimal(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        solution = minimize_max_weighted_flow(problem)
        lanes = materialize_solution(solution, restricted_instance)
        schedule = schedule_of(lanes, restricted_instance)
        schedule.validate(restricted_instance)
        achieved = metrics.max_stretch(restricted_instance, schedule.completion_times())
        assert achieved <= solution.objective + 1e-6

    def test_materialized_schedule_with_swrpt_order(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        best = minimize_max_weighted_flow(problem)
        reopt = reoptimize_allocation(problem, best.objective)
        lanes = materialize_solution(reopt, restricted_instance, order_rule=swrpt_terminal_order)
        schedule = schedule_of(lanes, restricted_instance)
        schedule.validate(restricted_instance)
        achieved = metrics.max_stretch(restricted_instance, schedule.completion_times())
        assert achieved <= reopt.objective + 1e-6

    def test_slices_stay_inside_their_intervals(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        solution = minimize_max_weighted_flow(problem)
        lanes = materialize_solution(solution, restricted_instance)
        schedule = schedule_of(lanes, restricted_instance)
        boundaries = [b for pair in solution.interval_bounds for b in pair]
        horizon = max(boundaries)
        for s in schedule:
            assert s.start >= min(boundaries) - 1e-9
            assert s.end <= horizon + 1e-9

    def test_order_rules_preserve_allocation_content(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        solution = minimize_max_weighted_flow(problem)
        for rule in (edf_order, swrpt_terminal_order):
            lanes = materialize_solution(solution, restricted_instance, order_rule=rule)
            schedule = schedule_of(lanes, restricted_instance)
            for job in restricted_instance.jobs:
                assert schedule.work_done(job.job_id) == pytest.approx(job.size, rel=1e-5)


class TestOrderRules:
    def test_edf_keys_are_the_deadlines(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        solution = minimize_max_weighted_flow(problem)
        (deadlines,) = edf_order(solution, share_totals(solution))
        want = [solution.deadline(j) for j in solution.shares.job_id.tolist()]
        assert deadlines.tolist() == want

    def test_swrpt_terminal_keys_put_terminal_jobs_first(self, restricted_instance):
        problem = problem_from_instance(restricted_instance)
        best = minimize_max_weighted_flow(problem)
        solution = reoptimize_allocation(problem, best.objective)
        shares = solution.shares
        last, swrpt = swrpt_terminal_order(solution, share_totals(solution))
        for i, (t, c, j) in enumerate(zip(*(x.tolist() for x in shares[:3]))):
            job = problem.job_by_id(j)
            assert swrpt[i] == job.flow_factor * job.remaining_work
            # The first key is the share's last interval on its resource: its
            # own interval exactly when the share is terminal, later otherwise.
            on_resource = (shares.job_id == j) & (shares.c == c) & (shares.work > 0)
            assert last[i] == shares.t[on_resource].max() >= t
        assert (last > shares.t).any()  # the case has a non-terminal share
