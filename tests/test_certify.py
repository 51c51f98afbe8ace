"""``certify``: System (1) answers checked by Hall cuts, without a second solver."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro.core.instance import Instance
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import LPJob, MaxStretchProblem, Resource, problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.utils.seeding import spawn_children
from repro.workload.generator import (
    PlatformSpec,
    WorkloadSpec,
    generate_platform,
    generate_workload,
)

from certify import MAX_SUBSET_JOBS, certify, certify_system2
from helpers import certify_answers, make_uniform_instance, record_answers
from test_engine_golden import LP_JOBS, scheduler_options, wide_instance


def _online_dense_instances(seed: int, count: int) -> list[Instance]:
    """Request streams shaped like the ``online_dense`` benchmark workload.

    3 clusters x 10 processors, 3 databanks, availability 0.6, density 3.0
    over a 45 s window, 60 jobs.
    """
    spec = PlatformSpec(n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6)
    platform, catalog = generate_platform(spec, rng=2006)
    workload = WorkloadSpec(density=3.0, window=45.0, max_jobs=60)
    return [
        Instance(generate_workload(platform, catalog, workload, rng=child), platform)
        for child in spawn_children(seed, count)
    ]


def _solved(problem: MaxStretchProblem):
    return minimize_max_weighted_flow(problem)


class TestCertify:
    def test_accepts_an_online_optimum_by_horizons(self):
        instance = make_uniform_instance([5.0, 3.0, 2.0], [0.0, 1.0, 2.0], cycle_times=[1.0, 2.0])
        problem = problem_from_instance(instance, now=2.0, remaining={0: 3.0, 1: 3.0, 2: 2.0})
        assert certify(problem, _solved(problem)) == "horizons"

    def test_accepts_an_offline_optimum_by_subsets(self):
        instance = make_uniform_instance([5.0, 3.0, 2.0], [0.0, 1.0, 2.0])
        problem = problem_from_instance(instance)
        assert certify(problem, _solved(problem)) == "subsets"

    @pytest.mark.parametrize("online", [{}, {"now": 2.0}], ids=["offline", "online"])
    def test_rejects_an_objective_above_the_optimum(self, online):
        instance = make_uniform_instance([5.0, 3.0, 2.0], [0.0, 1.0, 2.0])
        problem = problem_from_instance(instance, **online)
        solution = _solved(problem)
        # Still feasible (wider windows), but no longer tight.
        loose = replace(solution, objective=solution.objective * (1 + 1e-6))
        with pytest.raises(AssertionError, match="not optimal"):
            certify(problem, loose)

    def test_rejects_missing_work(self):
        instance = make_uniform_instance([5.0, 3.0], [0.0, 1.0])
        problem = problem_from_instance(instance)
        solution = _solved(problem)
        work = solution.shares.work.copy()
        work[0] *= 0.99
        with pytest.raises(AssertionError, match="gets"):
            certify(problem, replace(solution, shares=solution.shares._replace(work=work)))

    def test_rejects_an_overfull_interval(self):
        instance = make_uniform_instance([5.0, 3.0], [0.0, 1.0])
        problem = problem_from_instance(instance)
        solution = _solved(problem)
        slower = replace(
            problem, resources=tuple(replace(r, speed=0.9 * r.speed) for r in problem.resources)
        )
        with pytest.raises(AssertionError, match="holds"):
            certify(slower, replace(solution, problem=slower))

    def test_refuses_problems_no_check_covers(self):
        resources = tuple(Resource(c, speed=1.0, machine_ids=(c,)) for c in range(4))
        jobs = tuple(
            LPJob(j, earliest_start=float(j), remaining_work=1.0, release=float(j),
                  flow_factor=1.0, resources=(j % 4,))
            for j in range(MAX_SUBSET_JOBS + 1)
        )
        problem = MaxStretchProblem(resources=resources, jobs=jobs)
        with pytest.raises(ValueError, match="no optimality check"):
            certify(problem, _solved(problem))


def test_every_online_replan_on_highs_is_certified(monkeypatch):
    """HiGHS answers of a whole ``online`` run, replan by replan, both systems."""
    seen, reoptimized = record_answers(monkeypatch)
    for instance in _online_dense_instances(2006, 2):
        api.simulate(instance, "online", scheduler_options={"solver_backend": "highs"})
    assert len(seen) > 100
    assert len(reoptimized) == len(seen)
    assert {certify(problem, solution) for problem, solution in seen} == {"horizons"}
    for problem, solution in reoptimized:
        certify_system2(problem, solution)


class TestCertifySystem2:
    def _reoptimized(self):
        instance = make_uniform_instance([5.0, 3.0, 2.0], [0.0, 1.0, 2.0], cycle_times=[1.0, 2.0])
        problem = problem_from_instance(instance, now=2.0, remaining={0: 3.0, 1: 3.0, 2: 2.0})
        best = _solved(problem)
        return problem, reoptimize_allocation(problem, best.objective)

    def test_accepts_a_system_2_answer(self):
        certify_system2(*self._reoptimized())

    def test_rejects_work_after_a_deadline(self):
        problem, solution = self._reoptimized()
        # The same allocation read at a tighter objective puts work late.
        tight = replace(solution, objective=0.5 * solution.objective)
        with pytest.raises(AssertionError, match="late"):
            certify_system2(problem, tight)


@pytest.mark.parametrize("variant", ["online", "online-edf", "online-egdf"])
def test_every_golden_slice_replan_is_certified(variant, monkeypatch):
    """Every LP answer behind the golden slices of ``tests/test_engine_golden.py``.

    Each System (2) answer passes ``certify_system2``; each System (1)
    answer passes ``certify`` where a Hall enumeration applies (on-line
    problems on at most three resources, or at most twelve jobs).
    """
    seen, reoptimized = record_answers(monkeypatch)
    instance = wide_instance()
    ids = [job.job_id for job in instance.jobs[: LP_JOBS[variant]]]
    api.simulate(
        instance.restrict_jobs(ids), variant, scheduler_options=scheduler_options(variant)
    )
    assert len(reoptimized) == len(seen) > 0
    assert certify_answers(seen, reoptimized) > 0
