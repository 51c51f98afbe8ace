"""The class LP against the per-job LP it replaced (``replan_oracles``).

Systems (1) and (2) give one column set per job class, on a slack chain,
and split each class's work first-in first-out into per-job allocations.
Both must reach the per-job optima: equal S* and, at that S*, an equal
System (2) objective, within 1e-9 relative -- on random on-line and
off-line problems with several members per class, on both backends, and
on every replan of ``online_dense``-shaped runs.  Every class answer must
also pass ``certify`` against the per-job problem.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.lp.backends import make_backend
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import MaxStretchSolution, minimize_max_weighted_flow
from repro.lp.problem import LPJob, MaxStretchProblem, Resource
from repro.lp.relaxation import reoptimize_allocation

from certify import certify, certify_system2
from helpers import allocations
from replan_oracles import per_job_reoptimize_allocation, per_job_search
from test_certify import _online_dense_instances
from test_lp_backends import BACKENDS, backend_of

REL = 1e-9


def system2_objective(solution: MaxStretchSolution) -> float:
    """``sum over (t, c, j) of work * midpoint(t) / remaining(j)`` of an allocation."""
    total = 0.0
    for (t, _c, j), work in allocations(solution).items():
        start, end = solution.interval_bounds[t]
        total += work * 0.5 * (start + end) / solution.problem.job_by_id(j).remaining_work
    return total


@st.composite
def class_problems(draw, online: bool):
    """Up to 9 requests on 2-3 databanks of 1-3 resources, GriPPS-style.

    A databank fixes a request's eligible resources, flow factor and work,
    so requests of one databank form a class.  On-line problems start every
    job at ``now`` and give some of them a partly done remaining work.
    Works are hundreds of units, as the workload generator draws them: the
    solvers meet rows within an absolute 1e-7, which on works of one unit
    alone moves a System (2) objective by ~1e-8 relative, on either LP.
    """
    n_res = draw(st.integers(1, 3))
    resources = tuple(
        Resource(c, speed=draw(st.sampled_from([0.5, 1.0, 2.0])), machine_ids=(c,))
        for c in range(n_res)
    )
    banks = [
        (
            tuple(sorted(draw(st.sets(st.integers(0, n_res - 1), min_size=1)))),
            draw(st.sampled_from([50.0, 100.0, 150.0, 300.0])),
        )
        for _ in range(draw(st.integers(2, 3)))
    ]
    releases = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=9)))
    now = releases[-1] * 50.0 + draw(st.sampled_from([0.0, 25.0]))
    jobs = []
    for job_id, release in enumerate(r * 50.0 for r in releases):
        eligible, size = banks[draw(st.integers(0, len(banks) - 1))]
        work = size
        if online and draw(st.integers(0, 3)) == 0:
            work = size * draw(st.sampled_from([0.25, 0.6]))
        jobs.append(
            LPJob(
                job_id,
                earliest_start=now if online else release,
                remaining_work=work,
                release=release,
                flow_factor=size / sum(resources[c].speed for c in eligible),
                resources=eligible,
            )
        )
    return MaxStretchProblem(resources=resources, jobs=tuple(jobs))


def assert_same_optima(problem: MaxStretchProblem, backend_name: str) -> None:
    best = minimize_max_weighted_flow(problem, backend=backend_of(backend_name))
    with per_job_search():
        oracle = minimize_max_weighted_flow(problem, backend=backend_of(backend_name))
    assert best.objective == pytest.approx(oracle.objective, rel=REL)
    certify(problem, best)
    system2 = reoptimize_allocation(problem, best.objective, backend=backend_of(backend_name))
    oracle2 = per_job_reoptimize_allocation(
        problem, best.objective, backend=backend_of(backend_name)
    )
    assert system2.objective == oracle2.objective
    assert system2_objective(system2) == pytest.approx(system2_objective(oracle2), rel=REL)
    certify_system2(problem, system2)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_lp_reaches_the_per_job_optima(backend_name, online, data):
    assert_same_optima(data.draw(class_problems(online)), backend_name)


def test_every_online_dense_replan_matches_the_per_job_optima(monkeypatch):
    """The context's answers, replan by replan, against the per-job LP."""
    seen = []
    reoptimize = ReplanContext.reoptimize

    def spy(self, problem, objective):
        solution = reoptimize(self, problem, objective)
        seen.append((problem, objective, solution))
        return solution

    monkeypatch.setattr(ReplanContext, "reoptimize", spy)
    for instance in _online_dense_instances(2006, 2):
        api.simulate(instance, "online", scheduler_options={"solver_backend": "highs"})
    assert len(seen) > 100
    for problem, objective, solution in seen:
        with per_job_search():
            oracle = minimize_max_weighted_flow(problem, backend=make_backend("highs"))
        assert objective == pytest.approx(oracle.objective, rel=REL)
        oracle2 = per_job_reoptimize_allocation(problem, objective, backend=make_backend("highs"))
        assert solution.objective == oracle2.objective
        assert system2_objective(solution) == pytest.approx(system2_objective(oracle2), rel=REL)
