"""The installed LP answer is a function of the problem, not of the solver.

Systems (1) and (2) are degenerate: System (2)'s costs ignore the resource,
so every split of a class's interval work across its eligible resources is
optimal, and System (1) is indifferent among all of its optima.  Two
mechanisms pick one answer: ``maxstretch._split_across_resources`` derives
the split from the per-(interval, class) totals and the capacities alone,
and ``reoptimize_allocation(..., generic=True)`` -- the off-line schedule's
tie-break -- picks one optimum of System (1) with a hashed generic cost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import api
from repro.lp.backends import make_backend
from repro.lp.intervals import build_interval_structure
from repro.lp.maxstretch import (
    _split_across_resources,
    build_skeleton,
    minimize_max_weighted_flow,
)
from repro.lp.problem import LPJob, MaxStretchProblem, Resource
from repro.lp.relaxation import reoptimize_allocation
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from certify import certify_system2
from helpers import allocations
from test_class_lp import class_problems
from test_lp_backends import backend_of


def one_interval_problem(eligible: list[tuple[int, ...]], works: list[float], n_res: int):
    """Jobs released at 0 with flow factor 1: one interval ``[0, F]``, one class each."""
    resources = tuple(Resource(c, speed=1.0, machine_ids=(c,)) for c in range(n_res))
    jobs = tuple(
        LPJob(j, earliest_start=0.0, remaining_work=w, release=0.0, flow_factor=1.0, resources=r)
        for j, (r, w) in enumerate(zip(eligible, works))
    )
    problem = MaxStretchProblem(resources=resources, jobs=jobs)
    skeleton = build_skeleton(problem, build_interval_structure(problem, 1.0))
    assert skeleton is not None and skeleton.key_t.max() == 0
    return problem, skeleton


def split(problem, skeleton, work: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Run the split on ``(class, resource) -> work`` at ``F = 1`` (capacities 1)."""
    column = {
        (k, c): i for i, (k, c) in enumerate(zip(skeleton.key_k.tolist(), skeleton.key_c.tolist()))
    }
    values = np.zeros(skeleton.n_variables)
    for key, amount in work.items():
        values[column[key]] = amount
    out = _split_across_resources(problem, skeleton, 0, values, 1.0)
    return {key: float(out[i]) for key, i in column.items() if out[i] > 0.0}


def test_the_split_ignores_how_the_solver_split():
    # Classes in job order: A on {0, 1}, C on {0, 1}, B on {0} only.
    problem, skeleton = one_interval_problem([(0, 1), (0, 1), (0,)], [0.5, 1.0, 0.5], 2)
    one = split(problem, skeleton, {(0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5, (2, 0): 0.5})
    other = split(problem, skeleton, {(0, 0): 0.5, (1, 1): 1.0, (2, 0): 0.5})
    # B keeps resource 0; A then takes what is left there; C gets resource 1.
    assert one == other == {(0, 0): 0.5, (1, 1): 1.0, (2, 0): 0.5}


def test_a_full_class_moves_earlier_work_along_an_augmenting_path():
    # A on {0, 1}, E on {0, 2}, F on {2} only.  A fills resource 0 first, so
    # E finds both its resources full until A's work moves to resource 1.
    problem, skeleton = one_interval_problem([(0, 1), (0, 2), (2,)], [1.0, 1.0, 1.0], 3)
    got = split(problem, skeleton, {(0, 1): 1.0, (1, 0): 1.0, (2, 2): 1.0})
    assert got == {(0, 1): 1.0, (1, 0): 1.0, (2, 2): 1.0}


def test_the_split_keeps_totals_and_capacities_of_a_real_optimum():
    problem, _ = one_interval_problem([(0, 1), (0, 1), (0,)], [0.5, 1.0, 0.5], 2)
    best = minimize_max_weighted_flow(problem, backend=make_backend())
    answer = reoptimize_allocation(problem, best.objective, backend=make_backend())
    certify_system2(problem, answer)
    # Capacities are 1 + 1e-7 at the inflated S* = 1: C takes that 1e-7 on
    # resource 0, the rest where the fixed rule puts it.
    big = {key: work for key, work in allocations(answer).items() if work > 1e-6}
    assert big == pytest.approx({(0, 0, 0): 0.5, (0, 1, 1): 1.0, (0, 0, 2): 0.5}, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(problem=class_problems(online=False))
def test_the_offline_tie_break_is_the_same_on_both_backends(problem):
    answers = []
    for name in ("scipy", "highs"):
        backend = backend_of(name)
        best = minimize_max_weighted_flow(problem, backend=backend)
        answer = reoptimize_allocation(problem, best.objective, backend=backend, generic=True)
        certify_system2(problem, answer)
        answers.append(answer)
    scipy_answer, highs_answer = answers
    assert scipy_answer.objective == pytest.approx(highs_answer.objective, rel=1e-9)
    scipy_shares, highs_shares = allocations(scipy_answer), allocations(highs_answer)
    for key in set(scipy_shares) | set(highs_shares):
        a = scipy_shares.get(key, 0.0)
        b = highs_shares.get(key, 0.0)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6), key


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("key", ["offline", "online-nonopt"])
def test_the_installed_schedule_is_the_same_on_both_backends(key, seed):
    """Whole schedules, not only LP answers, are backend-free where a System
    (1) optimum is installed: ``offline`` once, ``online-nonopt`` at every
    release."""
    platform = PlatformSpec(n_clusters=3, processors_per_cluster=5, n_databanks=3, availability=0.6)
    workload = WorkloadSpec(density=2.0, window=30.0, max_jobs=20)
    instance = generate_instance(platform, workload, rng=seed)
    rows = [
        api.simulate(
            instance, key, scheduler_options={"solver_backend": backend_of(name)}
        ).metrics_row()
        for name in ("scipy", "highs")
    ]
    for metric in ("max_stretch", "sum_stretch", "max_flow", "sum_flow", "makespan"):
        assert rows[0][metric] == pytest.approx(rows[1][metric], rel=1e-9), metric
