"""Ablation -- cost of the System (1) / System (2) linear programs.

The off-line algorithm's complexity is polynomial but the constant matters in
practice (it is the reason the paper's Bender98 re-implementation was
restricted to 3-cluster platforms).  This ablation measures the cost of one
optimal max-stretch resolution and one System (2) re-optimization as a
function of the number of jobs and of capability classes, which documents the
scaled-down defaults used by the table benchmarks.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.lp.maxstretch as maxstretch
from repro.lp.aggregation import share_totals
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from _bench_utils import update_json_artifact

# The probe-elimination gate below pins the gallop milestone search, which is
# no longer in the package: it is the test oracle in tests/replan_oracles.py.
# The warm-start bench runs on the tests' one-shot linprog reference.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from replan_oracles import search_gallop  # noqa: E402
from scipy_backend import ScipyBackend  # noqa: E402


def _instance(n_clusters: int, n_jobs: int, seed: int = 11):
    platform_spec = PlatformSpec(
        n_clusters=n_clusters, processors_per_cluster=10,
        n_databanks=max(2, n_clusters // 2), availability=0.7,
    )
    workload_spec = WorkloadSpec(density=1.5, window=60.0, max_jobs=n_jobs)
    return generate_instance(platform_spec, workload_spec, rng=seed)


def bench_system1_small_platform(benchmark):
    instance = _instance(n_clusters=3, n_jobs=15)
    problem = problem_from_instance(instance)
    solution = benchmark.pedantic(
        lambda: minimize_max_weighted_flow(problem), rounds=1, iterations=1
    )
    assert solution.objective >= 1.0 - 1e-6


def bench_system1_large_platform(benchmark):
    instance = _instance(n_clusters=10, n_jobs=15)
    problem = problem_from_instance(instance)
    solution = benchmark.pedantic(
        lambda: minimize_max_weighted_flow(problem), rounds=1, iterations=1
    )
    assert solution.objective >= 1.0 - 1e-6


def bench_system1_more_jobs(benchmark):
    instance = _instance(n_clusters=3, n_jobs=30)
    problem = problem_from_instance(instance)
    solution = benchmark.pedantic(
        lambda: minimize_max_weighted_flow(problem), rounds=1, iterations=1
    )
    assert solution.objective >= 1.0 - 1e-6


def bench_system2_reoptimization(benchmark):
    instance = _instance(n_clusters=3, n_jobs=20)
    problem = problem_from_instance(instance)
    best = minimize_max_weighted_flow(problem)

    reopt = benchmark.pedantic(
        lambda: reoptimize_allocation(problem, best.objective), rounds=1, iterations=1
    )
    per_job = share_totals(reopt).work.sum(axis=1)
    assert per_job == pytest.approx(problem.remaining_works(), rel=1e-5)


def bench_system1_warm_start(benchmark):
    """Warm-started milestone search vs a cold search on the same problem.

    The warm start (previous S*, as carried by the on-line ReplanContext)
    typically needs 2-3 LP probes instead of the cold gallop + binary
    search; results are identical because feasibility is monotone in the
    objective.
    """
    instance = _instance(n_clusters=3, n_jobs=30)
    problem = problem_from_instance(instance)
    # Bit for bit on the stateless linprog reference: warm HiGHS bases may
    # land on another vertex of a degenerate optimum.
    cold = minimize_max_weighted_flow(problem, backend=ScipyBackend())

    warm = benchmark.pedantic(
        lambda: minimize_max_weighted_flow(
            problem, warm_start=cold.objective, backend=ScipyBackend()
        ),
        rounds=3,
        iterations=1,
    )
    assert warm.objective == cold.objective
    assert all(np.array_equal(a, b) for a, b in zip(warm.shares, cold.shares))


def _record_replan_problems(instance):
    """The System (1) problems of one online run (the replay inputs).

    Replaying a recorded problem stream -- instead of comparing two live
    simulations -- keeps the probe-count comparison apples to apples: live
    runs diverge after the first System (2) degenerate alternate optimum
    (different executed allocations change every later problem), while the
    replay solves the *same* problems under both search strategies.
    """
    problems = []
    original = ReplanContext.solve_max_stretch

    def recording(self, problem):
        problems.append(problem)
        return original(self, problem)

    ReplanContext.solve_max_stretch = recording
    try:
        simulate(instance, make_scheduler("online"))
    finally:
        ReplanContext.solve_max_stretch = original
    return problems


def _replay_search(instance, problems):
    """Solve the recorded problems through a warm-carried context; per-replan stats."""
    context = ReplanContext(instance)
    stats = context.backend.stats
    objectives = []
    try:
        for problem in problems:
            objectives.append(context.solve_max_stretch(problem).objective)
    finally:
        context.close()
    return objectives, stats


def bench_certificate_probe_elimination(benchmark, monkeypatch):
    """Certificate-guided search vs the legacy gallop: LP probes per replan.

    The acceptance gate of the probe-elimination subsystem: on the dense
    60-job workload (the regime where the LP solve is the scheduling floor),
    the certificate-guided parametric search must cut the *median* number of
    LP probes actually solved per replan by >= 30% on the persistent HiGHS
    backend -- dual-ray bounds jump the upward gallop past refuted
    milestones, and the interior-optimum re-check of the winning probe
    eliminates the downward confirmation solves -- while returning
    bit-identical S* milestone outcomes (within solver tolerance) on every
    replan.  Both strategies replay the same recorded problem stream, so the
    comparison is exact; the per-replan histogram lands in ``BENCH_lp.json``
    (uploaded by CI).
    """
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=3.0, window=45.0, max_jobs=60)
    instance = generate_instance(platform_spec, workload_spec, rng=11)
    assert instance.n_jobs >= 50
    problems = _record_replan_problems(instance)
    assert len(problems) >= 30, f"only {len(problems)} replans recorded"

    def run():
        with monkeypatch.context() as patch:
            patch.setattr(maxstretch, "_search_certificate", search_gallop)
            gallop = _replay_search(instance, problems)
        certificate = _replay_search(instance, problems)
        return gallop, certificate

    (g_obj, g_stats), (c_obj, c_stats) = benchmark.pedantic(run, rounds=1, iterations=1)

    # Hard gate 1: bit-identical S* milestone outcomes (within solver
    # tolerance) on every replan.  1e-8 is the documented HiGHS comparison
    # tolerance: the two strategies reach the winning LP through different
    # warm bases, which may land on different (equally optimal) degenerate
    # vertices; observed replay agreement is ~1e-15.
    assert len(g_obj) == len(c_obj) == len(problems)
    for replan, (a, b) in enumerate(zip(g_obj, c_obj)):
        assert b == pytest.approx(a, rel=1e-8), (
            f"S* diverged at replan {replan}: gallop={a!r} certificate={b!r}"
        )

    g_solved = [solved for solved, _skipped in g_stats.searches]
    c_solved = [solved for solved, _skipped in c_stats.searches]
    assert len(g_solved) == len(c_solved) == len(problems)
    g_median = statistics.median(g_solved)
    c_median = statistics.median(c_solved)
    reduction = 1.0 - c_median / g_median
    update_json_artifact(
        "BENCH_lp.json",
        "probe_elimination",
        {
            "benchmark": "bench_certificate_probe_elimination",
            "backend": "highs",
            "n_jobs": instance.n_jobs,
            "n_replans": len(problems),
            "gallop": {
                "total_solved": sum(g_solved),
                "median_solved_per_replan": g_median,
                "histogram": g_stats.histogram(),
            },
            "certificate": {
                "total_solved": sum(c_solved),
                "median_solved_per_replan": c_median,
                "histogram": c_stats.histogram(),
            },
            "median_probe_reduction": reduction,
        },
    )

    # Hard gate 2: >= 30% median reduction in LP probes actually solved per
    # replan at 60 jobs on the highs backend.
    assert reduction >= 0.30, (
        f"certificate search only cut the median probes/replan by "
        f"{reduction:.0%} ({g_median} -> {c_median}; target >= 30%)"
    )


def bench_milestone_enumeration(benchmark):
    from repro.lp.milestones import enumerate_milestones

    instance = _instance(n_clusters=3, n_jobs=40)
    problem = problem_from_instance(instance)
    milestones = benchmark(enumerate_milestones, problem)
    n = len(problem.jobs)
    assert 0 < len(milestones) <= n * (n - 1)
    assert list(milestones) == sorted(milestones)
