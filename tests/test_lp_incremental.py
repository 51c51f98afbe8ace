"""Tests for the incremental replanning subsystem (:mod:`repro.lp.incremental`).

The contract under test is strong: the warm-started, cache-carrying path
must produce *identical* objectives, allocations and simulated completion
times to rebuilding every LP from scratch (the oracle
:class:`replan_oracles.FromScratchOnlineLP`) -- warm-starting only reorders
the probes of a monotone feasibility search, and the cached constraint
skeletons pin the exact variable order of the historical LP builder.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lp.maxstretch as maxstretch_module
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.problem import problem_from_instance
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.engine import simulate
from repro.workload.faults import FaultSpec, generate_fault_timeline
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from replan_oracles import FromScratchOnlineLP
from test_sched_offline_online import random_restricted_instance


def _gripps_instance(seed: int, *, max_jobs: int = 14, density: float = 1.5):
    platform = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload = WorkloadSpec(density=density, window=30.0, max_jobs=max_jobs)
    return generate_instance(platform, workload, rng=seed)


class _ProbeCounter:
    """Counts System (1) LP probes by wrapping solve_on_objective_range."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = solve_on_objective_range

        def counting(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(maxstretch_module, "solve_on_objective_range", counting)


class TestReplanContextProblems:
    def test_build_problem_identical_to_from_scratch(self):
        for seed in range(3):
            instance = random_restricted_instance(seed, n_jobs=8)
            context = ReplanContext(instance)
            remaining = {j.job_id: j.size * 0.7 for j in instance.jobs}
            now = float(sorted(j.release for j in instance.jobs)[4])
            active = {k: v for k, v in remaining.items()
                      if instance.job(k).release <= now}
            expected = problem_from_instance(instance, now=now, remaining=active)
            assert context.build_problem(now, active) == expected

    def test_resources_cached_once(self):
        instance = random_restricted_instance(1, n_jobs=5)
        context = ReplanContext(instance)
        first = context.resources
        context.build_problem(0.0, {0: 1.0})
        assert context.resources is first


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_objective_and_allocations(self, seed):
        instance = random_restricted_instance(seed, n_jobs=8)
        problem = problem_from_instance(instance)
        cold = minimize_max_weighted_flow(problem)
        for warm in (
            cold.objective,            # exact
            cold.objective * 0.5,      # undershoot
            cold.objective * 3.0,      # overshoot
            1e-6,                      # far below the bracket
            1e9,                       # far above the bracket
        ):
            warmed = minimize_max_weighted_flow(
                problem, warm_start=warm, skeleton_cache={}
            )
            assert warmed.objective == cold.objective
            assert warmed.allocations == cold.allocations

    def test_warm_start_reduces_probe_count(self, monkeypatch):
        instance = _gripps_instance(11, max_jobs=20, density=2.0)
        problem = problem_from_instance(instance)
        counter = _ProbeCounter(monkeypatch)
        cold = minimize_max_weighted_flow(problem)
        cold_probes = counter.count
        counter.count = 0
        minimize_max_weighted_flow(problem, warm_start=cold.objective)
        assert counter.count <= cold_probes
        assert counter.count <= 3  # bracket probe + floor confirmation


class TestIncrementalSchedulerEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variant=st.sampled_from(["online", "online-edf", "online-egdf", "online-nonopt"]),
        policy=st.sampled_from(["on-arrival", "batched:2", "threshold:1.2"]),
        with_faults=st.booleans(),
        speculate=st.booleans(),
    )
    def test_identical_to_from_scratch_oracle(
        self, seed, variant, policy, with_faults, speculate
    ):
        """On scipy the context path equals the from-scratch oracle exactly."""
        instance = _gripps_instance(seed, max_jobs=14)
        faults = None
        if with_faults:
            spec = FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0)
            faults = generate_fault_timeline(instance.platform, spec, rng=seed)
        options = dict(
            variant=variant, policy=policy, solver_backend="scipy", speculate=speculate
        )
        oracle_sched = FromScratchOnlineLP(**options)
        oracle = simulate(instance, oracle_sched, faults=faults)
        assert oracle_sched._context.n_replans == 0  # no replan went through it
        context_sched = OnlineLPScheduler(**options)
        result = simulate(instance, context_sched, faults=faults)
        assert result.completions == oracle.completions
        assert result.schedule.slices == oracle.schedule.slices
        assert context_sched.last_objective == oracle_sched.last_objective
        assert context_sched.n_resolutions == oracle_sched.n_resolutions

    def test_incremental_uses_fewer_probes(self, monkeypatch):
        instance = _gripps_instance(11, max_jobs=25, density=2.0)
        counter = _ProbeCounter(monkeypatch)
        simulate(instance, FromScratchOnlineLP(variant="online"))
        scratch_probes = counter.count
        counter.count = 0
        simulate(instance, OnlineLPScheduler(variant="online"))
        assert counter.count <= scratch_probes

    def test_context_records_replans(self):
        instance = random_restricted_instance(2, n_jobs=6)
        scheduler = OnlineLPScheduler(variant="online")
        simulate(instance, scheduler)
        assert scheduler._context is not None
        assert scheduler._context.n_replans == scheduler.n_resolutions
        assert scheduler._context.last_objective == scheduler.last_objective


class TestSkeletonCache:
    def test_cache_populated_and_hit(self):
        instance = random_restricted_instance(0, n_jobs=6)
        problem = problem_from_instance(instance)
        cache: dict = {}
        first = minimize_max_weighted_flow(problem, skeleton_cache=cache)
        assert cache  # skeletons were stored
        size = len(cache)
        again = minimize_max_weighted_flow(
            problem, warm_start=first.objective, skeleton_cache=cache
        )
        assert again.objective == first.objective
        assert len(cache) == size  # same structures, no new entries

    def test_context_cache_is_bounded(self):
        instance = _gripps_instance(3, max_jobs=20)
        scheduler = OnlineLPScheduler(variant="online")
        simulate(instance, scheduler)
        from repro.lp.incremental import _MAX_SKELETONS

        assert len(scheduler._context._skeletons) <= _MAX_SKELETONS
