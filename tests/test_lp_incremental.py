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
from repro.core.instance import LiveInstance
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.problem import build_job_table, problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.engine import simulate
from repro.workload.faults import FaultSpec, generate_fault_timeline
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from helpers import assert_same_shares, certify_answers, record_answers
from replan_oracles import FromScratchOnlineLP
from scipy_backend import ScipyBackend
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
        """Bit for bit on the stateless linprog reference."""
        instance = random_restricted_instance(seed, n_jobs=8)
        problem = problem_from_instance(instance)
        cold = minimize_max_weighted_flow(problem, backend=ScipyBackend())
        for warm in (
            cold.objective,            # exact
            cold.objective * 0.5,      # undershoot
            cold.objective * 3.0,      # overshoot
            1e-6,                      # far below the bracket
            1e9,                       # far above the bracket
        ):
            warmed = minimize_max_weighted_flow(
                problem, warm_start=warm, backend=ScipyBackend()
            )
            assert warmed.objective == cold.objective
            assert_same_shares(warmed, cold)

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
    )
    def test_identical_to_from_scratch_oracle(self, seed, variant, policy, with_faults):
        """On scipy the context path equals the from-scratch oracle exactly.

        Every answer of the context run is also certified: System (2) (or
        ``online-nonopt``'s pick) by ``certify_system2``, System (1) by
        ``certify`` where a Hall enumeration applies.
        """
        instance = _gripps_instance(seed, max_jobs=14)
        faults = None
        if with_faults:
            spec = FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0)
            faults = generate_fault_timeline(instance.platform, spec, rng=seed)
        options = dict(variant=variant, policy=policy)
        oracle_sched = FromScratchOnlineLP(solver_backend=ScipyBackend(), **options)
        oracle = simulate(instance, oracle_sched, faults=faults)
        assert oracle_sched._context.n_replans == 0  # no replan went through it
        context_sched = OnlineLPScheduler(solver_backend=ScipyBackend(), **options)
        with pytest.MonkeyPatch.context() as patch:
            seen, reoptimized = record_answers(patch)
            result = simulate(instance, context_sched, faults=faults)
        assert len(reoptimized) == len(seen) == context_sched.n_resolutions
        certify_answers(seen, reoptimized)
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


class TestJobTable:
    def test_admissions_and_completions_keep_instance_order(self):
        """Rows appended at admission and dropped at completion are the
        final instance's table restricted to the live jobs."""
        instance = _gripps_instance(5)
        live = LiveInstance(instance.platform)
        context = ReplanContext(live)
        assert context.job_table.rows == ()
        alive: list[int] = []
        for position, job in enumerate(instance.jobs):
            live.admit(job)
            context.ensure_jobs([job])
            alive.append(job.job_id)
            if position % 3 == 1:  # every other live job completes
                for job_id in alive[::2]:
                    context.drop_job(job_id)
                del alive[::2]
            expected = tuple(
                row for row in build_job_table(instance).rows if row[0] in alive
            )
            assert context.job_table.rows == expected

    def test_completed_jobs_leave_the_table(self, monkeypatch):
        """Every replan's table holds its active jobs and the unreleased
        ones, in instance order; a finished run leaves it empty."""
        instance = _gripps_instance(3, max_jobs=20)
        order = [job.job_id for job in instance.jobs]
        scheduler = OnlineLPScheduler(variant="online")
        seen = []
        build = ReplanContext.build_problem

        def spy(context, now, remaining):
            ids = [row[0] for row in context.job_table.rows]
            unreleased = {job.job_id for job in instance.jobs if job.release > now}
            assert set(ids) == set(remaining) | unreleased
            assert ids == [job_id for job_id in order if job_id in set(ids)]
            seen.append(len(ids))
            return build(context, now, remaining)

        monkeypatch.setattr(ReplanContext, "build_problem", spy)
        simulate(instance, scheduler)
        assert seen and min(seen) < instance.n_jobs
        assert scheduler._context.job_table.rows == ()


def _dense_instance(seed: int, max_jobs: int = 14):
    """A small dense workload: many arrivals, so many warm replans."""
    platform = PlatformSpec(
        n_clusters=2, processors_per_cluster=4, n_databanks=2, availability=0.6
    )
    workload = WorkloadSpec(density=2.0, window=30.0, max_jobs=max_jobs)
    return generate_instance(platform, workload, rng=seed)


def _assert_matches_oracle(instance, **options):
    oracle_sched = FromScratchOnlineLP(solver_backend=ScipyBackend(), **options)
    oracle = simulate(instance, oracle_sched)
    context_sched = OnlineLPScheduler(solver_backend=ScipyBackend(), **options)
    result = simulate(instance, context_sched)
    assert result.completions == oracle.completions
    assert result.schedule.slices == oracle.schedule.slices
    assert context_sched.last_objective == oracle_sched.last_objective
    assert context_sched.n_resolutions == oracle_sched.n_resolutions


class TestOracleRegressionCases:
    """Pinned dense cases of the oracle property above (scipy, no faults)."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("variant", ["online", "online-nonopt"])
    def test_trajectories_and_completions(self, seed, variant):
        _assert_matches_oracle(_dense_instance(seed), variant=variant)

    @pytest.mark.parametrize("variant", ["online-edf", "online-egdf"])
    def test_other_variants(self, variant):
        _assert_matches_oracle(_dense_instance(7), variant=variant)

    @pytest.mark.parametrize("policy", ["batched:2.5", "threshold", "threshold:1.5"])
    def test_deferring_policies(self, policy):
        # Deferred replans fire at times and on active sets the on-arrival
        # cadence never sees, and exercise the shrink-only feasible cap.
        _assert_matches_oracle(_dense_instance(9), variant="online", policy=policy)

    def test_auto_backend_is_deterministic(self):
        # The persistent backend carries a basis across replans; two runs of
        # the same instance still follow the same S* trajectory exactly.
        instance = _dense_instance(5)
        runs = []
        for _ in range(2):
            objectives = []
            scheduler = OnlineLPScheduler(variant="online", solver_backend="auto")
            original = ReplanContext.solve_max_stretch

            def recording(self, problem):
                solution = original(self, problem)
                objectives.append(solution.objective)
                return solution

            ReplanContext.solve_max_stretch = recording
            try:
                result = simulate(instance, scheduler)
            finally:
                ReplanContext.solve_max_stretch = original
            runs.append((objectives, result.completions))
        assert len(runs[0][0]) > 1
        assert runs[0] == runs[1]


def _probes_solved(context: ReplanContext) -> int:
    """Milestone probes the context's searches have solved so far."""
    return context.backend.stats.n_search_probes


class TestReplanContextShortcuts:
    """The carried S* and the exactness of the context's solves."""

    def _context_and_problem(self):
        instance = _dense_instance(13)
        context = ReplanContext(instance, solver_backend=ScipyBackend())
        releases = sorted({job.release for job in instance.jobs})
        now = releases[2]
        remaining = {j.job_id: j.size for j in instance.jobs if j.release <= now}
        return context, now, remaining

    def test_solve_and_reoptimize_match_from_scratch(self):
        context, now, remaining = self._context_and_problem()
        live = context.build_problem(now, dict(remaining))
        solution = context.solve_max_stretch(live)
        fresh = minimize_max_weighted_flow(
            context.build_problem(now, remaining), backend=ScipyBackend()
        )
        assert solution.objective == fresh.objective
        assert_same_shares(solution, fresh)
        sys2 = context.reoptimize(live, solution.objective)
        reference = reoptimize_allocation(
            context.build_problem(now, remaining), fresh.objective, backend=ScipyBackend()
        )
        assert_same_shares(sys2, reference)
        context.close()

    def test_changed_problem_is_solved_afresh(self):
        context, now, remaining = self._context_and_problem()
        context.solve_max_stretch(context.build_problem(now, dict(remaining)))
        changed = dict(remaining)
        first = next(iter(changed))
        changed[first] *= 0.5
        before = _probes_solved(context)
        solution = context.solve_max_stretch(context.build_problem(now, changed))
        assert _probes_solved(context) > before
        fresh = minimize_max_weighted_flow(
            context.build_problem(now, changed), backend=ScipyBackend()
        )
        assert solution.objective == fresh.objective
        assert_same_shares(solution, fresh)
        context.close()

    def test_invalidate_carry_forgets_the_last_solution(self):
        context, now, remaining = self._context_and_problem()
        first = context.solve_max_stretch(context.build_problem(now, dict(remaining)))
        context.invalidate_carry()
        assert context.last_objective is None
        before = _probes_solved(context)
        again = context.solve_max_stretch(context.build_problem(now, dict(remaining)))
        assert _probes_solved(context) > before
        assert again.objective == first.objective
        context.close()

    def test_persistent_backend_reaches_the_same_optimum(self):
        instance = _dense_instance(13)
        now = sorted({job.release for job in instance.jobs})[2]
        remaining = {j.job_id: j.size for j in instance.jobs if j.release <= now}
        objectives = []
        for backend in (ScipyBackend(), "auto"):
            context = ReplanContext(instance, solver_backend=backend)
            solution = context.solve_max_stretch(context.build_problem(now, remaining))
            objectives.append(solution.objective)
            context.close()
        assert objectives[1] == pytest.approx(objectives[0], rel=1e-7)


def test_ensure_jobs_grows_the_table_of_the_final_instance():
    """Service mode: a table grown admission by admission equals the
    table built from the final instance, so replans stay bit-identical."""
    instance = _gripps_instance(5)
    live = LiveInstance(instance.platform)
    context = ReplanContext(live)
    jobs = list(instance.jobs)
    for start in range(0, len(jobs), 3):
        batch = jobs[start:start + 3]
        for job in batch:
            live.admit(job)
        context.ensure_jobs(batch + batch[:1])  # an announced job is never re-added
    assert context.job_table == build_job_table(instance)
