"""Speculative replan pre-solves (:mod:`repro.lp.speculate`): determinism.

The speculation contract is *bit-identity by construction*: a hit re-binds
the exact optimum of the content-identical LP the live replan would solve,
a miss is discarded untouched.  These tests enforce the contract end to end
-- identical S* trajectories and completions across seeds, backends, replan
policies and scheduler variants, a forced-misprediction case, memo
mechanics on the :class:`~repro.lp.incremental.ReplanContext`, and campaign
``result_set()`` bit-identity at 1/2/4 workers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_campaign
from repro.lp import speculate
from repro.lp.backends import make_backend, record_lp_probes
from repro.lp.bank import problem_signature
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.registry import make_scheduler
from repro.simulation import engine
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance


def _dense_instance(seed: int, max_jobs: int = 14):
    """A small dense workload with enough arrivals to exercise speculation."""
    platform_spec = PlatformSpec(
        n_clusters=2, processors_per_cluster=4, n_databanks=2, availability=0.6
    )
    workload_spec = WorkloadSpec(density=2.0, window=30.0, max_jobs=max_jobs)
    return generate_instance(platform_spec, workload_spec, rng=seed)


def _run(instance, *, speculate_on, variant="online", backend=None, policy="on-arrival"):
    """One simulation; returns (result, per-replan S* trajectory, probe stats)."""
    objectives = []
    original = ReplanContext.solve_max_stretch

    def recording(self, problem):
        solution = original(self, problem)
        objectives.append(solution.objective)
        return solution

    ReplanContext.solve_max_stretch = recording
    try:
        scheduler = make_scheduler(
            variant, speculate=speculate_on, solver_backend=backend, policy=policy
        )
        with record_lp_probes() as stats:
            result = simulate(instance, scheduler)
    finally:
        ReplanContext.solve_max_stretch = original
    return result, objectives, stats


def test_completion_tolerance_mirrors_engine():
    # The event-horizon projection replicates the engine's completion drop;
    # the duplicated constant must never drift.
    assert speculate._COMPLETION_TOL == engine._COMPLETION_TOL


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("variant", ["online", "online-nonopt"])
    def test_trajectories_and_completions(self, seed, variant):
        instance = _dense_instance(seed)
        off = _run(instance, speculate_on=False, variant=variant)
        on = _run(instance, speculate_on=True, variant=variant)
        assert on[1] == off[1]  # exact S* trajectory, replan by replan
        assert on[0].completions == off[0].completions
        # Under the on-arrival default every replan after the first is
        # predicted exactly (the idle-gap projection is engine-exact).
        assert on[2].n_spec_misses == 0
        if len(on[1]) > 1:
            assert on[2].n_spec_hits > 0
        assert off[2].n_spec_hits == off[2].n_spec_misses == 0

    @pytest.mark.parametrize("variant", ["online-edf", "online-egdf"])
    def test_other_variants(self, variant):
        instance = _dense_instance(7)
        off = _run(instance, speculate_on=False, variant=variant)
        on = _run(instance, speculate_on=True, variant=variant)
        assert on[1] == off[1]
        assert on[0].completions == off[0].completions

    def test_auto_backend(self):
        # With the persistent backend speculation is a declared no-op (a
        # mispredicted solve would replace the series basis); with the
        # scipy fallback it behaves as usual.  Either way: bit-identical.
        instance = _dense_instance(5)
        off = _run(instance, speculate_on=False, backend="auto")
        on = _run(instance, speculate_on=True, backend="auto")
        assert on[1] == off[1]
        assert on[0].completions == off[0].completions
        if make_backend("auto").persistent:
            assert on[2].n_spec_hits == on[2].n_spec_misses == 0

    @pytest.mark.parametrize("policy", ["batched:2.5", "threshold", "threshold:1.5"])
    def test_deferring_policies(self, policy):
        # Deferred replans fire at times/active-sets the projection did not
        # predict: speculation records misses, discards them, and results
        # stay bit-identical.
        instance = _dense_instance(9)
        off = _run(instance, speculate_on=False, policy=policy)
        on = _run(instance, speculate_on=True, policy=policy)
        assert on[1] == off[1]
        assert on[0].completions == off[0].completions


class TestMemoMechanics:
    def _context_and_problems(self):
        instance = _dense_instance(13)
        context = ReplanContext(instance)
        releases = sorted({job.release for job in instance.jobs})
        now = releases[2]
        active = [j for j in instance.jobs if j.release <= now]
        remaining = {j.job_id: j.size for j in active}
        problem = context.build_problem(now, remaining)
        return instance, context, now, remaining, problem

    def test_hit_rebinds_exact_optimum(self):
        instance, context, now, remaining, problem = self._context_and_problems()
        with record_lp_probes() as stats:
            context.speculate(problem)
            assert context._spec is not None
            live = context.build_problem(now, dict(remaining))
            solution = context.solve_max_stretch(live)
        assert stats.n_spec_hits == 1 and stats.n_spec_misses == 0
        assert context._spec is None  # slot consumed
        fresh = minimize_max_weighted_flow(context.build_problem(now, remaining))
        assert solution.objective == fresh.objective
        assert solution.allocations == fresh.allocations
        # The staged System (2) is consumed by the following reoptimize and
        # matches the from-scratch re-optimization exactly.
        sys2 = context.reoptimize(live, solution.objective)
        reference = reoptimize_allocation(
            context.build_problem(now, remaining), fresh.objective
        )
        assert sys2.allocations == reference.allocations
        assert context._spec_sys2 is None
        context.close()

    def test_forced_misprediction_is_discarded(self):
        instance, context, now, remaining, problem = self._context_and_problems()
        # Speculate on a *wrong* prediction: perturb one job's remaining work.
        wrong = dict(remaining)
        first = next(iter(wrong))
        wrong[first] *= 0.5
        with record_lp_probes() as stats:
            context.speculate(context.build_problem(now, wrong))
            live = context.build_problem(now, remaining)
            solution = context.solve_max_stretch(live)
        assert stats.n_spec_misses == 1 and stats.n_spec_hits == 0
        assert context._spec is None  # slot emptied on miss too
        assert context._spec_sys2 is None  # the wrong System (2) never leaks
        fresh = minimize_max_weighted_flow(context.build_problem(now, remaining))
        assert solution.objective == fresh.objective
        assert solution.allocations == fresh.allocations
        context.close()

    def test_persistent_backend_refuses_to_speculate(self):
        backend = make_backend("auto")
        if not backend.persistent:
            pytest.skip("no persistent backend available")
        instance = _dense_instance(13)
        context = ReplanContext(instance, solver_backend=backend)
        active = [j for j in instance.jobs if j.release <= 5.0]
        remaining = {j.job_id: j.size for j in active}
        context.speculate(context.build_problem(5.0, remaining))
        assert context._spec is None
        context.close()

    def test_duplicate_and_reused_signatures_skip_the_solve(self):
        instance, context, now, remaining, problem = self._context_and_problems()
        context.speculate(problem)
        memo = context._spec
        assert memo is not None and memo[0] == problem_signature(problem)
        # Same signature again: the existing memo is kept, nothing re-solves.
        before = context.n_probes_solved
        context.speculate(context.build_problem(now, dict(remaining)))
        assert context._spec is memo
        assert context.n_probes_solved == before
        # After the live replan consumed it, a speculation for the problem
        # just solved is pointless (the context reuses its last solution).
        live = context.build_problem(now, dict(remaining))
        context.solve_max_stretch(live)
        context.speculate(context.build_problem(now, dict(remaining)))
        assert context._spec is None
        context.close()


class TestCampaignBitIdentity:
    def test_result_sets_identical_at_1_2_4_workers(self):
        config = ExperimentConfig(
            name="spec-check",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=1.5,
            processors_per_cluster=3,
            window=20.0,
            max_jobs=8,
            solver_backend="scipy",
        )
        reference = None
        for speculation in (False, True):
            for n_workers in (1, 2, 4):
                results = run_campaign(
                    [replace(config, speculation=speculation)],
                    scheduler_keys=("online",),
                    replicates=2,
                    base_seed=17,
                    n_workers=n_workers,
                )
                record_set = results.result_set()
                if reference is None:
                    reference = record_set
                assert record_set == reference, (
                    f"speculation={speculation} n_workers={n_workers} diverged"
                )
