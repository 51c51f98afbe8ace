"""System (2) on the winning System (1) model (persistent HiGHS).

After a milestone search the winning probe's ``Highs`` object is handed down
to the System (2) re-optimization, which fixes ``F``, swaps the costs and
re-runs primal simplex on it instead of building a second model.  These
tests pin that the live re-solve is an optimum of the same System (2) a
rebuilt program solves, that every documented fallback rebuilds, and that
no ``Highs`` object outlives its replan.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lp.incremental as incremental_module
import repro.lp.relaxation as relaxation_module
from repro.core.errors import SolverError
from repro.lp.backends import LPProbeStats, make_backend
from repro.lp.backends.highs import HighsPersistentBackend
from repro.lp.bank import SolverStateBank
from repro.lp.incremental import ReplanContext
from repro.lp.intervals import build_interval_structure
from repro.lp.maxstretch import (
    MilestoneSearchReport,
    build_skeleton,
    minimize_max_weighted_flow,
)
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.offline import OfflineScheduler
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.engine import simulate
from repro.workload.faults import FaultSpec, generate_fault_timeline

from helpers import allocations, certify_answers, record_answers, share_dict, work_for_job
from scipy_backend import ScipyBackend
from test_lp_backends import _small_instance, count_degraded_replans


def _sys2_objective(solution) -> float:
    """System (2)'s objective, re-evaluated from an allocation."""
    works = {job.job_id: job.remaining_work for job in solution.problem.jobs}
    bounds = solution.interval_bounds
    return sum(
        w * 0.5 * (bounds[t][0] + bounds[t][1]) / works[j]
        for (t, _c, j), w in allocations(solution).items()
    )


def _assert_feasible(solution, rel: float = 1e-9) -> None:
    """Completeness and the capacities at the solution's target, within ``rel``."""
    problem = solution.problem
    for job in problem.jobs:
        assert work_for_job(solution, job.job_id) == pytest.approx(
            job.remaining_work, rel=rel, abs=rel
        )
    speeds = problem.resource_speeds()
    used: dict[tuple[int, int], float] = {}
    for (t, c, _j), w in allocations(solution).items():
        used[t, c] = used.get((t, c), 0.0) + w
    for (t, c), work in used.items():
        start, end = solution.interval_bounds[t]
        assert work <= speeds[c] * max(0.0, end - start) * (1 + rel) + rel


class _ExactHighs(HighsPersistentBackend):
    """HiGHS at tolerances well below the 1e-9 the property checks.

    At the default 1e-7 dual feasibility tolerance a rebuilt System (2) may
    itself stop up to ~2e-7 (relative) short of its optimum, so it could
    not referee a 1e-9 comparison.
    """

    def _new_solver(self):
        highs = super()._new_solver()
        highs.setOptionValue("primal_feasibility_tolerance", 1e-10)
        highs.setOptionValue("dual_feasibility_tolerance", 1e-10)
        return highs


def _fresh_stats(backend) -> LPProbeStats:
    """Start ``backend`` on new counters (keeping its solver state)."""
    backend.stats = LPProbeStats()
    return backend.stats


def _same_structure(a, b) -> bool:
    """Equal boundaries and job windows (what a skeleton is built from)."""
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("bnd_const", "bnd_coef", "start_index", "deadline_index")
    )


def _sys2_solves(stats) -> int:
    """LP solves of a run that were not milestone-search probes."""
    return stats.n_probes - stats.n_search_probes


class TestLiveEqualsRebuild:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variant=st.sampled_from(["online", "online-edf", "online-egdf"]),
        policy=st.sampled_from(["on-arrival", "batched:2"]),
    )
    def test_every_replan_matches_a_rebuilt_system_2(self, seed, variant, policy):
        """Live or not (some runs never replan), System (2) is the exact optimum.

        Every answer of the run is also certified: System (2) by
        ``certify_system2``, System (1) by ``certify`` where a Hall
        enumeration applies.
        """
        real = incremental_module.reoptimize_allocation

        def checked(problem, objective, **kwargs):
            solution = real(problem, objective, **kwargs)
            rebuilt = real(problem, objective, backend=_ExactHighs())
            assert solution.objective == rebuilt.objective  # same inflation step
            assert _sys2_objective(solution) == pytest.approx(
                _sys2_objective(rebuilt), rel=1e-9
            )
            _assert_feasible(solution)
            return solution

        instance = _small_instance(seed, max_jobs=14)
        scheduler = OnlineLPScheduler(variant, policy=policy, solver_backend="highs")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incremental_module, "reoptimize_allocation", checked)
            seen, reoptimized = record_answers(patch)
            simulate(instance, scheduler)
        assert len(reoptimized) == len(seen)
        certify_answers(seen, reoptimized)

    def test_online_replans_ride_the_live_model(self):
        shares = {}
        for name, backend in (("highs", "highs"), ("scipy", ScipyBackend())):
            instance = _small_instance(2006, max_jobs=60)
            scheduler = OnlineLPScheduler("online", solver_backend=backend)
            stats = simulate(instance, scheduler).lp_probes
            assert stats.histogram()["live_reoptimizations"] == stats.n_live_reoptimizations
            shares[name] = stats.n_live_reoptimizations / _sys2_solves(stats)
        assert shares["highs"] >= 0.95
        assert shares["scipy"] == 0.0

    def test_offline_sum_rides_the_live_model(self):
        instance = _small_instance(7, max_jobs=20, density=2.0)
        offline = OfflineScheduler(reoptimize_sum=True, solver_backend="highs")
        stats = simulate(instance, offline).lp_probes
        assert stats.n_live_reoptimizations == 1


def _installed(reoptimized: list) -> list:
    """System (2) answers, bit for bit: objective and every share's work."""
    return [
        (
            solution.objective.hex(),
            [(key, work.hex()) for key, work in share_dict(solution.shares).items()],
        )
        for _problem, solution in reoptimized
    ]


class TestLiveSkeleton:
    @pytest.mark.parametrize(
        ("variant", "with_faults"), [("online", False), ("online-nonopt", False), ("online", True)]
    )
    def test_system_2_takes_the_skeleton_a_rebuild_would_match(self, variant, with_faults):
        """Inside the live probe's open ``F`` range System (2) builds no structure.

        The structure it skips rebuilding equals the live probe's, and a run
        that always rebuilds the structure (taking the probe's skeleton only
        when they are equal) installs the same System (2) answers, bit for
        bit.
        """
        taken = relaxation_module._fixed_objective_skeleton

        def rebuilt(problem, objective, live):
            structure = build_interval_structure(problem, objective)
            if live is not None and _same_structure(structure, live.skeleton.structure):
                return live.skeleton
            return build_skeleton(problem, structure)

        skipped = []

        def checked(problem, objective, live):
            skeleton = taken(problem, objective, live)
            if live is not None and live.f_low < objective < live.f_high:
                assert rebuilt(problem, objective, live) is skeleton
                skipped.append(objective)
            return skeleton

        instance = _small_instance(2006, max_jobs=60, density=2.0)
        faults = None
        if with_faults:
            faults = generate_fault_timeline(
                instance.platform, FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0), rng=1
            )
        runs = {}
        for name, skeleton_of in (("checked", checked), ("rebuilt", rebuilt)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(relaxation_module, "_fixed_objective_skeleton", skeleton_of)
                _seen, reoptimized = record_answers(patch)
                scheduler = OnlineLPScheduler(variant, solver_backend="highs")
                result = simulate(instance, scheduler, faults=faults)
            completions = {job: time.hex() for job, time in result.completions.items()}
            runs[name] = (completions, _installed(reoptimized))
        assert len(skipped) >= 0.9 * len(runs["checked"][1]) > 0
        assert runs["checked"] == runs["rebuilt"]


class TestFallbacks:
    def test_target_above_the_probe_bracket_rebuilds(self):
        problem = problem_from_instance(_small_instance(7, max_jobs=20, density=2.0))
        backend = make_backend("highs")
        report = MilestoneSearchReport()
        best = minimize_max_weighted_flow(problem, backend=backend, report=report)
        live = report.live
        assert live is not None and live.f_low <= best.objective < live.f_high
        stats = _fresh_stats(backend)
        above = reoptimize_allocation(problem, live.f_high, backend=backend, live=live)
        assert (stats.n_probes, stats.n_live_reoptimizations) == (1, 0)
        _assert_feasible(above)
        # The same handle still serves a target inside its bracket.
        stats = _fresh_stats(backend)
        inside = reoptimize_allocation(problem, best.objective, backend=backend, live=live)
        assert (stats.n_probes, stats.n_live_reoptimizations) == (1, 1)
        _assert_feasible(inside)

    def test_closed_bounds_take_the_live_skeleton_only_on_an_equal_structure(self):
        """At the live probe's closed ``F`` bounds the structure is rebuilt;
        the probe's skeleton (and model) serve only when it is the probe's."""
        outcomes = set()
        for seed in range(12):
            problem = problem_from_instance(_small_instance(seed, max_jobs=20, density=2.0))
            backend = make_backend("highs")
            report = MilestoneSearchReport()
            minimize_max_weighted_flow(problem, backend=backend, report=report)
            live = report.live
            for objective in (live.f_low, live.f_high):
                structure = build_interval_structure(problem, objective)
                same = _same_structure(structure, live.skeleton.structure)
                skeleton = relaxation_module._fixed_objective_skeleton(problem, objective, live)
                assert (skeleton is live.skeleton) == same
                assert _same_structure(skeleton.structure, structure)
                outcomes.add(same)
            # The top bound is feasible: solved on the live model exactly when
            # the structure there is the probe's.
            stats = _fresh_stats(backend)
            top = relaxation_module._solve_fixed_objective(
                problem, live.f_high, backend, live, False
            )
            assert top is not None
            same = _same_structure(
                build_interval_structure(problem, live.f_high), live.skeleton.structure
            )
            assert stats.n_live_reoptimizations == int(same)
        assert outcomes == {False, True}

    def test_system_1_reused_from_the_bank_rebuilds(self):
        instance = _small_instance(5, max_jobs=16)
        remaining = {job.job_id: job.size for job in instance.jobs}
        bank = SolverStateBank()
        publisher = ReplanContext(instance, solver_backend="highs", state_bank=bank)
        problem = publisher.build_problem(0.0, remaining)
        publisher.reoptimize(problem, publisher.solve_max_stretch(problem).objective)
        publisher.publish()
        assert publisher._live is None

        consumer = ReplanContext(instance, solver_backend="highs", state_bank=bank)
        consumer._bucket.sys2.clear()  # make System (2) solve
        problem = consumer.build_problem(0.0, remaining)
        stats = consumer.backend.stats
        best = consumer.solve_max_stretch(problem)
        assert consumer._live is None
        solution = consumer.reoptimize(problem, best.objective)
        assert stats.n_primal_reuses == 1
        assert (stats.n_probes, stats.n_live_reoptimizations) == (1, 0)
        _assert_feasible(solution)

    def test_failed_live_resolve_falls_back_to_a_downgraded_rebuild(self, monkeypatch):
        real_build = HighsPersistentBackend._build_and_run
        live_attempts = 0

        def broken_resolve(self, model, **kwargs):
            nonlocal live_attempts
            live_attempts += 1
            raise SolverError("injected live re-solve failure")

        def system_2_fails(self, spec, warm):
            # Rebuilt System (2) programs carry no F column (identity -1).
            if warm is not None and warm.col_ids[:1].tolist() != [-1]:
                raise SolverError("injected rebuild failure")
            return real_build(self, spec, warm)

        monkeypatch.setattr(HighsPersistentBackend, "_resolve_fixed", broken_resolve)
        monkeypatch.setattr(HighsPersistentBackend, "_build_and_run", system_2_fails)
        instance = _small_instance(2006, max_jobs=30)
        scheduler = OnlineLPScheduler("online", solver_backend="highs")
        result = simulate(instance, scheduler)
        stats = result.lp_probes
        assert stats.n_live_reoptimizations == 0
        # Each System (2) is a downgraded rebuild, most after a failed live attempt.
        assert stats.n_downgrades == scheduler.n_resolutions > 0
        assert live_attempts >= 0.9 * scheduler.n_resolutions
        assert _sys2_solves(stats) == live_attempts + stats.n_downgrades
        reference = simulate(
            instance, OnlineLPScheduler("online", solver_backend=ScipyBackend())
        )
        assert result.max_stretch == pytest.approx(reference.max_stretch, rel=1e-6)


class TestLifetime:
    def test_context_holds_the_model_for_one_replan(self):
        instance = _small_instance(5, max_jobs=16)
        remaining = {job.job_id: job.size for job in instance.jobs}
        context = ReplanContext(instance, solver_backend="highs")
        problem = context.build_problem(0.0, remaining)
        best = context.solve_max_stretch(problem)
        assert context._live is not None
        context.reoptimize(problem, best.objective)
        assert context._live is None
        problem = context.build_problem(1.0, remaining)
        context.solve_max_stretch(problem)
        assert context._live is not None
        context.publish()  # a run without System (2) ends here
        assert context._live is None

    @pytest.mark.parametrize("with_faults", [False, True])
    def test_no_solver_object_outlives_a_nonopt_run(self, monkeypatch, with_faults):
        """``online-nonopt`` runs no System (2), so only ``publish`` drops its model."""
        created = []
        new_solver = HighsPersistentBackend._new_solver

        def tracking_new_solver(self):
            solver = new_solver(self)
            created.append(weakref.ref(solver))
            return solver

        monkeypatch.setattr(HighsPersistentBackend, "_new_solver", tracking_new_solver)
        degraded = count_degraded_replans(monkeypatch)
        instance = _small_instance(2006, max_jobs=60, density=2.0)
        faults = None
        if with_faults:
            faults = generate_fault_timeline(
                instance.platform, FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0), rng=1
            )
        scheduler = OnlineLPScheduler("online-nonopt", solver_backend="highs")
        simulate(instance, scheduler, faults=faults)
        gc.collect()
        assert len(created) > 16
        assert bool(degraded) == with_faults
        assert sum(ref() is not None for ref in created) == 0
