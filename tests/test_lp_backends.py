"""The LP solver layer: the persistent HiGHS backend against the linprog reference.

The persistent HiGHS backend -- the package's one engine -- must answer
like the stateless one-shot ``linprog`` reference of
``tests/scipy_backend.py`` (a fresh instance per use): same feasibility
verdicts at every milestone probe, same System (1) objective, and System
(2) allocations of the same quality -- all within solver tolerance.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import api
from repro.core.errors import SolverError
from repro.lp.backends import WarmStartHint, make_backend, resolve_backend_name
from repro.lp.backends.highs import HighsPersistentBackend
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.faults import FaultSpec, generate_fault_timeline
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from helpers import allocations, lp_spec, max_weighted_flow_of_allocation, work_for_job
from scipy_backend import ScipyBackend

#: Backends exercised by the equivalence tests: the linprog reference and HiGHS.
BACKENDS = ["scipy", "highs"]


def backend_of(name: str):
    """A fresh backend: the tests' linprog reference for ``"scipy"``, else HiGHS."""
    return ScipyBackend() if name == "scipy" else make_backend(name)


def count_degraded_replans(monkeypatch) -> list:
    """Record every restricted-platform (fault) replan of an on-line LP run."""
    calls: list = []
    replan_degraded = OnlineLPScheduler._replan_degraded

    def spy(self, *args):
        calls.append(self)
        return replan_degraded(self, *args)

    monkeypatch.setattr(OnlineLPScheduler, "_replan_degraded", spy)
    return calls


def _small_instance(seed: int, *, max_jobs: int = 18, density: float = 1.5):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=density, window=30.0, max_jobs=max_jobs)
    return generate_instance(platform_spec, workload_spec, rng=seed)


# -- spec-level behaviour ------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSpecWithBackend:
    def test_simple_minimization(self, backend_name):
        # min x + y  s.t.  x + y >= 1
        spec = lp_spec([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        result = backend_of(backend_name).solve(spec)
        assert result.feasible
        assert result.objective == pytest.approx(1.0)
        assert result.value(0) + result.value(1) == pytest.approx(1.0)

    def test_equality_and_bounds(self, backend_name):
        # min x  s.t.  x + y == 3, y <= 1
        spec = lp_spec([1.0, 0.0], upper=[np.inf, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0])
        result = backend_of(backend_name).solve(spec)
        assert result.feasible
        assert result.value(0) == pytest.approx(2.0)

    def test_variable_bounds_respected(self, backend_name):
        spec = lp_spec([1.0], lower=[2.0], upper=[5.0])
        result = backend_of(backend_name).solve(spec)
        assert result.value(0) == pytest.approx(2.0)

    def test_infeasible_returns_flag_not_exception(self, backend_name):
        spec = lp_spec([0.0], upper=[1.0], a_eq=[[1.0]], b_eq=[5.0])
        result = backend_of(backend_name).solve(spec)
        assert not result.feasible
        assert np.isinf(result.objective)

    def test_unbounded_raises_solver_error(self, backend_name):
        spec = lp_spec([-1.0])  # min -x with x unbounded above
        with pytest.raises(SolverError):
            backend_of(backend_name).solve(spec)

    def test_transportation_problem(self, backend_name):
        # Two suppliers (capacities 3 and 2), two demands (2 and 3); cost
        # favours supplier 0 for demand 0 and supplier 1 for demand 1.
        # Variables: x00, x01, x10, x11.
        spec = lp_spec(
            [1.0, 3.0, 3.0, 1.0],
            a_ub=[[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
            b_ub=[3.0, 2.0],
            a_eq=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
            b_eq=[2.0, 3.0],
        )
        result = backend_of(backend_name).solve(spec)
        assert result.feasible
        # 2 from s0 to d0, 2 from s1 to d1, the last unit of d1 from s0.
        assert result.objective == pytest.approx(7.0)

    def test_same_matrix_new_rhs_and_costs_in_one_series(self, backend_name):
        backend = backend_of(backend_name)
        warm = WarmStartHint(
            series="shared",
            col_ids=np.array([0, 1], dtype=np.int64),
            row_ids=np.array([0], dtype=np.int64),
        )

        def solve(rhs: float, cost_y: float):
            spec = lp_spec([1.0, cost_y], a_eq=[[1.0, 1.0]], b_eq=[rhs])
            return backend.solve(spec, warm=warm)

        first = solve(3.0, 2.0)
        second = solve(5.0, 0.5)  # same matrix; RHS and cost changes only
        assert first.feasible and second.feasible
        assert first.objective == pytest.approx(3.0)
        assert second.objective == pytest.approx(2.5)  # y carries the load now
        if backend.persistent:
            # The second model started from the basis the first one left.
            assert backend.stats.n_basis_reused == 1


# -- milestone search / System (2) equivalence ---------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 2006])
class TestMilestoneSearchEquivalence:
    def test_objectives_and_allocation_quality_agree(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem, backend=ScipyBackend())
        backend = make_backend("highs")
        solution = minimize_max_weighted_flow(problem, backend=backend)

        assert solution.objective == pytest.approx(reference.objective, rel=1e-8)
        # Allocations may differ between alternate optima, but both must be
        # complete and certify (close to) the same max weighted flow.
        for job in problem.jobs:
            assert work_for_job(solution, job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )
        certificate = max_weighted_flow_of_allocation(solution)
        assert certificate <= solution.objective * (1 + 1e-6) + 1e-9

    def test_system2_allocations_complete_and_bounded(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem, backend=ScipyBackend())
        backend = make_backend("highs")
        reopt_ref = reoptimize_allocation(
            problem, reference.objective, backend=ScipyBackend()
        )
        reopt = reoptimize_allocation(
            problem, reference.objective, backend=backend
        )
        assert reopt.objective == pytest.approx(reopt_ref.objective, rel=1e-9)
        for job in problem.jobs:
            assert work_for_job(reopt, job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )
        # Same System (2) objective value (mean-completion relaxation cost).
        assert _relaxation_cost(reopt) == pytest.approx(
            _relaxation_cost(reopt_ref), rel=1e-6, abs=1e-9
        )

    def test_feasibility_verdicts_agree_below_optimum(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem, backend=ScipyBackend())
        backend = make_backend("highs")
        lo = problem.objective_lower_bound()
        target = lo + 0.5 * (reference.objective - lo)
        if target <= lo:  # optimum == lower bound: nothing below to probe
            pytest.skip("degenerate instance: optimum equals the lower bound")
        scipy_probe = solve_on_objective_range(problem, lo, target, backend=ScipyBackend())
        highs_probe = solve_on_objective_range(problem, lo, target, backend=backend)
        assert (scipy_probe is None) == (highs_probe is None)


def _relaxation_cost(solution) -> float:
    """The System (2) objective of a solution (sum of weighted midpoints)."""
    remaining = {job.job_id: job.remaining_work for job in solution.problem.jobs}
    total = 0.0
    for (t, _c, j), work in allocations(solution).items():
        lo, hi = solution.interval_bounds[t]
        total += 0.5 * (lo + hi) * work / remaining[j]
    return total


# -- replanning pipeline equivalence -------------------------------------------------


class TestReplanContextWithHighsBackend:
    def test_context_owns_persistent_backend(self):
        instance = _small_instance(3)
        context = ReplanContext(instance, solver_backend="highs")
        assert context.backend.persistent
        remaining = {job.job_id: job.size for job in instance.jobs}
        first = context.solve_max_stretch(context.build_problem(0.0, remaining))
        reference_ctx = ReplanContext(instance, solver_backend=ScipyBackend())
        reference = reference_ctx.solve_max_stretch(
            reference_ctx.build_problem(0.0, remaining)
        )
        assert first.objective == pytest.approx(reference.objective, rel=1e-8)
        context.close()
        assert context.backend._series == {}

    def test_two_replan_sequence_matches_scipy(self):
        instance = _small_instance(11)
        scipy_ctx = ReplanContext(instance, solver_backend=ScipyBackend())
        highs_ctx = ReplanContext(instance, solver_backend="highs")
        remaining = {job.job_id: job.size for job in instance.jobs}
        for now in (0.0, 5.0):
            active = {j: r for j, r in remaining.items()}
            p_scipy = scipy_ctx.build_problem(now, active)
            p_highs = highs_ctx.build_problem(now, active)
            s_scipy = scipy_ctx.solve_max_stretch(p_scipy)
            s_highs = highs_ctx.solve_max_stretch(p_highs)
            assert s_highs.objective == pytest.approx(s_scipy.objective, rel=1e-8)
            # Shrink remaining works as if a chunk executed before the replan.
            remaining = {j: 0.7 * r for j, r in remaining.items()}

    @staticmethod
    def _assert_simulations_equivalent(instance, scheduler_key, faults=None):
        results = {}
        for backend_name in ("scipy", "highs"):
            scheduler = make_scheduler(scheduler_key, solver_backend=backend_of(backend_name))
            results[backend_name] = (
                simulate(instance, scheduler, faults=faults),
                scheduler,
            )
        r_scipy, s_scipy = results["scipy"]
        r_highs, s_highs = results["highs"]
        # The S* trajectory is solver-independent (unique LP optimum)...
        assert s_highs.last_objective == pytest.approx(
            s_scipy.last_objective, rel=1e-8
        )
        assert s_highs.n_resolutions == s_scipy.n_resolutions
        # ... and the realized quality matches even when degenerate alternate
        # optima lead to different (equally optimal) allocations.
        assert set(r_highs.completions) == set(r_scipy.completions)
        assert r_highs.max_stretch == pytest.approx(r_scipy.max_stretch, rel=1e-6)
        return s_highs

    def test_end_to_end_simulation_equivalent(self):
        instance = _small_instance(5, max_jobs=25, density=2.0)
        self._assert_simulations_equivalent(instance, "online")

    # Under outages an alternate System (2) vertex changes which job was on
    # the failed machine, so on most seeds the two backends legitimately
    # walk different trajectories.  These two seeds agree, and their fault
    # replans meet the same job set at the same resource speeds again (a
    # machine coming back) -- the one traffic pattern where the backend is
    # handed the very matrix it solved before.
    @pytest.mark.parametrize("seed", [13, 2007])
    @pytest.mark.parametrize("scheduler_key", ["online", "online-edf"])
    def test_fault_replans_equivalent(self, monkeypatch, scheduler_key, seed):
        degraded = count_degraded_replans(monkeypatch)
        instance = _small_instance(seed, max_jobs=30)
        faults = generate_fault_timeline(
            instance.platform, FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0), rng=seed
        )
        scheduler = self._assert_simulations_equivalent(instance, scheduler_key, faults)
        assert scheduler in degraded  # degraded replans did run


# -- persistence mechanics -----------------------------------------------------------


class TestPersistentMechanics:
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_no_solver_object_outlives_a_solve(self, monkeypatch, with_faults):
        """The bindings' ``Highs`` objects are not gc-tracked but weakref-able."""
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
        scheduler = make_scheduler("online", solver_backend="highs")
        simulate(instance, scheduler, faults=faults)
        gc.collect()
        assert len(created) > 16
        assert bool(degraded) == with_faults
        # The scheduler (and through it its backend) is still referenced.
        assert sum(ref() is not None for ref in created) == 0

    def test_milestone_search_transplants_bases(self):
        instance = _small_instance(7, max_jobs=20, density=2.0)
        problem = problem_from_instance(instance)
        backend = make_backend("highs")
        minimize_max_weighted_flow(problem, backend=backend)
        stats = backend.stats
        assert stats.n_probes >= 2
        # Every probe after the first inherits the previous probe's basis.
        assert stats.n_basis_reused >= stats.n_probes - 1

    def test_each_backend_counts_its_own_probes(self):
        instance = _small_instance(1, max_jobs=8)
        problem = problem_from_instance(instance)
        backends = [ScipyBackend(), make_backend("highs")]
        for backend in backends:
            minimize_max_weighted_flow(problem, backend=backend)
        for backend in backends:
            stats = backend.stats
            assert stats.n_probes > 0
            assert set(stats.by_backend) == {backend.name}
            assert stats.solve_seconds > 0
            assert stats.per_probe_seconds > 0


class TestRunOwnsItsCounters:
    def test_concurrent_simulations_keep_their_own_counts(self):
        """Two runs in two threads count exactly what a lone run counts."""
        instance = generate_instance(
            PlatformSpec(n_clusters=3, n_databanks=3, availability=0.6),
            WorkloadSpec(density=1.5, window=20.0, max_jobs=25),
            rng=7,
        )

        def counts(stats):
            return stats.n_probes, len(stats.replan_latencies), stats.searches

        lone = counts(api.simulate(instance, "online").lp_probes)
        assert lone[0] > 0 and lone[1] > 0
        for _trial in range(3):
            results = [None, None]

            def run(slot):
                results[slot] = api.simulate(instance, "online")

            threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            assert [counts(result.lp_probes) for result in results] == [lone, lone]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_solver_run_time_and_lp_sizes(self, backend_name, monkeypatch):
        """``run_seconds`` is part of ``solve_seconds``; sizes sum the solved specs.

        On HiGHS every run -- milestone probes, rebuilt and live System (2)
        solves -- goes through ``_run``; on scipy every solve through
        ``_solve``.
        """
        shapes = []
        if backend_name == "highs":
            run = HighsPersistentBackend._run

            def spy(self, highs, spec, warm):
                shapes.append((spec.n_vars, spec.n_rows))
                return run(self, highs, spec, warm)

            monkeypatch.setattr(HighsPersistentBackend, "_run", spy)
        else:
            solve = ScipyBackend._solve

            def spy(self, spec, *, warm=None):
                shapes.append((spec.n_vars, spec.n_rows))
                return solve(self, spec, warm=warm)

            monkeypatch.setattr(ScipyBackend, "_solve", spy)
        instance = _small_instance(3, max_jobs=14)
        stats = api.simulate(
            instance, "online", scheduler_options={"solver_backend": backend_of(backend_name)}
        ).lp_probes
        assert stats.n_downgrades == 0
        assert len(shapes) == stats.n_probes > 0
        assert 0 < stats.run_seconds <= stats.solve_seconds
        assert stats.n_columns == sum(n_vars for n_vars, _rows in shapes)
        assert stats.n_rows == sum(rows for _n_vars, rows in shapes)

    def test_close_starts_a_fresh_stats_object(self):
        backend = make_backend()
        minimize_max_weighted_flow(
            problem_from_instance(_small_instance(1, max_jobs=8)), backend=backend
        )
        spent = backend.stats
        backend.close()
        assert spent.n_probes > 0
        assert backend.stats is not spent and backend.stats.n_probes == 0


# -- backend selection ---------------------------------------------------------------


class TestMakeBackend:
    @pytest.mark.parametrize("spec", [None, "auto", "highs", "AUTO"])
    def test_every_name_is_a_fresh_highs_backend(self, spec):
        backend = make_backend(spec)
        assert isinstance(backend, HighsPersistentBackend) and backend.persistent
        assert make_backend(spec) is not backend  # each run owns its series bases
        assert resolve_backend_name(spec) == "highs"

    def test_instance_passthrough(self):
        backend = ScipyBackend()
        assert make_backend(backend) is backend
        assert resolve_backend_name(backend) == "scipy"

    @pytest.mark.parametrize("spec", ["scipy", "cplex"])
    def test_other_names_are_rejected(self, spec):
        with pytest.raises(SolverError, match="accepted: None, 'auto', 'highs'"):
            make_backend(spec)
        with pytest.raises(SolverError, match="accepted"):
            resolve_backend_name(spec)

    def test_scheduler_rejects_the_scipy_name(self):
        with pytest.raises(SolverError, match="'scipy'"):
            api.simulate(
                _small_instance(1, max_jobs=4), "online",
                scheduler_options={"solver_backend": "scipy"},
            )
