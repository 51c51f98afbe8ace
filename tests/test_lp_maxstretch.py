"""Unit tests for System (1): :mod:`repro.lp.maxstretch`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.problem import LPJob, MaxStretchProblem, Resource, problem_from_instance


def single_resource_problem(jobs) -> MaxStretchProblem:
    return MaxStretchProblem(
        resources=(Resource(0, speed=1.0, machine_ids=(0,)),), jobs=tuple(jobs)
    )


class TestSingleJob:
    def test_single_job_optimal_stretch_is_one(self):
        problem = single_resource_problem(
            [LPJob(0, earliest_start=0.0, remaining_work=5.0, release=0.0,
                   flow_factor=5.0, resources=(0,))]
        )
        solution = minimize_max_weighted_flow(problem)
        # The job alone needs 5 seconds and its flow factor is 5 -> stretch 1.
        assert solution.objective == pytest.approx(1.0)
        assert solution.work_for_job(0) == pytest.approx(5.0)

    def test_empty_problem(self):
        problem = MaxStretchProblem(resources=(), jobs=())
        solution = minimize_max_weighted_flow(problem)
        assert solution.objective == 0.0
        assert solution.allocations == {}


class TestTwoJobs:
    def make_problem(self) -> MaxStretchProblem:
        # Job 0: size 4 released at 0; job 1: size 1 released at 2.
        # Stretch weights (flow factor = size on a unit-speed machine).
        return single_resource_problem(
            [
                LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
                      flow_factor=4.0, resources=(0,)),
                LPJob(1, earliest_start=2.0, remaining_work=1.0, release=2.0,
                      flow_factor=1.0, resources=(0,)),
            ]
        )

    def test_known_optimum(self):
        # Analysis: with deadline d0 = 4F and d1 = 2 + F, total work by
        # max(d0, d1) must fit.  Best trade-off: finish both by time 5 with
        # F = 5/4 = 1.25: d0 = 5, d1 = 3.25 >= completion of job 1 if it is
        # served right at its release (2 -> 3).  Check the LP agrees with a
        # direct numerical search.
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        brute = self.brute_force_optimum(problem)
        assert solution.objective == pytest.approx(brute, rel=1e-6)

    @staticmethod
    def brute_force_optimum(problem: MaxStretchProblem) -> float:
        """Bisection on F using a simple EDF feasibility test (single machine)."""

        def feasible(f: float) -> bool:
            jobs = sorted(problem.jobs, key=lambda j: j.deadline(f))
            time = 0.0
            # Preemptive EDF on one machine is optimal for deadline feasibility;
            # here releases equal earliest starts, so simulate it coarsely.
            events = sorted({j.earliest_start for j in jobs} | {j.deadline(f) for j in jobs})
            remaining = {j.job_id: j.remaining_work for j in jobs}
            for start, end in zip(events, events[1:]):
                span = end - start
                for job in sorted(jobs, key=lambda j: j.deadline(f)):
                    if job.earliest_start > start + 1e-12 or remaining[job.job_id] <= 0:
                        continue
                    done = min(span, remaining[job.job_id])
                    remaining[job.job_id] -= done
                    span -= done
                    if span <= 0:
                        break
            for job in jobs:
                if remaining[job.job_id] > 1e-9:
                    return False
            return True

        lo, hi = 0.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def test_allocation_respects_deadlines(self):
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        assert solution.max_weighted_flow_of_allocation() <= solution.objective + 1e-6

    def test_allocation_is_complete(self):
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        for job in problem.jobs:
            assert solution.work_for_job(job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )

    def test_solution_lookups(self):
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        assert solution.deadline(0) == pytest.approx(solution.objective * 4.0)
        assert 0 in solution.jobs_on_resource(0)
        first_resource = solution.completion_interval_on_resource(0, 0)
        assert solution.completion_interval(0) >= first_resource or True
        interval_allocs = solution.allocations_in_interval(solution.completion_interval(0))
        assert any(job == 0 for (_, job) in interval_allocs)


class TestObjectiveRange:
    def test_infeasible_below_lower_bound(self):
        problem = single_resource_problem(
            [LPJob(0, earliest_start=0.0, remaining_work=5.0, release=0.0,
                   flow_factor=5.0, resources=(0,))]
        )
        assert solve_on_objective_range(problem, 0.1, 0.5) is None

    def test_feasible_range_returns_lower_end(self):
        problem = single_resource_problem(
            [LPJob(0, earliest_start=0.0, remaining_work=5.0, release=0.0,
                   flow_factor=5.0, resources=(0,))]
        )
        solution = solve_on_objective_range(problem, 2.0, 3.0)
        assert solution is not None
        assert solution.objective == pytest.approx(2.0)

    def test_invalid_range_rejected(self):
        problem = single_resource_problem(
            [LPJob(0, earliest_start=0.0, remaining_work=5.0, release=0.0,
                   flow_factor=5.0, resources=(0,))]
        )
        with pytest.raises(ValueError):
            solve_on_objective_range(problem, 3.0, 2.0)


class TestOptimalityProperties:
    def test_optimum_below_every_heuristic(self):
        """The LP optimum must lower-bound the max-stretch of simulated heuristics."""
        from repro.schedulers.registry import make_scheduler
        from repro.simulation.engine import simulate

        rng = np.random.default_rng(3)
        platform = Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 0.5, 1, frozenset({"a", "b"})),
                Machine(2, 2.0, 2, frozenset({"b"})),
            ]
        )
        for trial in range(3):
            jobs = []
            t = 0.0
            for i in range(6):
                t += float(rng.exponential(1.0))
                bank = "a" if i % 2 else "b"
                jobs.append(Job(i, release=t, size=float(rng.uniform(0.5, 4.0)), databank=bank))
            instance = Instance(jobs, platform)
            optimum = minimize_max_weighted_flow(problem_from_instance(instance)).objective
            for key in ("srpt", "swrpt", "fcfs", "mct"):
                result = simulate(instance, make_scheduler(key))
                assert result.max_stretch >= optimum - 1e-6

    def test_monotone_in_added_jobs(self):
        base = [
            LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
                  flow_factor=4.0, resources=(0,)),
            LPJob(1, earliest_start=1.0, remaining_work=2.0, release=1.0,
                  flow_factor=2.0, resources=(0,)),
        ]
        extra = LPJob(2, earliest_start=1.5, remaining_work=3.0, release=1.5,
                      flow_factor=3.0, resources=(0,))
        small = minimize_max_weighted_flow(single_resource_problem(base))
        large = minimize_max_weighted_flow(single_resource_problem(base + [extra]))
        assert large.objective >= small.objective - 1e-9


class TestVectorizedAssembly:
    """The COO-block skeleton assembly reproduces the historical per-row loop."""

    def make_problem(self) -> MaxStretchProblem:
        resources = (
            Resource(0, speed=2.0, machine_ids=(0, 1)),
            Resource(1, speed=1.5, machine_ids=(2,)),
        )
        jobs = (
            LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
                  flow_factor=2.0, resources=(0,)),
            LPJob(1, earliest_start=1.0, remaining_work=3.0, release=1.0,
                  flow_factor=1.0, resources=(0, 1)),
            LPJob(2, earliest_start=1.5, remaining_work=2.0, release=1.5,
                  flow_factor=1.5, resources=(1,)),
        )
        return MaxStretchProblem(resources=resources, jobs=jobs)

    @staticmethod
    def _reference_dense(problem, skeleton, *, fixed_objective):
        """The historical per-row assembly loop, kept as the oracle.

        Writes dense ``(A_ub, b_ub, A_eq, b_eq)``: ``F`` is column 0 unless
        ``fixed_objective`` is given (System (2), x variables only).
        """
        structure = skeleton.structure
        offset = 0 if fixed_objective is not None else 1
        n_vars = offset + len(skeleton.keys)
        a_ub = np.zeros((len(skeleton.capacity_groups), n_vars))
        b_ub = np.zeros(len(skeleton.capacity_groups))
        for row, ((t, c), positions) in enumerate(skeleton.capacity_groups):
            length = structure.interval_length(t)
            speed = problem.resources[c].speed
            for pos in positions:
                a_ub[row, pos + offset] = 1.0
            if fixed_objective is None:
                a_ub[row, 0] = -speed * length.coef
                b_ub[row] = speed * length.const
            else:
                b_ub[row] = speed * max(0.0, length.at(fixed_objective))
        a_eq = np.zeros((len(skeleton.completeness_groups), n_vars))
        b_eq = np.zeros(len(skeleton.completeness_groups))
        for row, (pos_job, positions) in enumerate(skeleton.completeness_groups):
            for pos in positions:
                a_eq[row, pos + offset] = 1.0
            b_eq[row] = problem.jobs[pos_job].remaining_work
        return a_ub, b_ub, a_eq, b_eq

    @staticmethod
    def _dense(spec):
        """Dense (A_ub, b_ub, A_eq, b_eq) canonicalization of a spec."""
        from scipy import sparse

        a_ub = sparse.coo_matrix(
            (list(spec.ub_vals), (list(spec.ub_rows), list(spec.ub_cols))),
            shape=(len(spec.ub_rhs), spec.n_vars),
        ).toarray()
        a_eq = sparse.coo_matrix(
            (list(spec.eq_vals), (list(spec.eq_rows), list(spec.eq_cols))),
            shape=(len(spec.eq_rhs), spec.n_vars),
        ).toarray()
        return a_ub, np.asarray(spec.ub_rhs), a_eq, np.asarray(spec.eq_rhs)

    @staticmethod
    def _skeleton(problem, probe):
        from repro.lp.intervals import build_interval_structure
        from repro.lp.maxstretch import build_skeleton

        skeleton = build_skeleton(problem, build_interval_structure(problem, probe))
        assert skeleton is not None
        return skeleton

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_constraint_matrices_bit_identical(self, fixed_objective):
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton = self._skeleton(problem, 2.75)
        n_x = len(skeleton.keys)
        if fixed_objective is None:
            spec = _lp_spec(problem, skeleton, f_range=(1.0, 5.0))
            assert spec.n_vars == 1 + n_x
            assert list(spec.objective) == [1.0] + [0.0] * n_x
            assert list(spec.lower) == [1.0] + [0.0] * n_x
            assert list(spec.upper) == [5.0] + [np.inf] * n_x
        else:
            costs = np.arange(1.0, n_x + 1.0)
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
            assert spec.n_vars == n_x
            assert list(spec.objective) == costs.tolist()
            assert list(spec.lower) == [0.0] * n_x
            assert list(spec.upper) == [np.inf] * n_x
        want = self._reference_dense(problem, skeleton, fixed_objective=fixed_objective)
        for got, expected in zip(self._dense(spec), want):
            assert np.array_equal(got, expected)  # exact, not approx

    def test_sparsity_pattern_drops_zero_f_coefficients(self):
        """Zero F-column coefficients are filtered exactly like the old loop."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton = self._skeleton(problem, 2.75)
        spec = _lp_spec(problem, skeleton, f_range=(0.0, np.inf))
        f_entries = np.asarray(spec.ub_vals)[np.asarray(spec.ub_cols) == 0]
        assert f_entries.size > 0
        assert np.all(f_entries != 0.0)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_objective_and_bounds_are_python_float_lists(self, fixed_objective):
        """The scipy goldens pin these as lists of Python floats, not arrays."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton = self._skeleton(problem, 2.75)
        if fixed_objective is None:
            spec = _lp_spec(problem, skeleton, f_range=(1, 5))
        else:
            costs = np.arange(1.0, len(skeleton.keys) + 1.0)
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
        for field in (spec.objective, spec.lower, spec.upper):
            assert type(field) is list
            assert all(type(v) is float for v in field)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_row_order(self, fixed_objective):
        """Capacity rows by (interval, resource), then completeness rows in job order."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton = self._skeleton(problem, 2.75)
        if fixed_objective is None:
            offset = 1
            spec = _lp_spec(problem, skeleton, f_range=(0.0, np.inf))
        else:
            offset = 0
            costs = np.ones(len(skeleton.keys))
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
        cap_keys = []
        for row in range(len(spec.ub_rhs)):
            cols = np.asarray(spec.ub_cols)[np.asarray(spec.ub_rows) == row]
            keys = {skeleton.keys[col - offset][:2] for col in cols if col >= offset}
            assert len(keys) == 1
            cap_keys.append(keys.pop())
        assert cap_keys == sorted(set(cap_keys))
        job_order = []
        for row in range(len(spec.eq_rhs)):
            cols = np.asarray(spec.eq_cols)[np.asarray(spec.eq_rows) == row]
            jobs = {skeleton.keys[col - offset][2] for col in cols}
            assert len(jobs) == 1
            job_order.append(jobs.pop())
        assert job_order == [job.job_id for job in problem.jobs]
        assert list(spec.eq_rhs) == [job.remaining_work for job in problem.jobs]
