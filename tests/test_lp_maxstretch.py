"""Unit tests for System (1): :mod:`repro.lp.maxstretch`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import LPJob, MaxStretchProblem, Resource, problem_from_instance

from replan_oracles import (
    AssemblyArraysOracle,
    build_skeleton_tuples,
    extract_allocations_oracle,
    warm_ids_oracle,
)


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
    """The array skeleton's ``LPSpec`` reproduces the historical per-row loop."""

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
    def _reference_dense(problem, oracle, *, fixed_objective):
        """The historical per-row assembly loop over the tuple skeleton.

        Writes dense ``(A_ub, b_ub, A_eq, b_eq)``: ``F`` is column 0 unless
        ``fixed_objective`` is given (System (2), x variables only).
        """
        structure = oracle.structure
        offset = 0 if fixed_objective is not None else 1
        n_vars = offset + len(oracle.keys)
        a_ub = np.zeros((len(oracle.capacity_groups), n_vars))
        b_ub = np.zeros(len(oracle.capacity_groups))
        for row, ((t, c), positions) in enumerate(oracle.capacity_groups):
            length = structure.interval_length(t)
            speed = problem.resources[c].speed
            for pos in positions:
                a_ub[row, pos + offset] = 1.0
            if fixed_objective is None:
                a_ub[row, 0] = -speed * length.coef
                b_ub[row] = speed * length.const
            else:
                b_ub[row] = speed * max(0.0, length.at(fixed_objective))
        a_eq = np.zeros((len(oracle.completeness_groups), n_vars))
        b_eq = np.zeros(len(oracle.completeness_groups))
        for row, (pos_job, positions) in enumerate(oracle.completeness_groups):
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
    def _skeletons(problem, probe):
        """The array skeleton and its tuple-loop oracle on one structure."""
        from repro.lp.intervals import build_interval_structure
        from repro.lp.maxstretch import build_skeleton

        structure = build_interval_structure(problem, probe)
        skeleton = build_skeleton(problem, structure)
        assert skeleton is not None
        return skeleton, build_skeleton_tuples(problem, structure)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_constraint_matrices_bit_identical(self, fixed_objective):
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton, oracle = self._skeletons(problem, 2.75)
        n_x = len(oracle.keys)
        if fixed_objective is None:
            spec = _lp_spec(problem, skeleton, f_range=(1.0, 5.0))
            assert spec.n_vars == 1 + n_x
        else:
            costs = np.arange(1.0, n_x + 1.0)
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
            assert spec.n_vars == n_x
        want = self._reference_dense(problem, oracle, fixed_objective=fixed_objective)
        for got, expected in zip(self._dense(spec), want):
            assert np.array_equal(got, expected)  # exact, not approx

    def test_sparsity_pattern_drops_zero_f_coefficients(self):
        """Zero F-column coefficients are filtered exactly like the old loop."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton, _oracle = self._skeletons(problem, 2.75)
        spec = _lp_spec(problem, skeleton, f_range=(0.0, np.inf))
        f_entries = np.asarray(spec.ub_vals)[np.asarray(spec.ub_cols) == 0]
        assert f_entries.size > 0
        assert np.all(f_entries != 0.0)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_objective_and_bounds_equal_the_former_float_lists(self, fixed_objective):
        """Element-wise, bit for bit, the python-float lists the builder passed."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton, oracle = self._skeletons(problem, 2.75)
        n_x = len(oracle.keys)
        if fixed_objective is None:
            spec = _lp_spec(problem, skeleton, f_range=(1, 5))
            former = (
                [1.0] + [0.0] * n_x,
                [float(1)] + [0.0] * n_x,
                [float(5)] + [math.inf] * n_x,
            )
        else:
            costs = np.arange(1.0, n_x + 1.0)
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
            former = (costs.tolist(), [0.0] * n_x, [math.inf] * n_x)
        for field, old in zip((spec.objective, spec.lower, spec.upper), former):
            got = np.asarray(field)
            assert got.dtype == np.float64
            assert got.tolist() == old
            assert np.array_equal(got.view(np.int64), np.array(old).view(np.int64))

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_row_order(self, fixed_objective):
        """Capacity rows by (interval, resource), then completeness rows in job order."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton, oracle = self._skeletons(problem, 2.75)
        if fixed_objective is None:
            offset = 1
            spec = _lp_spec(problem, skeleton, f_range=(0.0, np.inf))
        else:
            offset = 0
            costs = np.ones(len(oracle.keys))
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
        cap_keys = []
        for row in range(len(spec.ub_rhs)):
            cols = np.asarray(spec.ub_cols)[np.asarray(spec.ub_rows) == row]
            keys = {oracle.keys[col - offset][:2] for col in cols if col >= offset}
            assert len(keys) == 1
            cap_keys.append(keys.pop())
        assert cap_keys == sorted(set(cap_keys))
        job_order = []
        for row in range(len(spec.eq_rhs)):
            cols = np.asarray(spec.eq_cols)[np.asarray(spec.eq_rows) == row]
            jobs = {oracle.keys[col - offset][2] for col in cols}
            assert len(jobs) == 1
            job_order.append(jobs.pop())
        assert job_order == [job.job_id for job in problem.jobs]
        assert list(spec.eq_rhs) == [job.remaining_work for job in problem.jobs]


@st.composite
def skeleton_cases(draw):
    """A random problem and a probe inside (or on) one of its milestone intervals.

    Integer-valued dates make starts coincide with deadlines at milestones,
    so probes drawn *on* a milestone give zero-length intervals; earliest
    starts after the release give the jobs with no interval (``None``).
    """
    n_res = draw(st.integers(1, 3))
    resources = tuple(
        Resource(c, speed=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])), machine_ids=(c,))
        for c in range(n_res)
    )
    jobs = []
    for job_id in draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True)):
        release = float(draw(st.integers(0, 4)))
        eligible = draw(st.permutations(range(n_res)))[: draw(st.integers(1, n_res))]
        jobs.append(
            LPJob(
                job_id,
                earliest_start=release + draw(st.sampled_from([0.0, 0.0, 1.0, 2.5])),
                remaining_work=draw(st.sampled_from([0.5, 1.0, 3.0])),
                release=release,
                flow_factor=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
                resources=tuple(eligible),
            )
        )
    problem = MaxStretchProblem(resources=resources, jobs=tuple(jobs))
    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    edges = [0.0, f_lb] + enumerate_milestones(problem, lower=f_lb, upper=f_ub) + [f_ub]
    i = draw(st.integers(0, len(edges) - 2))
    probe = draw(st.sampled_from([edges[i], 0.5 * (edges[i] + edges[i + 1]), edges[i + 1]]))
    return problem, probe


class TestSkeletonOracle:
    """Every array of the array skeleton equals the tuple-loop oracle's."""

    @settings(max_examples=150, deadline=None)
    @given(skeleton_cases(), st.integers(0, 2**32 - 1))
    def test_arrays_equal_the_tuple_loop(self, case, seed):
        from repro.lp.intervals import build_interval_structure
        from repro.lp.maxstretch import _extract_allocations, build_skeleton, warm_hint

        problem, probe = case
        structure = build_interval_structure(problem, probe)
        skeleton = build_skeleton(problem, structure)
        oracle = build_skeleton_tuples(problem, structure)
        assert (skeleton is None) == (oracle is None)
        if oracle is None:
            return
        arrays = AssemblyArraysOracle(oracle)
        assert skeleton.signature == oracle.signature
        assert skeleton.n_variables == len(oracle.keys)

        def same(got, want):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bitwise

        same(skeleton.cap_entry_rows, arrays.cap_entry_rows)
        same(skeleton.cap_entry_cols, arrays.cap_entry_cols)
        same(skeleton.cap_c, arrays.cap_c)
        same(skeleton.cap_len_const, arrays.cap_len_const)
        same(skeleton.cap_len_coef, arrays.cap_len_coef)
        same(skeleton.key_t, arrays.key_t)
        same(skeleton.key_jpos, arrays.key_jpos)
        same(skeleton.bnd_const, arrays.bnd_const)
        same(skeleton.bnd_coef, arrays.bnd_coef)
        # The completeness rows are the job positions of the columns.
        same(skeleton.key_jpos, arrays.comp_entry_rows)
        same(np.arange(skeleton.n_variables, dtype=np.int64), arrays.comp_entry_cols)
        same(np.arange(len(problem.jobs), dtype=np.int64), arrays.comp_job_pos)
        keys = list(zip(skeleton.key_t.tolist(), skeleton.key_c.tolist(), skeleton.key_j.tolist()))
        assert keys == list(oracle.keys)
        assert list(zip(skeleton.cap_t.tolist(), skeleton.cap_c.tolist())) == [
            tc for tc, _positions in oracle.capacity_groups
        ]

        col_with_f, col_plain, row_ids = warm_ids_oracle(problem, oracle)
        with_f = warm_hint(skeleton, with_objective_var=True)
        plain = warm_hint(skeleton, with_objective_var=False)
        same(with_f.col_ids, col_with_f)
        same(plain.col_ids, col_plain)
        same(with_f.row_ids, row_ids)
        same(plain.row_ids, row_ids)

        # Allocations: zeros, tiny values below the threshold and real work.
        rng = np.random.default_rng(seed)
        for offset in (0, 1):
            values = rng.choice([0.0, 1e-13, 1e-9, 0.25, 2.0], size=offset + len(oracle.keys))
            got = _extract_allocations(problem, skeleton, offset, values)
            want = extract_allocations_oracle(problem, oracle, offset, values)
            assert list(got.items()) == list(want.items())  # insertion order too
