"""Unit tests for System (1): :mod:`repro.lp.maxstretch`."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.lp.aggregation import share_totals
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import LPJob, MaxStretchProblem, Resource, problem_from_instance

from helpers import (
    interval_length,
    job_windows,
    max_weighted_flow_of_allocation,
    share_dict,
    work_for_job,
)
from replan_oracles import build_per_job_skeleton


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
        assert work_for_job(solution, 0) == pytest.approx(5.0)

    def test_empty_problem(self):
        problem = MaxStretchProblem(resources=(), jobs=())
        solution = minimize_max_weighted_flow(problem)
        assert solution.objective == 0.0
        assert solution.shares.work.size == 0


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
        assert max_weighted_flow_of_allocation(solution) <= solution.objective + 1e-6

    def test_allocation_is_complete(self):
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        for job in problem.jobs:
            assert work_for_job(solution, job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )

    def test_solution_lookups(self):
        problem = self.make_problem()
        solution = minimize_max_weighted_flow(problem)
        assert solution.deadline(0) == pytest.approx(solution.objective * 4.0)
        assert share_totals(solution).last[0, 0] >= 0  # job 0 works on resource 0

    @pytest.mark.parametrize("resources", [1, 2])
    def test_last_interval_is_the_latest_per_resource(self, resources):
        problem = self.make_problem()
        if resources == 2:
            # A second, slower resource that only job 0 may use.
            problem = MaxStretchProblem(
                resources=(*problem.resources, Resource(1, speed=0.5, machine_ids=(1,))),
                jobs=(replace(problem.jobs[0], resources=(0, 1)), problem.jobs[1]),
            )
        solution = minimize_max_weighted_flow(problem)
        shares = solution.shares
        totals = share_totals(solution)
        for p, job in enumerate(problem.jobs):
            # A job's last interval is the latest of its last intervals per resource.
            mine = (shares.job_id == job.job_id) & (shares.work > 0)
            assert totals.last[p].max() == shares.t[mine].max()
            for c in range(problem.n_resources):
                here = mine & (shares.c == c)
                assert totals.last[p, c] == (shares.t[here].max() if here.any() else -1)


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


def _classes_by_loop(problem):
    """``[(work, resources, members)]``: the job classes, members in release order."""
    classes: dict[tuple, list] = {}
    for job in problem.jobs:
        classes.setdefault((job.resources, job.flow_factor, job.remaining_work), []).append(job)
    return [
        (key[2], key[0], sorted(members, key=lambda job: job.release))
        for key, members in classes.items()
    ]


def _reference_class_lp(problem, structure, *, fixed_objective):
    """The class LP written row by row from its definition, as dense arrays.

    Returns ``(A_ub, b_ub, A_eq, b_eq, columns)``: ``F`` is column 0 unless
    ``fixed_objective`` is given (System (2)); ``columns`` names every other
    column, ``("x", t, c, class)`` or ``("s", class, deadline boundary)``.
    """
    windows = job_windows(problem, structure)
    start = {j: w.start for j, w in windows.items()}
    deadline = {j: w.stop for j, w in windows.items()}
    classes = _classes_by_loop(problem)
    columns = []
    for k, (_work, resources, members) in enumerate(classes):
        for t in range(start[members[0].job_id], deadline[members[-1].job_id]):
            columns.extend(("x", t, c, k) for c in resources)
    for k, (_work, _resources, members) in enumerate(classes):
        ends = sorted({deadline[job.job_id] for job in members})
        columns.extend(("s", k, b) for b in ends[:-1])
    offset = 0 if fixed_objective is not None else 1
    position = {col: offset + i for i, col in enumerate(columns)}
    n_vars = offset + len(columns)

    ub_rows, ub_rhs = [], []
    for t, c in sorted({(col[1], col[2]) for col in columns if col[0] == "x"}):
        row = np.zeros(n_vars)
        for col in columns:
            if col[0] == "x" and (col[1], col[2]) == (t, c):
                row[position[col]] = 1.0
        length = interval_length(structure, t)
        speed = problem.resources[c].speed
        if fixed_objective is None:
            row[0] = -speed * length.coef
            ub_rhs.append(speed * length.const)
        else:
            ub_rhs.append(speed * max(0.0, length.at(fixed_objective)))
        ub_rows.append(row)
    eq_rows, eq_rhs = [], []
    for k, (work, _resources, members) in enumerate(classes):
        first = start[members[0].job_id]
        ends = sorted({deadline[job.job_id] for job in members})
        for e in sorted({start[job.job_id] for job in members} - {first}):
            before = [b for b in ends if b <= e]
            lo = before[-1] if before else first
            row = np.zeros(n_vars)
            for col in columns:
                if col[0] == "x" and col[3] == k and lo <= col[1] < e:
                    row[position[col]] = 1.0
            if before:
                row[position["s", k, lo]] = 1.0
            released = sum(start[job.job_id] < e for job in members)
            due = sum(deadline[job.job_id] <= lo for job in members) if before else 0
            ub_rows.append(row)
            ub_rhs.append((released - due) * work)
        for i, b in enumerate(ends):
            lo = ends[i - 1] if i else first
            row = np.zeros(n_vars)
            for col in columns:
                if col[0] == "x" and col[3] == k and lo <= col[1] < b:
                    row[position[col]] = 1.0
            if i:
                row[position["s", k, lo]] = 1.0
            if i < len(ends) - 1:
                row[position["s", k, b]] = -1.0
            eq_rows.append(row)
            eq_rhs.append(sum(deadline[job.job_id] == b for job in members) * work)
    return (
        np.array(ub_rows).reshape(-1, n_vars),
        np.array(ub_rhs),
        np.array(eq_rows).reshape(-1, n_vars),
        np.array(eq_rhs),
        columns,
    )


class TestVectorizedAssembly:
    """The array skeleton's ``LPSpec`` is the class LP written row by row."""

    def make_problem(self) -> MaxStretchProblem:
        # Jobs 0/1 and 2/3 form two classes with a later release each (one
        # release row per class); job 4 is a class of its own.
        resources = (
            Resource(0, speed=2.0, machine_ids=(0, 1)),
            Resource(1, speed=1.5, machine_ids=(2,)),
        )
        jobs = (
            LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
                  flow_factor=2.0, resources=(0,)),
            LPJob(4, earliest_start=0.5, remaining_work=1.0, release=0.5,
                  flow_factor=0.5, resources=(1,)),
            LPJob(1, earliest_start=1.0, remaining_work=4.0, release=1.0,
                  flow_factor=2.0, resources=(0,)),
            LPJob(2, earliest_start=1.0, remaining_work=3.0, release=1.0,
                  flow_factor=1.5, resources=(0, 1)),
            LPJob(3, earliest_start=1.5, remaining_work=3.0, release=1.5,
                  flow_factor=1.5, resources=(0, 1)),
        )
        return MaxStretchProblem(resources=resources, jobs=jobs)

    PROBE = 2.75

    def _skeleton(self, problem):
        from repro.lp.intervals import build_interval_structure
        from repro.lp.maxstretch import build_skeleton

        skeleton = build_skeleton(problem, build_interval_structure(problem, self.PROBE))
        assert skeleton is not None
        return skeleton

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

    def _spec(self, problem, skeleton, fixed_objective):
        from repro.lp.maxstretch import _lp_spec

        if fixed_objective is None:
            return _lp_spec(problem, skeleton, f_range=(1.0, 5.0))
        costs = np.arange(1.0, skeleton.n_variables + 1.0)
        return _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_constraint_matrices_bit_identical(self, fixed_objective):
        problem = self.make_problem()
        skeleton = self._skeleton(problem)
        spec = self._spec(problem, skeleton, fixed_objective)
        *want, columns = _reference_class_lp(
            problem, skeleton.structure, fixed_objective=fixed_objective
        )
        assert spec.n_vars == (fixed_objective is None) + len(columns)
        # Three classes, two of them with a later release; five chain rows.
        assert want[0].shape[0] == skeleton.cap_c.size + 2
        assert want[2].shape[0] == 5
        for got, expected in zip(self._dense(spec), want):
            assert np.array_equal(got, expected)  # exact, not approx

    def test_columns_come_class_by_class(self):
        problem = self.make_problem()
        skeleton = self._skeleton(problem)
        *_arrays, columns = _reference_class_lp(
            problem, skeleton.structure, fixed_objective=None
        )
        x_cols = [col[1:] for col in columns if col[0] == "x"]
        got = list(zip(skeleton.key_t.tolist(), skeleton.key_c.tolist(), skeleton.key_k.tolist()))
        assert got == x_cols
        assert skeleton.n_slacks == len(columns) - len(x_cols)

    def test_sparsity_pattern_drops_zero_f_coefficients(self):
        """Zero F-column coefficients are filtered exactly like the old loop."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        spec = _lp_spec(problem, self._skeleton(problem), f_range=(0.0, np.inf))
        f_entries = np.asarray(spec.ub_vals)[np.asarray(spec.ub_cols) == 0]
        assert f_entries.size > 0
        assert np.all(f_entries != 0.0)

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_objective_and_bounds_equal_the_former_float_lists(self, fixed_objective):
        """Element-wise, bit for bit, the python-float lists the builder passed."""
        from repro.lp.maxstretch import _lp_spec

        problem = self.make_problem()
        skeleton = self._skeleton(problem)
        n_cols = skeleton.n_variables
        if fixed_objective is None:
            spec = _lp_spec(problem, skeleton, f_range=(1, 5))
            former = (
                [1.0] + [0.0] * n_cols,
                [float(1)] + [0.0] * n_cols,
                [float(5)] + [math.inf] * n_cols,
            )
        else:
            costs = np.arange(1.0, n_cols + 1.0)
            spec = _lp_spec(problem, skeleton, fixed_objective=fixed_objective, costs=costs)
            former = (costs.tolist(), [0.0] * n_cols, [math.inf] * n_cols)
        for field, old in zip((spec.objective, spec.lower, spec.upper), former):
            got = np.asarray(field)
            assert got.dtype == np.float64
            assert got.tolist() == old
            assert np.array_equal(got.view(np.int64), np.array(old).view(np.int64))

    @pytest.mark.parametrize("fixed_objective", [None, 2.75])
    def test_row_ids(self, fixed_objective):
        """Capacity rows by (interval, resource), release rows, then chain rows."""
        from repro.lp.maxstretch import warm_hint

        problem = self.make_problem()
        skeleton = self._skeleton(problem)
        spec = self._spec(problem, skeleton, fixed_objective)
        hint = warm_hint(skeleton, with_objective_var=fixed_objective is None)
        assert hint.row_ids.size == spec.n_rows
        assert hint.col_ids.size == spec.n_vars
        caps = [(int(i) >> 12, int(i) & 0xFFF) for i in hint.row_ids[: skeleton.cap_c.size]]
        assert caps == sorted(set(caps))
        rest = [(int(i) >> 59, int(i) & 0xFFFFFF) for i in hint.row_ids[skeleton.cap_c.size:]]
        # Release rows name the later member (jobs 1 and 3), chain rows the
        # first member due at their deadline, class by class.
        assert rest == [(1, 1), (1, 3), (2, 0), (2, 1), (2, 4), (2, 2), (2, 3)]


def _fifo_by_loop(problem, skeleton, offset, values):
    """Split the class columns member by member, one column at a time."""
    from repro.lp.maxstretch import _ALLOCATION_EPS

    works = problem.remaining_works()
    out = {}
    for k in range(skeleton.col_start.size - 1):
        lo, hi = skeleton.col_start[k], skeleton.col_start[k + 1]
        members = range(skeleton.member_start[k], skeleton.member_start[k + 1])
        done = [0.0]
        for v in values[offset + lo:offset + hi]:
            done.append(done[-1] + max(float(v), 0.0))
        work = float(works[skeleton.class_pos[k]])
        for r, m in enumerate(members):
            own_lo = max(r * work, done[skeleton.member_lo[m] - lo])
            due = math.inf if m == members[-1] else (r + 1) * work
            own_hi = max(own_lo, min(due, done[skeleton.member_hi[m] - lo]))
            for i in range(hi - lo):
                piece = min(done[i + 1], own_hi) - max(done[i], own_lo)
                if piece <= 0:
                    continue
                if done[i] >= own_lo and done[i + 1] <= own_hi:
                    piece = max(float(values[offset + lo + i]), 0.0)
                if piece > _ALLOCATION_EPS * max(1.0, work):
                    key = (
                        int(skeleton.key_t[lo + i]),
                        int(skeleton.key_c[lo + i]),
                        int(skeleton.member_id[m]),
                    )
                    out[key] = piece
    job_order = {job.job_id: pos for pos, job in enumerate(problem.jobs)}
    return dict(sorted(out.items(), key=lambda item: job_order[item[0][2]]))


@st.composite
def skeleton_cases(draw):
    """A random problem and a probe inside (or on) one of its milestone intervals.

    Integer-valued dates make starts coincide with deadlines at milestones,
    so probes drawn *on* a milestone give zero-length intervals; earliest
    starts after the release give the jobs with no interval (``None``).
    Works and flow factors come from small sets, so classes have several
    members.
    """
    n_res = draw(st.integers(1, 3))
    resources = tuple(
        Resource(c, speed=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])), machine_ids=(c,))
        for c in range(n_res)
    )
    online = draw(st.booleans())
    now = 4.0
    jobs = []
    for job_id in draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)):
        release = float(draw(st.integers(0, 4)))
        eligible = draw(st.permutations(range(n_res)))[: draw(st.integers(1, n_res))]
        jobs.append(
            LPJob(
                job_id,
                earliest_start=(
                    now if online else release + draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
                ),
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


class TestClassSkeleton:
    """The class skeleton against the per-job one and a loop-written FIFO split."""

    @settings(max_examples=150, deadline=None)
    @given(skeleton_cases(), st.integers(0, 2**32 - 1))
    def test_structure_and_fifo_split(self, case, seed):
        from repro.lp.intervals import build_interval_structure
        from repro.lp.maxstretch import _extract_allocations, build_skeleton, warm_hint

        problem, probe = case
        structure = build_interval_structure(problem, probe)
        skeleton = build_skeleton(problem, structure)
        per_job = build_per_job_skeleton(problem, structure)
        assert (skeleton is None) == (per_job is None)
        if skeleton is None:
            return
        # Never more chain rows than the per-job LP has completeness rows;
        # on-line (one start for all) never more columns either.
        n_jobs = len(problem.jobs)
        assert skeleton.chain_count.size <= n_jobs
        assert skeleton.chain_count.sum() == n_jobs
        if len({job.earliest_start for job in problem.jobs}) == 1:
            assert skeleton.key_t.size <= per_job.n_variables
            assert skeleton.rel_count.size == 0
        hint = warm_hint(skeleton, with_objective_var=False)
        assert np.unique(hint.col_ids).size == hint.col_ids.size
        assert np.unique(hint.row_ids).size == hint.row_ids.size
        if skeleton.chain_count.size == n_jobs:
            # Every job due alone: the chain rows carry the completeness ids.
            chain_ids = hint.row_ids[hint.row_ids.size - n_jobs:]
            assert set(chain_ids.tolist()) == set(per_job.warm_row_ids[-n_jobs:].tolist())

        rng = np.random.default_rng(seed)
        for offset in (0, 1):
            values = rng.choice(
                [0.0, -1e-12, 1e-13, 1e-9, 0.25, 2.0], size=offset + skeleton.n_variables
            )
            got = share_dict(_extract_allocations(problem, skeleton, offset, values))
            want = _fifo_by_loop(problem, skeleton, offset, values)
            assert list(got) == list(want)  # same keys, same order
            assert np.allclose(list(got.values()), list(want.values()), rtol=1e-12, atol=1e-12)
            windows = job_windows(problem, structure)
            for (t, _c, j), _work in got.items():
                assert t in windows[j]
