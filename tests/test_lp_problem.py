"""Unit tests for :mod:`repro.lp.problem`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.lp.problem import (
    Affine,
    LPJob,
    MaxStretchProblem,
    Resource,
    build_job_table,
    build_resources,
    eligible_resources,
    job_rows,
    problem_from_instance,
)

from replan_oracles import problem_from_instance_general


class TestAffine:
    def test_evaluation(self):
        fn = Affine(2.0, 3.0)
        assert fn.at(0.0) == 2.0
        assert fn.at(1.5) == pytest.approx(6.5)

    def test_arithmetic(self):
        a, b = Affine(2.0, 3.0), Affine(1.0, 1.0)
        assert (a - b).at(2.0) == pytest.approx(a.at(2.0) - b.at(2.0))
        assert (a + b).at(2.0) == pytest.approx(a.at(2.0) + b.at(2.0))


class TestResource:
    def test_validation(self):
        with pytest.raises(ModelError):
            Resource(index=0, speed=0.0, machine_ids=(0,))
        with pytest.raises(ModelError):
            Resource(index=0, speed=1.0, machine_ids=())


class TestLPJob:
    def make(self, **overrides):
        defaults = dict(
            job_id=0,
            earliest_start=1.0,
            remaining_work=2.0,
            release=0.5,
            flow_factor=1.5,
            resources=(0,),
        )
        defaults.update(overrides)
        return LPJob(**defaults)

    def test_deadline_formula(self):
        job = self.make()
        assert job.deadline(2.0) == pytest.approx(0.5 + 2.0 * 1.5)
        affine = job.deadline_affine()
        assert affine.const == 0.5 and affine.coef == 1.5
        assert job.start_affine().at(123.0) == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            self.make(remaining_work=0.0)
        with pytest.raises(ModelError):
            self.make(flow_factor=0.0)
        with pytest.raises(ModelError):
            self.make(earliest_start=0.0)  # before release
        with pytest.raises(ModelError):
            self.make(resources=())


class TestMaxStretchProblem:
    def make_problem(self) -> MaxStretchProblem:
        resources = (
            Resource(0, speed=2.0, machine_ids=(0, 1)),
            Resource(1, speed=1.0, machine_ids=(2,)),
        )
        jobs = (
            LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
                  flow_factor=2.0, resources=(0,)),
            LPJob(1, earliest_start=1.0, remaining_work=3.0, release=1.0,
                  flow_factor=1.0, resources=(0, 1)),
        )
        return MaxStretchProblem(resources=resources, jobs=jobs)

    def test_lookups(self):
        problem = self.make_problem()
        assert problem.n_jobs == 2
        assert problem.n_resources == 2
        assert problem.job_by_id(1).remaining_work == 3.0
        with pytest.raises(KeyError):
            problem.job_by_id(9)

    def test_eligible_speed(self):
        problem = self.make_problem()
        assert problem.eligible_speed(problem.job_by_id(0)) == pytest.approx(2.0)
        assert problem.eligible_speed(problem.job_by_id(1)) == pytest.approx(3.0)

    def test_objective_bounds(self):
        problem = self.make_problem()
        lower = problem.objective_lower_bound()
        upper = problem.objective_upper_bound()
        # Job 0 alone needs 4/2 = 2 seconds -> weighted flow 2 / 2.0 = 1.
        # Job 1 alone needs 3/3 = 1 second -> weighted flow 1 / 1.0 = 1.
        assert lower == pytest.approx(1.0)
        assert upper >= lower

    def test_job_by_id_is_cached_map(self):
        problem = self.make_problem()
        first = problem.job_by_id(0)
        # The id -> job map is built once and stashed in the instance dict.
        assert "_by_id" in problem.__dict__
        assert problem.job_by_id(0) is first
        # Caches never leak into dataclass equality.
        assert problem == self.make_problem()

    def test_eligible_speed_memoized_per_resource_tuple(self):
        problem = self.make_problem()
        job0, job1 = problem.jobs
        assert problem.eligible_speed(job0) == pytest.approx(2.0)
        memo = problem.__dict__["_espeed_memo"]
        assert memo == {(0,): 2.0}
        assert problem.eligible_speed(job1) == pytest.approx(3.0)
        assert set(memo) == {(0,), (0, 1)}
        # A foreign LPJob sharing a known resource tuple hits the memo too.
        foreign = LPJob(9, earliest_start=0.0, remaining_work=1.0, release=0.0,
                        flow_factor=1.0, resources=(0, 1))
        assert problem.eligible_speed(foreign) == pytest.approx(3.0)

    def test_cached_arrays_match_job_order(self):
        import numpy as np

        problem = self.make_problem()
        assert np.array_equal(problem.resource_speeds(), [2.0, 1.0])
        assert np.array_equal(problem.remaining_works(), [4.0, 3.0])
        assert problem.resource_speeds() is problem.resource_speeds()  # cached

    def test_resource_index_mismatch_rejected(self):
        with pytest.raises(ModelError):
            MaxStretchProblem(
                resources=(Resource(1, speed=1.0, machine_ids=(0,)),),
                jobs=(),
            )

    def test_unknown_resource_reference_rejected(self):
        with pytest.raises(ModelError):
            MaxStretchProblem(
                resources=(Resource(0, speed=1.0, machine_ids=(0,)),),
                jobs=(
                    LPJob(0, earliest_start=0.0, remaining_work=1.0, release=0.0,
                          flow_factor=1.0, resources=(5,)),
                ),
            )

    def test_empty_problem_bounds(self):
        problem = MaxStretchProblem(resources=(), jobs=())
        assert problem.objective_lower_bound() == 0.0
        assert problem.objective_upper_bound() == 0.0


class TestProblemFromInstance:
    @pytest.fixture
    def instance(self) -> Instance:
        platform = Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 1.0, 0, frozenset({"a"})),
                Machine(2, 0.5, 1, frozenset({"a", "b"})),
            ]
        )
        jobs = [
            Job(0, release=0.0, size=4.0, databank="a"),
            Job(1, release=1.0, size=2.0, databank="b"),
        ]
        return Instance(jobs, platform)

    def test_resources_are_capability_classes(self, instance):
        problem = problem_from_instance(instance)
        assert problem.n_resources == 2
        speeds = sorted(r.speed for r in problem.resources)
        assert speeds == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_offline_jobs_use_release_and_full_size(self, instance):
        problem = problem_from_instance(instance)
        job0 = problem.job_by_id(0)
        assert job0.earliest_start == 0.0
        assert job0.remaining_work == 4.0
        # Stretch flow factor = ideal time = size / eligible speed = 4 / 4 = 1.
        assert job0.flow_factor == pytest.approx(instance.ideal_time(0))

    def test_eligibility_respects_databanks(self, instance):
        problem = problem_from_instance(instance)
        job1 = problem.job_by_id(1)
        eligible_banks = {problem.resources[r].databanks for r in job1.resources}
        assert all("b" in banks for banks in eligible_banks)

    def test_online_remaining_restricts_jobs(self, instance):
        problem = problem_from_instance(instance, now=2.0, remaining={0: 1.5})
        assert problem.n_jobs == 1
        job0 = problem.job_by_id(0)
        assert job0.remaining_work == 1.5
        assert job0.earliest_start == 2.0
        assert job0.release == 0.0  # deadline still anchored at the true release

    def test_offline_at_a_later_time_keeps_every_job_whole(self, instance):
        problem = problem_from_instance(instance, now=0.5)
        assert [(j.job_id, j.remaining_work) for j in problem.jobs] == [(0, 4.0), (1, 2.0)]
        assert [j.earliest_start for j in problem.jobs] == [0.5, 1.0]

    def test_completed_jobs_dropped(self, instance):
        problem = problem_from_instance(instance, now=2.0, remaining={0: 0.0, 1: 1.0})
        assert [j.job_id for j in problem.jobs] == [1]


class TestJobTableFastPath:
    @pytest.fixture
    def instance(self) -> Instance:
        platform = Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 1.0, 0, frozenset({"a"})),
                Machine(2, 0.5, 1, frozenset({"a", "b"})),
            ]
        )
        jobs = [
            Job(0, release=0.0, size=4.0, databank="a"),
            Job(1, release=1.0, size=2.0, databank="b"),
            Job(2, release=2.0, size=3.0, databank="a"),
        ]
        return Instance(jobs, platform)

    def test_replan_shape_bit_identical_to_general_path(self, instance):
        resources = build_resources(instance.platform)
        table = build_job_table(instance, resources)
        remaining = {0: 1.5, 1: 2.0, 2: 0.0}  # job 2 completed
        general = problem_from_instance_general(
            instance, now=2.5, remaining=remaining, resources=resources
        )
        fast = problem_from_instance(
            instance, now=2.5, remaining=remaining, resources=resources, job_table=table
        )
        assert fast == general  # dataclass equality: same jobs, same order

    def test_eligibility_rule(self, instance):
        resources = build_resources(instance.platform)
        assert eligible_resources(resources, None) == (0, 1)
        assert eligible_resources(resources, "a") == (0, 1)
        assert eligible_resources(resources, "b") == (1,)
        assert eligible_resources(resources, "zzz") == ()

    def test_degraded_table_tolerates_inactive_jobs_without_resources(self, instance):
        # Machine 2 (the only host of "b") is down: job 1 has no resource left.
        resources = build_resources(instance.platform.restrict_to([0, 1]))
        table = build_job_table(instance, resources)
        assert table.rows[1][4] == ()
        problem = problem_from_instance(
            instance, now=3.0, remaining={0: 1.0, 2: 3.0}, resources=resources
        )
        assert [job.job_id for job in problem.jobs] == [0, 2]
        with pytest.raises(ModelError, match="no eligible resource"):
            problem_from_instance(
                instance, now=3.0, remaining={0: 1.0, 1: 1.0}, resources=resources
            )

    def test_table_carries_instance_invariants(self, instance):
        table = build_job_table(instance)
        assert [row[0] for row in table.rows] == [0, 1, 2]
        job0 = table.rows[0]
        assert job0[1] == 0.0 and job0[2] == 4.0
        assert job0[3] == pytest.approx(instance.ideal_time(0))

    def test_resources_of_a_restricted_platform(self, instance):
        survivors = build_resources(instance.platform.restrict_to([0, 1]))
        assert [(r.index, r.speed, r.machine_ids) for r in survivors] == [(0, 2.0, (0, 1))]
        resources = build_resources(instance.platform.restrict_to([1, 2]))
        assert [r.index for r in resources] == [0, 1]
        assert sorted((r.machine_ids, r.speed) for r in resources) == [((1,), 1.0), ((2,), 2.0)]

    def test_job_rows_follow_the_given_order(self, instance):
        resources = build_resources(instance.platform)
        rows = job_rows(instance, reversed(instance.jobs), resources)
        assert rows == tuple(reversed(build_job_table(instance, resources).rows))
        for job_id, _release, _size, _factor, eligible in rows:
            databank = instance.job(job_id).databank
            assert eligible == eligible_resources(resources, databank)


@st.composite
def problem_cases(draw):
    """A random instance with ``now``, ``remaining`` and a machine subset.

    ``remaining`` covers a random subset of the jobs, zeros included; jobs
    whose databank no surviving machine hosts are never active.
    """
    banks = ["a", "b", "c"]
    n_machines = draw(st.integers(min_value=1, max_value=5))
    machines = [
        Machine(
            m,
            draw(st.sampled_from([0.5, 1.0, 2.0])),
            m % 2,
            frozenset(draw(st.sets(st.sampled_from(banks), min_size=1))),
        )
        for m in range(n_machines)
    ]
    hosted = sorted(set().union(*(m.databanks for m in machines)))
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    jobs = [
        Job(
            j,
            release=draw(st.floats(min_value=0.0, max_value=10.0)),
            size=draw(st.floats(min_value=0.1, max_value=20.0)),
            databank=draw(st.sampled_from(hosted + [None])),
        )
        for j in range(n_jobs)
    ]
    instance = Instance(jobs, Platform(machines))
    up = draw(st.sets(st.integers(min_value=0, max_value=n_machines - 1), min_size=1))
    resources = None
    if len(up) < n_machines:
        resources = build_resources(instance.platform.restrict_to(up))
    now = draw(st.none() | st.floats(min_value=0.0, max_value=15.0))
    remaining = None
    if draw(st.booleans()) or resources is not None:
        remaining = {}
        for job in jobs:
            runnable = resources is None or eligible_resources(resources, job.databank)
            if draw(st.booleans()):
                work = draw(st.sampled_from([0.0, job.size]) | st.floats(0.0, job.size))
                remaining[job.job_id] = work if runnable else 0.0
    return instance, now, remaining, resources


@settings(max_examples=150, deadline=None)
@given(problem_cases())
def test_one_path_equals_the_general_oracle(case):
    instance, now, remaining, resources = case
    got = problem_from_instance(instance, now=now, remaining=remaining, resources=resources)
    want = problem_from_instance_general(
        instance, now=now, remaining=remaining, resources=resources
    )
    assert got == want
    # The seeded caches equal what the dataclasses would give.
    assert np.array_equal(got.remaining_works(), want.remaining_works())
    for seeded, computed in zip(got.job_vectors(), want.job_vectors()):
        assert np.array_equal(seeded, computed)
