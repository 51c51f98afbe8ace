"""Unit tests for :mod:`repro.core.instance`."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform


@pytest.fixture
def platform() -> Platform:
    return Platform(
        [
            Machine(0, 1.0, 0, frozenset({"a"})),
            Machine(1, 0.5, 1, frozenset({"a", "b"})),
            Machine(2, 2.0, 2, frozenset({"b"})),
        ]
    )


@pytest.fixture
def instance(platform) -> Instance:
    jobs = [
        Job(0, release=0.0, size=4.0, databank="a"),
        Job(1, release=1.0, size=2.0, databank="b"),
        Job(2, release=0.5, size=8.0, databank="a"),
    ]
    return Instance(jobs, platform)


class TestConstruction:
    def test_jobs_sorted_by_release(self, instance):
        assert [j.job_id for j in instance.jobs] == [0, 2, 1]

    def test_counts(self, instance):
        assert instance.n_jobs == 3
        assert instance.n_machines == 3

    def test_unhostable_job_rejected(self, platform):
        with pytest.raises(ModelError):
            Instance([Job(0, release=0.0, size=1.0, databank="zzz")], platform)

    def test_unhostable_job_allowed_when_not_required(self, platform):
        inst = Instance(
            [Job(0, release=0.0, size=1.0, databank="zzz")], platform, require_feasible=False
        )
        assert inst.n_jobs == 1

    def test_platform_type_checked(self):
        with pytest.raises(ModelError):
            Instance([], platform="not a platform")  # type: ignore[arg-type]

    def test_equality_and_hash(self, instance, platform):
        clone = Instance(list(instance.jobs), platform)
        assert clone == instance
        assert hash(clone) == hash(instance)


class TestDerivedQuantities:
    def test_processing_time_uniform_formula(self, instance):
        # p_{i,j} = W_j * p_i
        assert instance.processing_time(0, 0) == pytest.approx(4.0)
        assert instance.processing_time(1, 0) == pytest.approx(2.0)

    def test_processing_time_infinite_when_not_hosted(self, instance):
        assert math.isinf(instance.processing_time(2, 0))  # machine 2 has only "b"
        assert math.isinf(instance.processing_time(0, 1))  # machine 0 has only "a"

    def test_eligible_machines(self, instance):
        assert [m.machine_id for m in instance.eligible_machines(0)] == [0, 1]
        assert instance.eligible_machine_ids(1) == (1, 2)

    def test_jobs_of_one_databank_share_their_eligible_tuples(self, instance):
        assert instance.eligible_machine_ids(0) == (0, 1)
        assert instance.eligible_machine_ids(0) is instance.eligible_machine_ids(2)
        assert instance.eligible_machines(0) is instance.eligible_machines(2)

    def test_eligible_classes(self, instance):
        classes = instance.eligible_classes(1)
        banks = {cls.databanks for cls in classes}
        assert frozenset({"b"}) in banks
        assert frozenset({"a", "b"}) in banks

    def test_aggregate_speed_and_ideal_time(self, instance):
        # Job 0 (databank a): machines 0 (speed 1) and 1 (speed 2) -> 3.
        assert instance.aggregate_speed(0) == pytest.approx(3.0)
        assert instance.ideal_time(0) == pytest.approx(4.0 / 3.0)
        # Job 1 (databank b): machines 1 (speed 2) and 2 (speed 0.5) -> 2.5.
        assert instance.ideal_time(1) == pytest.approx(2.0 / 2.5)

    def test_stretch_weight_is_inverse_ideal_time(self, instance):
        assert instance.stretch_weight(0) == pytest.approx(1.0 / instance.ideal_time(0))

    def test_weight_prefers_explicit_weight(self, platform):
        inst = Instance([Job(0, release=0.0, size=2.0, databank="a", weight=5.0)], platform)
        assert inst.weight(0) == pytest.approx(5.0)

    def test_delta(self, instance):
        assert instance.delta() == pytest.approx(8.0 / 2.0)

    def test_is_uniform(self, instance):
        assert not instance.is_uniform()
        uniform = Instance(
            [Job(0, release=0.0, size=1.0, databank="a")],
            Platform.uniform([1.0, 2.0], databanks=["a"]),
        )
        assert uniform.is_uniform()

    def test_lower_bound_makespan(self, instance):
        bound = instance.lower_bound_makespan()
        total_work = sum(j.size for j in instance.jobs)
        assert bound >= total_work / instance.platform.aggregate_speed() - 1e-12
        assert bound >= max(
            j.release + instance.ideal_time(j.job_id) for j in instance.jobs
        ) - 1e-12

    def test_describe_contains_jobs(self, instance):
        text = instance.describe()
        assert "J0" in text and "databank" in text


class TestProjections:
    def test_restrict_jobs(self, instance):
        sub = instance.restrict_jobs([0, 1])
        assert sub.n_jobs == 2
        assert set(sub.jobs.ids()) == {0, 1}
        assert sub.platform == instance.platform

    def test_released_before(self, instance):
        assert set(instance.released_before(0.5).jobs.ids()) == {0, 2}
        assert set(instance.released_before(0.5, inclusive=False).jobs.ids()) == {0}

    def test_with_jobs_and_with_platform(self, instance, platform):
        new = instance.with_jobs([Job(9, release=0.0, size=1.0, databank="b")])
        assert new.n_jobs == 1
        smaller = instance.with_platform(platform.restrict_to([1]))
        assert smaller.n_machines == 1
