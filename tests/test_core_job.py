"""Unit tests for :mod:`repro.core.job`."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.core.job import Job, JobSet, jobs_sorted_by_release, renumber_jobs


class TestJob:
    def test_basic_construction(self):
        job = Job(3, release=1.5, size=10.0, databank="db", name="scan")
        assert job.job_id == 3
        assert job.release == 1.5
        assert job.size == 10.0
        assert job.databank == "db"
        assert job.label == "scan"

    def test_default_label_uses_id(self):
        assert Job(7, release=0.0, size=1.0).label == "J7"

    def test_negative_id_rejected(self):
        with pytest.raises(ModelError):
            Job(-1, release=0.0, size=1.0)

    def test_negative_release_rejected(self):
        with pytest.raises(ModelError):
            Job(0, release=-1.0, size=1.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ModelError):
            Job(0, release=0.0, size=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            Job(0, release=0.0, size=1.0, weight=-2.0)

    def test_infinite_size_rejected(self):
        with pytest.raises(ModelError):
            Job(0, release=0.0, size=float("inf"))

    def test_with_id_returns_copy(self):
        job = Job(0, release=0.0, size=1.0)
        assert job.with_id(9).job_id == 9
        assert job.job_id == 0

    def test_jobs_are_hashable_and_frozen(self):
        job = Job(0, release=0.0, size=1.0)
        assert hash(job) == hash(Job(0, release=0.0, size=1.0))
        with pytest.raises(AttributeError):
            job.size = 2.0  # type: ignore[misc]


class TestJobSet:
    def make(self):
        return JobSet(
            [
                Job(2, release=3.0, size=1.0),
                Job(0, release=0.0, size=4.0),
                Job(1, release=1.0, size=2.0),
            ]
        )

    def test_len_and_iteration(self):
        jobs = self.make()
        assert len(jobs) == 3
        assert {j.job_id for j in jobs} == {0, 1, 2}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            JobSet([Job(0, release=0.0, size=1.0), Job(0, release=1.0, size=1.0)])

    def test_non_job_rejected(self):
        with pytest.raises(ModelError):
            JobSet([object()])  # type: ignore[list-item]

    def test_by_id(self):
        jobs = self.make()
        assert jobs.by_id(1).release == 1.0
        with pytest.raises(KeyError):
            jobs.by_id(42)

    def test_sorted_by_release(self):
        jobs = self.make().sorted_by_release()
        assert [j.job_id for j in jobs] == [0, 1, 2]

    def test_released_before(self):
        jobs = self.make()
        assert jobs.released_before(1.0).ids() == (1, 0) or set(
            jobs.released_before(1.0).ids()
        ) == {0, 1}
        assert set(jobs.released_before(1.0, inclusive=False).ids()) == {0}
        assert len(jobs.released_before(100.0)) == 3

    def test_total_work_and_size_ratio(self):
        jobs = self.make()
        assert jobs.total_work() == pytest.approx(7.0)
        assert jobs.size_ratio() == pytest.approx(4.0)

    def test_size_ratio_empty_raises(self):
        with pytest.raises(ModelError):
            JobSet([]).size_ratio()

    def test_databanks(self):
        jobs = JobSet(
            [
                Job(0, release=0.0, size=1.0, databank="a"),
                Job(1, release=0.0, size=1.0, databank="b"),
                Job(2, release=0.0, size=1.0),
            ]
        )
        assert jobs.databanks() == frozenset({"a", "b"})

    def test_contains_and_equality(self):
        jobs = self.make()
        assert Job(0, release=0.0, size=4.0) in jobs
        assert Job(0, release=0.0, size=5.0) not in jobs
        assert jobs == JobSet(list(jobs))
        assert jobs != JobSet([Job(0, release=0.0, size=4.0)])

    def test_slicing_returns_jobset(self):
        jobs = self.make()
        subset = jobs[:2]
        assert isinstance(subset, JobSet)
        assert len(subset) == 2

    def test_ids_order_preserved(self):
        jobs = self.make()
        assert jobs.ids() == (2, 0, 1)


class TestHelpers:
    def test_jobs_sorted_by_release_tie_broken_by_id(self):
        jobs = [Job(5, release=1.0, size=1.0), Job(2, release=1.0, size=1.0)]
        assert [j.job_id for j in jobs_sorted_by_release(jobs)] == [2, 5]

    def test_renumber_jobs(self):
        jobs = [
            Job(10, release=5.0, size=1.0),
            Job(20, release=0.0, size=2.0),
            Job(30, release=2.0, size=3.0),
        ]
        renumbered = renumber_jobs(jobs)
        assert [j.job_id for j in renumbered] == [0, 1, 2]
        assert [j.release for j in renumbered] == [0.0, 2.0, 5.0]
        assert [j.size for j in renumbered] == [2.0, 3.0, 1.0]
