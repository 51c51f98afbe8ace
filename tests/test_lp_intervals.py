"""Unit tests for :mod:`repro.lp.intervals` and :mod:`repro.lp.milestones`."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.lp.intervals import build_interval_structure
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import LPJob, MaxStretchProblem, Resource

from helpers import boundaries, interval_length, job_windows


def two_job_problem() -> MaxStretchProblem:
    """Two unit-weight jobs on a single unit-speed resource."""
    resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
    jobs = (
        LPJob(0, earliest_start=0.0, remaining_work=4.0, release=0.0,
              flow_factor=4.0, resources=(0,)),
        LPJob(1, earliest_start=2.0, remaining_work=1.0, release=2.0,
              flow_factor=1.0, resources=(0,)),
    )
    return MaxStretchProblem(resources=resources, jobs=jobs)


class TestIntervalStructure:
    def test_boundaries_sorted_at_probe(self):
        problem = two_job_problem()
        structure = build_interval_structure(problem, probe=1.0)
        values = [b.at(1.0) for b in boundaries(structure)]
        assert values == sorted(values)
        # Boundaries: starts at 0 and 2, deadlines at 0 + 4F and 2 + F.
        assert len(boundaries(structure)) == 4
        assert structure.n_intervals == 3

    def test_job_windows(self):
        problem = two_job_problem()
        structure = build_interval_structure(problem, probe=1.0)
        # At F=1: job 0 window is [0, 4], job 1 window is [2, 3].
        windows = job_windows(problem, structure)
        intervals_0 = list(windows[0])
        intervals_1 = list(windows[1])
        bounds = structure.bounds_at(1.0)
        assert bounds[intervals_0[0]][0] == pytest.approx(0.0)
        assert bounds[intervals_0[-1]][1] == pytest.approx(4.0)
        assert bounds[intervals_1[0]][0] == pytest.approx(2.0)
        assert bounds[intervals_1[-1]][1] == pytest.approx(3.0)

    def test_interval_length_affine(self):
        problem = two_job_problem()
        structure = build_interval_structure(problem, probe=1.0)
        for t in range(structure.n_intervals):
            length = interval_length(structure, t)
            lo, hi = structure.bounds_at(1.0)[t]
            assert length.at(1.0) == pytest.approx(hi - lo)

    def test_ordering_changes_across_milestone(self):
        problem = two_job_problem()
        # d_1(F) = 2 + F and d_0(F) = 4F cross at F = 2/3.
        low = build_interval_structure(problem, probe=0.5)
        high = build_interval_structure(problem, probe=1.0)
        order_low = [(b.const, b.coef) for b in boundaries(low)]
        order_high = [(b.const, b.coef) for b in boundaries(high)]
        assert order_low != order_high

    def test_duplicate_boundaries_merged(self):
        resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
        jobs = (
            LPJob(0, earliest_start=1.0, remaining_work=1.0, release=1.0,
                  flow_factor=1.0, resources=(0,)),
            LPJob(1, earliest_start=1.0, remaining_work=2.0, release=1.0,
                  flow_factor=1.0, resources=(0,)),
        )
        problem = MaxStretchProblem(resources=resources, jobs=jobs)
        structure = build_interval_structure(problem, probe=1.0)
        # Both starts coincide and both deadlines coincide -> 2 boundaries.
        assert len(boundaries(structure)) == 2

    def test_negative_probe_rejected(self):
        with pytest.raises(ModelError):
            build_interval_structure(two_job_problem(), probe=-1.0)


class TestMilestones:
    def test_two_job_milestones(self):
        problem = two_job_problem()
        milestones = enumerate_milestones(problem)
        # Crossings: d_0(F) = e_1 -> 4F = 2 -> F = 0.5;
        #            d_0(F) = d_1(F) -> 4F = 2 + F -> F = 2/3;
        #            d_1(F) = e_0 -> 2 + F = 0 -> negative, discarded.
        assert pytest.approx(0.5) in milestones
        assert any(abs(m - 2.0 / 3.0) < 1e-9 for m in milestones)
        assert all(m > 0 for m in milestones)

    def test_milestones_sorted_unique(self):
        problem = two_job_problem()
        milestones = enumerate_milestones(problem)
        assert milestones == sorted(milestones)
        assert len(milestones) == len(set(milestones))

    def test_range_filtering(self):
        problem = two_job_problem()
        assert enumerate_milestones(problem, lower=0.6, upper=0.65) == []
        limited = enumerate_milestones(problem, lower=0.55)
        assert all(m > 0.55 for m in limited)

    def test_empty_problem(self):
        problem = MaxStretchProblem(resources=(), jobs=())
        assert enumerate_milestones(problem) == []

    def test_identical_jobs_have_no_deadline_crossings(self):
        resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
        jobs = tuple(
            LPJob(i, earliest_start=0.0, remaining_work=1.0, release=0.0,
                  flow_factor=1.0, resources=(0,))
            for i in range(3)
        )
        problem = MaxStretchProblem(resources=resources, jobs=jobs)
        # All deadlines coincide for every F and all starts are 0 -> no
        # positive crossing values.
        assert enumerate_milestones(problem) == []

    def test_count_is_quadratically_bounded(self):
        resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
        jobs = tuple(
            LPJob(i, earliest_start=float(i), remaining_work=1.0 + i, release=float(i),
                  flow_factor=1.0 + i, resources=(0,))
            for i in range(8)
        )
        problem = MaxStretchProblem(resources=resources, jobs=jobs)
        milestones = enumerate_milestones(problem)
        n = len(jobs)
        assert len(milestones) <= n * (n - 1)
