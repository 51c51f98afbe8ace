"""Unit tests for :mod:`repro.core.schedule`."""

from __future__ import annotations

import pytest

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.core.schedule import Schedule, WorkSlice

from helpers import machine_utilization, preemption_count


@pytest.fixture
def instance() -> Instance:
    platform = Platform(
        [
            Machine(0, 1.0, 0, frozenset({"a"})),
            Machine(1, 0.5, 1, frozenset({"a", "b"})),
        ]
    )
    jobs = [
        Job(0, release=0.0, size=3.0, databank="a"),
        Job(1, release=1.0, size=2.0, databank="b"),
    ]
    return Instance(jobs, platform)


def valid_schedule() -> Schedule:
    return Schedule(
        [
            WorkSlice(job_id=0, machine_id=0, start=0.0, end=1.0, work=1.0),
            WorkSlice(job_id=0, machine_id=1, start=0.0, end=1.0, work=2.0),
            WorkSlice(job_id=1, machine_id=1, start=1.0, end=2.0, work=2.0),
        ]
    )


class TestWorkSlice:
    def test_duration(self):
        s = WorkSlice(0, 0, 1.0, 3.0, 2.0)
        assert s.duration == pytest.approx(2.0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ScheduleError):
            WorkSlice(0, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ScheduleError):
            WorkSlice(0, 0, 2.0, 1.0, 1.0)

    def test_rejects_non_positive_work(self):
        with pytest.raises(ScheduleError):
            WorkSlice(0, 0, 0.0, 1.0, 0.0)


class TestScheduleQueries:
    def test_completion_times(self, instance):
        schedule = valid_schedule()
        completions = schedule.completion_times()
        assert completions[0] == pytest.approx(1.0)
        assert completions[1] == pytest.approx(2.0)
        assert schedule.completion_time(1) == pytest.approx(2.0)

    def test_makespan_and_start_time(self):
        schedule = valid_schedule()
        assert schedule.makespan() == pytest.approx(2.0)
        assert schedule.start_time(1) == pytest.approx(1.0)
        assert Schedule([]).makespan() == 0.0

    def test_work_done_and_busy_time(self, instance):
        schedule = valid_schedule()
        assert schedule.work_done(0) == pytest.approx(3.0)
        assert schedule.busy_time(1) == pytest.approx(2.0)
        assert schedule.busy_time(0) == pytest.approx(1.0)

    def test_machine_utilization(self, instance):
        schedule = valid_schedule()
        util = machine_utilization(schedule, instance)
        assert util[0] == pytest.approx(0.5)
        assert util[1] == pytest.approx(1.0)

    def test_slices_lookup(self):
        schedule = valid_schedule()
        assert len(schedule.slices_for_job(0)) == 2
        assert len(schedule.slices_on_machine(1)) == 2
        assert {s.job_id for s in schedule.slices} == {0, 1}
        assert schedule.machine_ids() == frozenset({0, 1})

    def test_preemption_count_zero_for_contiguous(self):
        schedule = valid_schedule()
        assert preemption_count(schedule) == 0

    def test_preemption_count_detects_gap(self):
        schedule = Schedule(
            [
                WorkSlice(0, 0, 0.0, 1.0, 1.0),
                WorkSlice(0, 0, 2.0, 3.0, 1.0),
            ]
        )
        assert preemption_count(schedule) == 1

    def test_merged_with(self):
        a = Schedule([WorkSlice(0, 0, 0.0, 1.0, 1.0)])
        b = Schedule([WorkSlice(1, 0, 1.0, 2.0, 1.0)])
        assert len(a.merged_with(b)) == 2

    def test_gantt_renders(self, instance):
        text = valid_schedule().gantt(instance, width=20)
        assert "M0" in text and "M1" in text
        assert Schedule([]).gantt(instance) == "(empty schedule)"


class TestFromColumns:
    def test_columns_answer_like_the_slices(self):
        expected = valid_schedule()
        runs = list(reversed(expected.slices))
        columns = [[getattr(s, field) for s in runs]
                   for field in ("job_id", "machine_id", "start", "end", "work")]
        schedule = Schedule.from_columns(*columns)
        # Derived quantities read the slices built from the columns, so they
        # come out as those of the slices, dict order included.
        assert len(schedule) == len(expected)
        assert schedule.makespan() == expected.makespan()
        assert list(schedule.completion_times().items()) == list(
            expected.completion_times().items()
        )
        assert schedule.slices == expected.slices
        assert Schedule.from_columns([], [], [], [], []).makespan() == 0.0

    @pytest.mark.parametrize(
        "columns, match",
        [
            (([0], [0], [1.0], [1.0], [1.0]), "non-positive duration"),
            (([0], [0], [0.0], [1.0], [0.0]), "non-positive work"),
            (([0, 1], [0], [0.0], [1.0], [1.0]), "equal length"),
        ],
    )
    def test_rejects_what_a_slice_rejects(self, columns, match):
        with pytest.raises(ScheduleError, match=match):
            Schedule.from_columns(*columns)


class TestValidation:
    def test_valid_schedule_passes(self, instance):
        valid_schedule().validate(instance)

    def test_unknown_job_detected(self, instance):
        schedule = Schedule([WorkSlice(42, 0, 0.0, 1.0, 1.0)])
        problems = schedule.violations(instance, require_complete=False)
        assert any("unknown job" in p for p in problems)

    def test_unknown_machine_detected(self, instance):
        schedule = Schedule([WorkSlice(0, 42, 0.0, 1.0, 1.0)])
        problems = schedule.violations(instance, require_complete=False)
        assert any("unknown machine" in p for p in problems)

    def test_release_violation_detected(self, instance):
        schedule = Schedule([WorkSlice(1, 1, 0.0, 1.0, 2.0)])  # job 1 releases at 1.0
        problems = schedule.violations(instance, require_complete=False)
        assert any("before its release" in p for p in problems)

    def test_databank_violation_detected(self, instance):
        schedule = Schedule([WorkSlice(1, 0, 1.0, 2.0, 1.0)])  # machine 0 lacks databank b
        problems = schedule.violations(instance, require_complete=False)
        assert any("does not host" in p for p in problems)

    def test_capacity_violation_detected(self, instance):
        # Machine 1 has speed 2: doing 5 units of work in 1 second is impossible.
        schedule = Schedule([WorkSlice(0, 1, 0.0, 1.0, 5.0)])
        problems = schedule.violations(instance, require_complete=False)
        assert any("capacity" in p for p in problems)

    def test_overlap_detected(self, instance):
        schedule = Schedule(
            [
                WorkSlice(0, 0, 0.0, 1.0, 1.0),
                WorkSlice(0, 0, 0.5, 1.5, 1.0),
            ]
        )
        problems = schedule.violations(instance, require_complete=False)
        assert any("overlaps" in p for p in problems)

    def test_incomplete_execution_detected(self, instance):
        schedule = Schedule([WorkSlice(0, 0, 0.0, 1.0, 1.0)])
        problems = schedule.violations(instance)
        assert any("executed" in p for p in problems)
        # but passes when completeness is not required
        assert schedule.violations(instance, require_complete=False) == []

    def test_validate_raises_schedule_error(self, instance):
        schedule = Schedule([WorkSlice(0, 0, 0.0, 1.0, 1.0)])
        with pytest.raises(ScheduleError):
            schedule.validate(instance)
