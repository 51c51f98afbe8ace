"""Unit tests for :mod:`repro.simulation.state` and events/result objects."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.schedule import Schedule, WorkSlice
from repro.simulation.events import ArrivalEvent, CompletionEvent, DecisionEvent
from repro.simulation.result import SimulationResult
from repro.simulation.state import Assignment, JobRuntime, SchedulerState


@pytest.fixture
def instance() -> Instance:
    platform = Platform.uniform([1.0, 1.0], databanks=["db"])
    jobs = [
        Job(0, release=0.0, size=4.0, databank="db"),
        Job(1, release=1.0, size=2.0, databank="db"),
    ]
    return Instance(jobs, platform)


class TestJobRuntime:
    def test_processed(self, instance):
        runtime = JobRuntime(job=instance.job(0), remaining=4.0)
        assert runtime.processed == 0.0
        runtime.remaining = 1.0
        assert runtime.processed == pytest.approx(3.0)


class TestAssignment:
    def test_idle(self):
        idle = Assignment.idle(valid_until=3.0)
        assert idle.mapping == {}
        assert idle.valid_until == 3.0


class TestSchedulerState:
    def test_release_and_complete_lifecycle(self, instance):
        state = SchedulerState(instance)
        runtime = state.release(instance.job(0))
        assert 0 in state.active
        assert 0 not in state.completions
        assert state.remaining_work(0) == 4.0
        assert state.n_active() == 1
        assert state.released_ids == {0}

        runtime.remaining = 0.0
        state.complete(0, time=4.0)
        assert 0 not in state.active
        assert 0 in state.completions
        assert state.remaining_work(0) == 0.0
        assert state.completions[0] == 4.0

    def test_double_release_rejected(self, instance):
        state = SchedulerState(instance)
        state.release(instance.job(0))
        with pytest.raises(ModelError):
            state.release(instance.job(0))

    def test_complete_inactive_rejected(self, instance):
        state = SchedulerState(instance)
        with pytest.raises(ModelError):
            state.complete(0, time=1.0)

    def test_remaining_of_unreleased_rejected(self, instance):
        state = SchedulerState(instance)
        with pytest.raises(ModelError):
            state.remaining_work(1)

    def test_remaining_map_and_active_jobs(self, instance):
        state = SchedulerState(instance)
        state.release(instance.job(0))
        state.release(instance.job(1))
        assert state.remaining_map() == {0: 4.0, 1: 2.0}
        assert [rt.job_id for rt in state.active_jobs()] == [0, 1]


class TestEventsAndResult:
    def test_event_formatting(self):
        assert "arrival" in str(ArrivalEvent(time=1.0, job_id=3, size=2.0))
        assert "completion" in str(CompletionEvent(time=2.0, job_id=3, flow=1.0, stretch=1.5))
        assert "decision" in str(DecisionEvent(time=0.5, assignment=((0, 1),), n_active=1))
        assert "(all idle)" in str(DecisionEvent(time=0.5, assignment=(), n_active=0))

    def test_result_metrics_and_summary(self, instance):
        schedule = Schedule(
            [
                WorkSlice(0, 0, 0.0, 2.0, 2.0),
                WorkSlice(0, 1, 0.0, 2.0, 2.0),
                WorkSlice(1, 0, 2.0, 4.0, 2.0),
            ]
        )
        result = SimulationResult(
            instance=instance,
            scheduler_name="test",
            schedule=schedule,
            completions={0: 2.0, 1: 4.0},
            scheduler_time=0.01,
            n_decisions=3,
        )
        assert result.max_stretch == pytest.approx(3.0)
        assert result.makespan == pytest.approx(4.0)
        assert result.sum_flow == pytest.approx(5.0)
        assert result.stretches()[0] == pytest.approx(1.0)
        assert "max-stretch" in result.summary()
        assert result.trace_lines() == []
