"""Unit tests for the simulation engine (:mod:`repro.simulation.engine`)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.schedulers.base import Scheduler
from repro.schedulers.priority import FCFSScheduler, SRPTScheduler
from repro.simulation.engine import SimulationEngine, simulate
from repro.simulation.events import ArrivalEvent, CompletionEvent
from repro.simulation.faults import FaultTimeline
from repro.simulation.state import Assignment


@pytest.fixture
def instance() -> Instance:
    platform = Platform.uniform([1.0, 1.0], databanks=["db"])
    jobs = [
        Job(0, release=0.0, size=4.0, databank="db"),
        Job(1, release=1.0, size=2.0, databank="db"),
        Job(2, release=6.0, size=2.0, databank="db"),
    ]
    return Instance(jobs, platform)


class TestBasicExecution:
    def test_all_jobs_complete(self, instance):
        result = simulate(instance, FCFSScheduler())
        assert set(result.completions) == {0, 1, 2}
        result.schedule.validate(instance)

    def test_completions_are_exact_for_fcfs(self, instance):
        # FCFS with divisibility on 2 unit-speed machines (total speed 2):
        # job 0 runs [0, 2] on both, job 1 runs [2, 3], job 2 [6, 7].
        result = simulate(instance, FCFSScheduler())
        assert result.completions[0] == pytest.approx(2.0)
        assert result.completions[1] == pytest.approx(3.0)
        assert result.completions[2] == pytest.approx(7.0)

    def test_idle_period_handled(self, instance):
        # Job 2 arrives at t=6 after the system drained at t=3.
        result = simulate(instance, SRPTScheduler())
        assert result.completions[2] == pytest.approx(7.0)

    def test_work_conservation(self, instance):
        result = simulate(instance, SRPTScheduler())
        for job in instance.jobs:
            assert result.schedule.work_done(job.job_id) == pytest.approx(job.size, rel=1e-6)

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_result_round_trips_through_pickle(self, instance, read_first):
        result = simulate(instance, SRPTScheduler())
        if read_first:
            assert len(result.schedule.slices) > 0
        clone = pickle.loads(pickle.dumps(result))
        assert clone.schedule.slices == result.schedule.slices
        assert clone.schedule.completion_times() == result.schedule.completion_times()
        assert clone.completions == result.completions
        assert clone.max_stretch == result.max_stretch

    def test_scheduler_overhead_recorded(self, instance):
        result = simulate(instance, SRPTScheduler())
        assert result.scheduler_time >= 0.0
        assert result.n_decisions > 0

    def test_event_trace(self, instance):
        result = simulate(instance, FCFSScheduler(), record_events=True)
        arrivals = [e for e in result.events if isinstance(e, ArrivalEvent)]
        completions = [e for e in result.events if isinstance(e, CompletionEvent)]
        assert len(arrivals) == 3
        assert len(completions) == 3
        assert result.trace_lines()

    def test_empty_instance(self):
        platform = Platform.uniform([1.0], databanks=["db"])
        instance = Instance([], platform)
        result = simulate(instance, FCFSScheduler())
        assert result.completions == {}
        assert len(result.schedule) == 0

    def test_single_job_runs_at_ideal_speed(self):
        platform = Platform.uniform([1.0, 0.5], databanks=["db"])
        instance = Instance([Job(0, release=2.0, size=6.0, databank="db")], platform)
        result = simulate(instance, SRPTScheduler())
        # Aggregate speed 3 -> 2 seconds of work -> completes at 4.
        assert result.completions[0] == pytest.approx(4.0)
        assert result.max_stretch == pytest.approx(1.0)


class TestRestrictedAvailability:
    def test_engine_rejects_illegal_assignment(self):
        platform = Platform(
            [Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 1.0, 1, frozenset({"b"}))]
        )
        instance = Instance([Job(0, release=0.0, size=1.0, databank="a")], platform)

        class BadScheduler(Scheduler):
            name = "bad"

            def assign(self, state):
                return Assignment(mapping={1: 0})  # machine 1 lacks databank a

        with pytest.raises(ScheduleError, match="databank 'a' not hosted"):
            simulate(instance, BadScheduler())

    def test_engine_rejects_unknown_machine(self, instance):
        class BadScheduler(Scheduler):
            name = "bad-machine"

            def assign(self, state):
                return Assignment(mapping={99: 0})

        with pytest.raises(ScheduleError, match="unknown machine 99"):
            simulate(instance, BadScheduler())

    def test_engine_rejects_down_machine(self, instance):
        class BadScheduler(Scheduler):
            name = "bad-down"

            def assign(self, state):
                return Assignment(mapping={0: 0})  # machine 0 is down from t=0 on

        faults = FaultTimeline.from_intervals([(0, 0.0, None)])
        with pytest.raises(ScheduleError, match="machine 0 which is down"):
            simulate(instance, BadScheduler(), faults=faults)

    def test_engine_rejects_inactive_job(self, instance):
        class BadScheduler(Scheduler):
            name = "bad-job"

            def assign(self, state):
                return Assignment(mapping={0: 2})  # job 2 not released at t=0

        with pytest.raises(ScheduleError, match="job 2 which is not active"):
            simulate(instance, BadScheduler())

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({0: 0, 1: 0, 99: 0}, "machine 1 cannot process job 0"),
            ({99: 0, 1: 0}, "unknown machine 99"),
            ({0: 1, 99: 0}, "job 1 which is not active"),
            ({2: 0, 0: 1}, "machine 2 which is down"),
            ({0: 1, 2: 0}, "job 1 which is not active"),
            ({2: 1}, "machine 2 which is down"),
            ({1: 1}, "job 1 which is not active"),
            ({1: 2, 0: 2}, "machine 0 cannot process job 2"),
        ],
    )
    def test_the_first_failing_pair_names_the_error(self, mapping, message):
        # Pairs are checked in assignment order; a pair fails on its first
        # failing check: unknown machine, machine down, job inactive,
        # databank not hosted.
        platform = Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 1.0, 1, frozenset({"b"})),
                Machine(2, 1.0, 1, frozenset({"b"})),
            ]
        )
        jobs = [
            Job(0, release=0.0, size=1.0, databank="a"),
            Job(1, release=5.0, size=1.0, databank="a"),
            Job(2, release=0.0, size=1.0, databank="b"),
        ]

        class BadScheduler(Scheduler):
            name = "bad-pairs"

            def assign(self, state):
                return Assignment(mapping=dict(mapping))

        faults = FaultTimeline.from_intervals([(2, 0.0, None)])
        with pytest.raises(ScheduleError, match=message):
            simulate(Instance(jobs, platform), BadScheduler(), faults=faults)

    def test_priority_scheduler_respects_databanks(self):
        platform = Platform(
            [Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 1.0, 1, frozenset({"b"}))]
        )
        jobs = [
            Job(0, release=0.0, size=2.0, databank="a"),
            Job(1, release=0.0, size=2.0, databank="b"),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, SRPTScheduler())
        result.schedule.validate(instance)
        # Each job can only use its own machine, so both complete at t=2.
        assert result.completions[0] == pytest.approx(2.0)
        assert result.completions[1] == pytest.approx(2.0)


class TestEngineRobustness:
    def test_deadlock_detection(self, instance):
        class LazyScheduler(Scheduler):
            """Never assigns anything: the engine must detect the abandon."""

            name = "lazy"

            def assign(self, state):
                return Assignment.idle()

        with pytest.raises(ScheduleError, match="unscheduled with no future event"):
            simulate(instance, LazyScheduler())

    def test_livelock_detection(self, instance):
        class StallingScheduler(Scheduler):
            """Always asks to be called again immediately."""

            name = "staller"

            def assign(self, state):
                return Assignment(mapping={}, valid_until=state.time)

        with pytest.raises(ScheduleError, match="zero-length steps"):
            simulate(instance, StallingScheduler())

    def test_max_steps_overflow_detection(self, instance):
        class CreepingScheduler(Scheduler):
            """Advances by genuinely positive but absurdly small steps.

            Each step moves time forward, so the zero-length-stall counter
            never fires; only the ``max_steps`` bound catches the live-lock.
            """

            name = "creeper"

            def assign(self, state):
                return Assignment(mapping={0: 0}, valid_until=state.time + 1e-9)

        engine = SimulationEngine(instance, CreepingScheduler(), max_steps=50)
        with pytest.raises(ScheduleError, match="exceeded 50 steps"):
            engine.run()

    def test_default_max_steps_scales_with_instance(self, instance):
        engine = SimulationEngine(instance, FCFSScheduler())
        assert engine.max_steps is None  # derived inside run()
        result = engine.run()
        assert set(result.completions) == {0, 1, 2}

    def test_valid_until_horizon_respected(self):
        platform = Platform.uniform([1.0], databanks=["db"])
        instance = Instance([Job(0, release=0.0, size=4.0, databank="db")], platform)

        class ChunkingScheduler(Scheduler):
            """Works in 1-second chunks, forcing frequent re-decisions."""

            name = "chunker"
            calls = 0

            def assign(self, state):
                self.calls += 1
                return Assignment(mapping={0: 0}, valid_until=state.time + 1.0)

        scheduler = ChunkingScheduler()
        result = simulate(instance, scheduler)
        assert result.completions[0] == pytest.approx(4.0)
        assert scheduler.calls >= 4

    def test_step_whose_work_underflows_to_zero_is_rejected(self):
        """The per-step ``work > 0`` check of a slice survives run-length recording."""
        platform = Platform.uniform([1e300], databanks=["db"])
        instance = Instance([Job(0, release=0.0, size=1.0, databank="db")], platform)

        class TinyStepScheduler(Scheduler):
            name = "tiny-step"

            def assign(self, state):
                return Assignment(mapping={0: 0}, valid_until=state.time + 1e-30)

        with pytest.raises(ScheduleError, match="non-positive work"):
            simulate(instance, TinyStepScheduler())

    def test_adjacent_slices_merged(self, instance):
        result = simulate(instance, FCFSScheduler())
        # Job 0 is processed continuously on each machine: one merged slice per machine.
        slices = result.schedule.slices_for_job(0)
        assert len(slices) == 2


class TestArrivalBatching:
    def test_simultaneous_arrivals_one_callback(self):
        platform = Platform.uniform([1.0, 1.0], databanks=["db"])
        jobs = [
            Job(0, release=1.0, size=2.0, databank="db"),
            Job(1, release=1.0, size=2.0, databank="db"),
            Job(2, release=4.0, size=1.0, databank="db"),
        ]
        instance = Instance(jobs, platform)

        batches: list[list[int]] = []

        class RecordingScheduler(SRPTScheduler):
            def on_arrivals(self, state, arrived):
                batches.append([job.job_id for job in arrived])
                super().on_arrivals(state, arrived)

        result = simulate(instance, RecordingScheduler())
        assert batches == [[0, 1], [2]]
        assert set(result.completions) == {0, 1, 2}

    def test_batched_release_matches_sequential_release_semantics(self):
        # Two simultaneous jobs on one machine under SRPT: the smaller runs
        # first regardless of how the releases were delivered.
        platform = Platform.uniform([1.0], databanks=["db"])
        jobs = [
            Job(0, release=0.0, size=3.0, databank="db"),
            Job(1, release=0.0, size=1.0, databank="db"),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, SRPTScheduler())
        assert result.completions[1] == pytest.approx(1.0)
        assert result.completions[0] == pytest.approx(4.0)
