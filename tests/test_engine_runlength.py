"""The engine's step bookkeeping against the simpler forms it replaced.

Run-length recording: until the engine recorded runs as it went,
``_advance`` appended one ``WorkSlice`` per machine per step and
``_merge_adjacent`` (below, verbatim) sorted and fused them after the run.
It lives on here as the oracle: for any sequence of steps the engine takes,
the recorded schedule must equal the merge of the per-step slices, slice for
slice, ``work`` bit for bit.

Completion checks: the engine tests only the jobs that ran in a step and
those released since the last check.  ``FullScanEngine`` keeps the check it
replaced, over every active job, as the oracle: completion sets, order and
dates must be equal, under outages that re-queue lost work too.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.schedule import Schedule, WorkSlice
from repro.schedulers.base import Scheduler
from repro.simulation import engine as engine_module
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import CompletionEvent
from repro.simulation.faults import FaultTimeline
from repro.simulation.state import Assignment


def _merge_adjacent(slices: Iterable[WorkSlice]) -> list[WorkSlice]:
    """Merge back-to-back slices of the same job on the same machine."""
    merged: dict[int, list[WorkSlice]] = {}
    for s in sorted(slices, key=lambda s: (s.machine_id, s.start)):
        per_machine = merged.setdefault(s.machine_id, [])
        if (
            per_machine
            and per_machine[-1].job_id == s.job_id
            and abs(per_machine[-1].end - s.start) <= 1e-12 * max(1.0, abs(s.start))
        ):
            last = per_machine[-1]
            per_machine[-1] = WorkSlice(
                job_id=last.job_id,
                machine_id=last.machine_id,
                start=last.start,
                end=s.end,
                work=last.work + s.work,
            )
        else:
            per_machine.append(s)
    out: list[WorkSlice] = []
    for per_machine in merged.values():
        out.extend(per_machine)
    return out


class SteppingEngine(SimulationEngine):
    """Logs the one-slice-per-machine-per-step pieces the old engine built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pieces: list[WorkSlice] = []

    def _advance(self, step, start, end):
        if end - start > 0:
            # ``last_assignment`` is the mapping the step's arrays came from.
            for machine_id, job_id in self.last_assignment.items():
                speed = self.instance.machine(machine_id).speed
                self.pieces.append(WorkSlice(job_id, machine_id, start, end, speed * (end - start)))
        super()._advance(step, start, end)


class FullScanEngine(SimulationEngine):
    """Tests every active job for completion after each step (the old check)."""

    def _collect_completions(self, rated_ids, released):
        state = self.state
        if not state.active:
            return
        n = len(state.active)
        ids = np.fromiter(state.active.keys(), dtype=np.int64, count=n)
        remaining = np.fromiter(
            (rt.remaining for rt in state.active.values()), dtype=np.float64, count=n
        )
        sizes = np.fromiter(
            (rt.job.size for rt in state.active.values()), dtype=np.float64, count=n
        )
        finished = ids[remaining <= engine_module._COMPLETION_TOL * np.maximum(1.0, sizes)]
        for job_id in sorted(int(j) for j in finished):
            runtime = state.active[job_id]
            state.complete(job_id, state.time)
            if self.record_events:
                flow = state.time - runtime.job.release
                stretch = flow / self.instance.ideal_time(job_id)
                self._events.append(
                    CompletionEvent(time=state.time, job_id=job_id, flow=flow, stretch=stretch)
                )
            self._timed(self.scheduler.on_completion, state, job_id)


class ScriptedScheduler(Scheduler):
    """Plays a script of ``(per-machine choice, step length)`` moves.

    A choice is ``None`` (idle) or an index into the active jobs; a length of
    zero gives a zero-length step, an all-idle move a gap.  Once the script
    is over every up machine serves the first active job, so the run ends.
    """

    name = "scripted"

    def __init__(self, moves):
        self.moves = list(moves)

    def assign(self, state):
        up = sorted(state.available_ids())
        jobs = sorted(state.active)
        if not self.moves:
            return Assignment({m: jobs[0] for m in up})
        choices, length = self.moves.pop(0)
        mapping = {m: jobs[choices[m] % len(jobs)] for m in up if choices[m] is not None}
        return Assignment(mapping, valid_until=state.time + length)


N_MACHINES = 3
step_lengths = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.7, allow_nan=False))
choices = st.one_of(st.none(), st.integers(0, 3))
moves = st.lists(
    st.tuples(st.lists(choices, min_size=N_MACHINES, max_size=N_MACHINES), step_lengths),
    max_size=30,
)
outages = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    moves=moves,
    outages=outages,
    cycle_times=st.lists(
        st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
        min_size=N_MACHINES,
        max_size=N_MACHINES,
    ),
    releases=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4),
)
def test_recorded_runs_equal_merge_of_per_step_slices(moves, outages, cycle_times, releases):
    platform = Platform.uniform(cycle_times, databanks=["db"])
    jobs = [Job(i, release=r, size=1.0 + i, databank="db") for i, r in enumerate(releases)]
    # Back-to-back outages of machine 0: DOWN/UP while it holds an open run.
    intervals, clock = [], 0.0
    for gap, length in outages:
        intervals.append((0, clock + gap, clock + gap + length))
        clock += gap + length + 1e-3
    engine = SteppingEngine(
        Instance(jobs, platform),
        ScriptedScheduler(moves),
        faults=FaultTimeline.from_intervals(intervals),
    )
    result = engine.run()
    assert len(result.completions) == len(jobs)
    # The column-backed schedule builds the slices ``Schedule`` builds from
    # the same runs.
    schedule = result.schedule
    rebuilt = Schedule(WorkSlice(*run) for run in zip(*engine._runs))
    assert len(schedule) == len(rebuilt)
    assert schedule.makespan() == rebuilt.makespan()
    assert list(schedule.completion_times().items()) == list(
        rebuilt.completion_times().items()
    )
    assert schedule.slices == rebuilt.slices
    assert [s.work.hex() for s in schedule] == [s.work.hex() for s in rebuilt]
    expected = Schedule(_merge_adjacent(engine.pieces)).slices
    assert schedule.slices == expected
    assert [s.work.hex() for s in schedule] == [s.work.hex() for s in expected]


@settings(max_examples=150, deadline=None)
@given(
    moves=moves,
    outages=st.lists(
        st.tuples(
            st.integers(0, N_MACHINES - 1),
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
        ),
        max_size=4,
    ),
    loss=st.sampled_from([("resume", 0.0), ("restart", 0.0), ("restart", 0.5)]),
    releases=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4),
    tiny_release=st.floats(min_value=0.0, max_value=3.0),
)
def test_completions_equal_the_full_scan(moves, outages, loss, releases, tiny_release):
    platform = Platform.uniform([1.0, 0.5, 2.0], databanks=["db"])
    jobs = [Job(i, release=r, size=1.0 + i, databank="db") for i, r in enumerate(releases)]
    # Finished on release: it must complete at the first check, run or not.
    jobs.append(Job(len(jobs), release=tiny_release, size=1e-12, databank="db"))
    # Outages per machine, each one after the last on that machine.
    intervals, clocks = [], [0.0] * N_MACHINES
    for machine_id, gap, length in outages:
        down = clocks[machine_id] + gap
        intervals.append((machine_id, down, down + length))
        clocks[machine_id] = down + length + 1e-3
    loss_model, checkpoint_fraction = loss
    faults = FaultTimeline.from_intervals(
        intervals, loss_model=loss_model, checkpoint_fraction=checkpoint_fraction
    )
    instance = Instance(jobs, platform)
    got, want = (
        engine_cls(instance, ScriptedScheduler(moves), faults=faults, record_events=True).run()
        for engine_cls in (SimulationEngine, FullScanEngine)
    )
    assert list(got.completions.items()) == list(want.completions.items())
    assert got.parked == want.parked
    assert got.events == want.events


def test_a_job_returning_to_a_machine_after_a_gap_opens_a_new_run():
    platform = Platform.uniform([1.0], databanks=["db"])
    instance = Instance([Job(0, 0.0, 3.0, "db"), Job(1, 0.0, 1.0, "db")], platform)
    script = [([0], 1.0), ([0], 1.0), ([None], 0.5), ([0], 0.0), ([0], 1.0), ([1], 1.0)]
    result = SimulationEngine(instance, ScriptedScheduler(script)).run()
    spans = [(s.job_id, s.start, s.end, s.work) for s in result.schedule]
    assert spans == [(0, 0.0, 2.0, 2.0), (0, 2.5, 3.5, 1.0), (1, 3.5, 4.5, 1.0)]
