"""Plan lanes against the per-machine plan they replaced.

Until plans became lanes (one timeline per capability class), an LP
allocation was expanded into one ``WorkSlice`` and one ``PlanSegment`` per
physical machine (``materialize_solution`` -> ``segments_from_schedule`` ->
``set_plan``), ``plan_assignment`` scanned every machine's list from its
start, every ``MaxStretchSolution`` accessor scanned the whole allocation
dict, and an order rule sorted each (interval, resource) group on its own.
All of that lives on here, verbatim but for reading the allocation through
``helpers.allocations``, as the oracle: for any allocation, platform and
run state, reading the lanes must give the same mapping (key order
included) and the same ``valid_until`` as reading the per-machine plan, and
every per-job total of ``share_totals`` must equal its full scan.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.core.schedule import Schedule, WorkSlice
from repro.lp.aggregation import (
    edf_order,
    materialize_solution,
    share_totals,
    split_work_across_machines,
    swrpt_terminal_order,
)
from repro.lp.intervals import build_interval_structure
from repro.lp.maxstretch import MaxStretchSolution
from repro.lp.problem import problem_from_instance
from repro.schedulers import kernels
from repro.schedulers.base import PlanBasedScheduler, PlanSegment
from repro.schedulers.mct import MCTDivScheduler
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.state import Assignment, SchedulerState

from helpers import allocations, schedule_of, shares_of

_WORK_EPS = 1e-9
_OVERFLOW_TOL = 1e-6


# -- the oracle: code removed from src/, verbatim --------------------------------------
def _items(solution):
    """The allocation as the items of the old ``(t, c, j) -> work`` dict."""
    return allocations(solution).items()


def _scan_work_for_job_on_resource(solution, job_id, resource):
    return float(
        sum(
            w
            for (t, c, j), w in _items(solution)
            if j == job_id and c == resource
        )
    )


def _scan_completion_interval(solution, job_id):
    indices = [t for (t, c, j), w in _items(solution) if j == job_id and w > 0]
    if not indices:
        raise KeyError(job_id)
    return max(indices)


def _scan_completion_interval_on_resource(solution, job_id, resource):
    indices = [
        t
        for (t, c, j), w in _items(solution)
        if j == job_id and c == resource and w > 0
    ]
    return max(indices) if indices else None


def _scan_jobs_on_resource(solution, resource):
    return sorted(
        {j for (t, c, j), w in _items(solution) if c == resource and w > 0}
    )


def _edf_group_order(solution, interval, resource, allocations):
    return sorted(allocations, key=lambda item: (solution.deadline(item[0]), item[0]))


def _swrpt_terminal_group_order(solution, interval, resource, allocations):
    terminal = []
    non_terminal = []
    for job_id, work in allocations:
        last = _scan_completion_interval_on_resource(solution, job_id, resource)
        if last is not None and last <= interval:
            terminal.append((job_id, work))
        else:
            non_terminal.append((job_id, work))

    def swrpt_key(item):
        job = solution.problem.job_by_id(item[0])
        return (job.flow_factor * job.remaining_work, item[0])

    def completion_key(item):
        job_id, _ = item
        last = _scan_completion_interval_on_resource(solution, job_id, resource)
        job = solution.problem.job_by_id(job_id)
        return (
            last if last is not None else len(solution.interval_bounds),
            job.flow_factor * job.remaining_work,
            job_id,
        )

    return sorted(terminal, key=swrpt_key) + sorted(non_terminal, key=completion_key)


#: The per-group rule each key builder replaced.
GROUP_ORDER = {edf_order: _edf_group_order, swrpt_terminal_order: _swrpt_terminal_group_order}


def _materialize_solution_per_machine(solution, instance, *, order_rule=_edf_group_order):
    slices: list[WorkSlice] = []
    for t, (lo, hi) in enumerate(solution.interval_bounds):
        length = hi - lo
        if length <= 0:
            # Zero-length intervals can only carry zero work.
            continue
        per_resource: dict[int, list[tuple[int, float]]] = {}
        for (interval, resource, job_id), work in _items(solution):
            if interval != t or work <= _WORK_EPS:
                continue
            per_resource.setdefault(resource, []).append((job_id, work))

        for resource_idx, allocations in sorted(per_resource.items()):
            resource = solution.problem.resources[resource_idx]
            ordered = order_rule(solution, t, resource_idx, allocations)
            total_duration = sum(work for _, work in ordered) / resource.speed
            scale = 1.0
            if total_duration > length:
                if total_duration > length * (1.0 + _OVERFLOW_TOL) + _OVERFLOW_TOL:
                    raise ScheduleError(
                        f"interval {t} on resource {resource_idx} overflows: "
                        f"needs {total_duration:.9f}s but only {length:.9f}s available"
                    )
                scale = length / total_duration
            cursor = lo
            for job_id, work in ordered:
                duration = (work / resource.speed) * scale
                if duration <= 0:
                    continue
                end = min(cursor + duration, hi)
                slices.extend(
                    split_work_across_machines(
                        instance, resource.machine_ids, job_id, cursor, end
                    )
                )
                cursor = end
    return Schedule(slices)


def _segments_from_schedule(schedule):
    return [
        PlanSegment(machine_id=s.machine_id, job_id=s.job_id, start=s.start, end=s.end)
        for s in schedule
    ]


def _per_processor_list_plan(solution, now):
    segments: list[PlanSegment] = []
    for resource in solution.problem.resources:
        jobs_here = _scan_jobs_on_resource(solution, resource.index)
        if not jobs_here:
            continue

        def order_key(job_id):
            completion = _scan_completion_interval_on_resource(solution, job_id, resource.index)
            lp_job = solution.problem.job_by_id(job_id)
            return (
                float(completion if completion is not None else math.inf),
                lp_job.flow_factor * lp_job.remaining_work,
                job_id,
            )

        cursor = now
        for job_id in sorted(jobs_here, key=order_key):
            work = _scan_work_for_job_on_resource(solution, job_id, resource.index)
            if work <= 0:
                continue
            duration = work / resource.speed
            end = cursor + duration
            for machine_id in resource.machine_ids:
                segments.append(
                    PlanSegment(machine_id=machine_id, job_id=job_id, start=cursor, end=end)
                )
            cursor = end
    return segments


class PerMachinePlan:
    """The plan of the old ``PlanBasedScheduler``: one segment list per machine."""

    def __init__(self, instance):
        self._plan = {m.machine_id: [] for m in instance.platform}

    def extend_plan(self, segments):
        for segment in segments:
            per_machine = self._plan.setdefault(segment.machine_id, [])
            per_machine.append(segment)
        for per_machine in self._plan.values():
            per_machine.sort(key=lambda s: s.start)

    def clear_plan_from(self, time):
        for machine_id, per_machine in self._plan.items():
            kept: list[PlanSegment] = []
            for segment in per_machine:
                if segment.end <= time + 1e-12:
                    kept.append(segment)
                elif segment.start < time - 1e-12:
                    kept.append(
                        PlanSegment(
                            machine_id=segment.machine_id,
                            job_id=segment.job_id,
                            start=segment.start,
                            end=time,
                        )
                    )
                # Segments starting after ``time`` are dropped.
            self._plan[machine_id] = kept

    def plan_segments(self):
        return [s for per_machine in self._plan.values() for s in per_machine]

    def plan_horizon(self, machine_id, time):
        horizon = time
        for segment in self._plan.get(machine_id, ()):
            if segment.end <= horizon + 1e-12:
                continue
            if segment.start > horizon + 1e-12:
                break
            horizon = segment.end
        return float(horizon)

    def plan_tail(self, machine_id, time):
        per_machine = self._plan.get(machine_id, [])
        if not per_machine:
            return time
        return max(time, max(segment.end for segment in per_machine))

    def plan_assignment(self, state):
        time = state.time
        mapping: dict[int, int] = {}
        breakpoints: list[float] = []
        down = state.down
        for machine_id, per_machine in self._plan.items():
            if down and machine_id in down:
                continue
            current: PlanSegment | None = None
            upcoming: PlanSegment | None = None
            for segment in per_machine:
                if segment.end <= time + 1e-12:
                    continue
                if segment.job_id not in state.active:
                    continue
                if segment.start <= time + 1e-12:
                    current = segment
                else:
                    upcoming = segment
                break_found = current is not None or upcoming is not None
                if break_found:
                    break
            if current is not None:
                mapping[machine_id] = current.job_id
                breakpoints.append(current.end)
            elif upcoming is not None:
                breakpoints.append(upcoming.start)
        valid_until = min(breakpoints) if breakpoints else None
        return Assignment(mapping=mapping, valid_until=valid_until)


# -- strategies --------------------------------------------------------------------------
#: Cycle times; the last one makes a machine slow enough for
#: ``split_work_across_machines`` to drop it from rows shorter than a second.
CYCLE_TIMES = (1.0, 0.5, 3.0, 1e9)
BANKS = ("a", "b", "c")

#: Shares of an (interval, resource) capacity; zero and sub-``_WORK_EPS``
#: shares exercise the filters, ``1.0`` with a neighbour the overflow scale.
fractions = st.one_of(
    st.sampled_from([0.0, 1e-12, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def cases(draw):
    """``(instance, solution)``: a platform of interleaved classes, any allocation."""
    n_machines = draw(st.integers(2, 7))
    # Capability classes are the distinct databank sets; drawing them per
    # machine interleaves the classes in platform (machine id) order.
    hosted = [draw(st.sampled_from([("a",), ("b",), ("a", "b"), ("a", "b", "c")]))
              for _ in range(n_machines)]
    machines = [
        Machine(m, draw(st.sampled_from(CYCLE_TIMES)), 0, frozenset(hosted[m]))
        for m in range(n_machines)
    ]
    platform = Platform(machines)
    servable = sorted({bank for banks in hosted for bank in banks})
    n_jobs = draw(st.integers(1, 6))
    jobs = [
        Job(
            j,
            release=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            size=draw(st.floats(min_value=0.5, max_value=8.0, allow_nan=False)),
            databank=draw(st.sampled_from(servable)),
        )
        for j in range(n_jobs)
    ]
    instance = Instance(jobs, platform)
    problem = problem_from_instance(instance)

    objective = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    lengths = draw(
        st.lists(st.sampled_from([0.0, 1e-3, 0.4, 1.0, 2.5]), min_size=1, max_size=5)
    )
    bounds, cursor = [], 0.0
    for length in lengths:
        bounds.append((cursor, cursor + length))
        cursor += length
    allocation: dict[tuple[int, int, int], float] = {}
    # Built job-major like ``_extract_allocations``, so one interval's
    # entries are scattered over the arrays.
    for lp_job in problem.jobs:
        for t, (lo, hi) in enumerate(bounds):
            for c in lp_job.resources:
                if draw(st.booleans()):
                    share = draw(fractions) / problem.n_jobs
                    allocation[t, c, lp_job.job_id] = (
                        share * problem.resources[c].speed * (hi - lo)
                    )
    solution = MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=build_interval_structure(problem, objective),
        interval_bounds=tuple(bounds),
        shares=shares_of(allocation),
    )
    return instance, solution


def probe_dates(segments, draw):
    """Dates at, just around and between the plan's breakpoints, in any order."""
    dates = {0.0}
    for segment in segments:
        for date in (segment.start, segment.end):
            dates.update((date, date - 1e-12, date + 1e-12, date + 2e-12))
        dates.add((segment.start + segment.end) / 2)
    dates = sorted(d for d in dates if d >= 0.0)
    if draw(st.booleans()):
        # Going back in time must re-open the rows the cursors skipped.
        dates = draw(st.permutations(dates))
    return dates


class Follower(PlanBasedScheduler):
    name = "follower"


def assert_same_reading(scheduler, oracle, state):
    got = scheduler.plan_assignment(state)
    want = oracle.plan_assignment(state)
    assert list(got.mapping.items()) == list(want.mapping.items())
    assert got.valid_until == want.valid_until


def assert_same_plan(scheduler, oracle, instance, time):
    assert scheduler.plan_segments() == oracle.plan_segments()
    assert scheduler.has_plan() == bool(oracle.plan_segments())
    for machine in instance.platform:
        m = machine.machine_id
        assert scheduler.plan_segments(m) == list(oracle._plan[m])
        assert scheduler.plan_horizon(m, time) == oracle.plan_horizon(m, time)
        assert scheduler.plan_tail(m, time) == oracle.plan_tail(m, time)


# -- properties --------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lanes_read_like_the_per_machine_plan(data):
    instance, solution = data.draw(cases())
    rule = data.draw(st.sampled_from(["edf", "swrpt-terminal", "online-edf"]))
    scheduler = Follower()
    scheduler.reset(instance)
    oracle = PerMachinePlan(instance)
    if rule == "online-edf":
        try:
            oracle.extend_plan(_per_processor_list_plan(solution, 0.25))
        except ValueError:
            # A share too small to move the cursor: refused then, refused now.
            with pytest.raises(ValueError, match="non-positive duration"):
                scheduler.set_lanes(OnlineLPScheduler._per_processor_list_plan(solution, 0.25))
            return
        scheduler.set_lanes(OnlineLPScheduler._per_processor_list_plan(solution, 0.25))
    else:
        order_rule = edf_order if rule == "edf" else swrpt_terminal_order
        scheduler.set_lanes(materialize_solution(solution, instance, order_rule=order_rule))
        oracle.extend_plan(
            _segments_from_schedule(
                _materialize_solution_per_machine(
                    solution, instance, order_rule=GROUP_ORDER[order_rule]
                )
            )
        )
    assert_same_plan(scheduler, oracle, instance, 0.0)

    # Run state: some jobs not released yet, some completed, some machines down.
    state = SchedulerState(instance)
    waiting = []
    for job in instance.jobs:
        fate = data.draw(st.sampled_from(["active", "active", "waiting", "completed"]))
        if fate == "waiting":
            waiting.append(job)
            continue
        state.release(job)
        if fate == "completed":
            state.active[job.job_id].remaining = 0.0
            state.complete(job.job_id, time=job.release)
    state.down = set(data.draw(st.sets(st.sampled_from(instance.platform.ids()), max_size=3)))

    for date in probe_dates(oracle.plan_segments(), data.draw):
        state.time = date
        if waiting and data.draw(st.booleans()):
            # Rows of a job released late must not have been skipped for good.
            state.release(waiting.pop())
        elif state.active and data.draw(st.integers(0, 4)) == 0:
            job_id = data.draw(st.sampled_from(sorted(state.active)))
            state.active[job_id].remaining = 0.0
            state.complete(job_id, time=date)
        assert_same_reading(scheduler, oracle, state)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_editing_a_class_lane_equals_editing_each_machine(data):
    instance, solution = data.draw(cases())
    scheduler = Follower()
    scheduler.reset(instance)
    oracle = PerMachinePlan(instance)
    scheduler.set_lanes(materialize_solution(solution, instance))
    oracle.extend_plan(
        _segments_from_schedule(_materialize_solution_per_machine(solution, instance))
    )
    state = SchedulerState(instance)
    for job in instance.jobs:
        state.release(job)
    dates = st.sampled_from([0.0, 0.2, 0.4, 1.0, 1.4, 2.5, 6.0])
    for _ in range(data.draw(st.integers(1, 5))):
        state.time = data.draw(dates)
        assert_same_reading(scheduler, oracle, state)  # moves the cursors
        if data.draw(st.booleans()):
            cut = data.draw(dates)
            scheduler.clear_plan_from(cut)
            oracle.clear_plan_from(cut)
        else:
            # A segment at one machine's tail (what absorb_arrivals and MCT
            # do) or anywhere, rows the cursor already passed included.
            machine_id = data.draw(st.sampled_from(instance.platform.ids()))
            start = data.draw(dates)
            if data.draw(st.booleans()):
                start = oracle.plan_tail(machine_id, start)
            segment = PlanSegment(
                machine_id=machine_id,
                job_id=data.draw(st.sampled_from([job.job_id for job in instance.jobs])),
                start=start,
                end=start + data.draw(st.sampled_from([0.1, 1.0, 7.0])),
            )
            scheduler.extend_plan([segment])
            oracle.extend_plan([segment])
        assert_same_plan(scheduler, oracle, instance, state.time)
        assert_same_reading(scheduler, oracle, state)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_successive_readings_equal_a_full_scan(data):
    """One lane set read decision after decision, as the engine reads it.

    Between two readings time moves forward (to the last reading's
    breakpoint, just around it, or on), and the plan or the run state
    changes the way a run changes them: an MCT-style segment placed at the
    machine's horizon (or one inserted among past rows), a job completing
    before its planned end, a job released after its rows were first
    skipped, a machine going down (its plan cleared from now, as
    ``on_availability`` does) or back up.
    Every reading must equal the per-machine full scan, and so must every
    horizon and tail queried from the lanes' settled prefixes.
    """
    instance, solution = data.draw(cases())
    scheduler = Follower()
    scheduler.reset(instance)
    oracle = PerMachinePlan(instance)
    if data.draw(st.booleans()):
        scheduler.set_lanes(materialize_solution(solution, instance))
        oracle.extend_plan(
            _segments_from_schedule(_materialize_solution_per_machine(solution, instance))
        )
    machine_ids = instance.platform.ids()
    state = SchedulerState(instance)
    waiting = []
    for job in instance.jobs:
        if data.draw(st.booleans()):
            state.release(job)
        else:
            waiting.append(job)

    last = scheduler.plan_assignment(state)
    assert_same_reading(scheduler, oracle, state)
    for _ in range(data.draw(st.integers(1, 25))):
        step = data.draw(st.sampled_from(["breakpoint", "around", "stay", "on"]))
        if step == "breakpoint" and last.valid_until is not None:
            state.time = max(state.time, last.valid_until)
        elif step == "around" and last.valid_until is not None:
            nudge = data.draw(st.sampled_from([-2e-12, -1e-12, -5e-13, 5e-13, 1e-12, 2e-12]))
            state.time = max(state.time, last.valid_until + nudge)
        elif step == "on":
            state.time += data.draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5]))
        now = state.time

        event = data.draw(st.sampled_from(["place", "insert", "complete", "release", "down", "up"]))
        if event in ("place", "insert"):
            machine_id = data.draw(st.sampled_from(machine_ids))
            if event == "place":
                start = max(oracle.plan_horizon(machine_id, now), now)
            else:
                # Among the machine's past rows, those that ended by the last
                # reading included.
                past = [seg.start for seg in oracle._plan[machine_id] if seg.start < now]
                start = data.draw(st.sampled_from([0.0] + past))
            segment = PlanSegment(
                machine_id=machine_id,
                job_id=data.draw(st.sampled_from([job.job_id for job in instance.jobs])),
                start=start,
                end=start + data.draw(st.sampled_from([1e-3, 0.5, 1.0, 4.0])),
            )
            scheduler.extend_plan([segment])
            oracle.extend_plan([segment])
        elif event == "complete" and state.active:
            job_id = data.draw(st.sampled_from(sorted(state.active)))
            state.active[job_id].remaining = 0.0
            state.complete(job_id, time=now)
        elif event == "release" and waiting:
            state.release(waiting.pop(data.draw(st.integers(0, len(waiting) - 1))))
        elif event == "down":
            state.down.add(data.draw(st.sampled_from(machine_ids)))
            if data.draw(st.booleans()):
                scheduler.clear_plan_from(now)
                oracle.clear_plan_from(now)
        elif event == "up" and state.down:
            state.down.discard(data.draw(st.sampled_from(sorted(state.down))))

        last = scheduler.plan_assignment(state)
        want = oracle.plan_assignment(state)
        assert list(last.mapping.items()) == list(want.mapping.items())
        assert last.valid_until == want.valid_until
        later = now + data.draw(st.sampled_from([0.0, 1e-12, 0.7]))
        for machine_id in machine_ids:
            for date in (now, later):
                assert scheduler.plan_horizon(machine_id, date) == oracle.plan_horizon(
                    machine_id, date
                )
                assert scheduler.plan_tail(machine_id, date) == oracle.plan_tail(machine_id, date)
        assert scheduler.plan_segments() == oracle.plan_segments()


def _mct_div_place(oracle, state, job_id, work, now):
    """``MCTDivScheduler._place`` on the per-machine plan."""
    machines = list(state.available_eligible(job_id))
    if not machines:
        return
    availability = np.array([max(oracle.plan_horizon(m.machine_id, now), now) for m in machines])
    speeds = np.array([m.speed for m in machines])
    completion = kernels.water_filling_completion(work, speeds, availability)
    oracle.extend_plan(
        [
            PlanSegment(machine.machine_id, job_id, available, completion)
            for machine, available in zip(machines, availability.tolist())
            if completion > available + 1e-15
        ]
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mct_div_placements_equal_a_full_scan(data):
    """MCT-Div's placements, horizon query after horizon query.

    Each arrival water-fills a job over its eligible machines from their
    horizons, so a lane grows by back-to-back rows and each query resumes
    the lane's last horizon chain.  Between arrivals time moves on (to just
    around a machine's horizon too, within the 1e-12 tolerance), the lanes
    are read (their settled prefixes move), a machine goes down or up, and
    a row lands among past rows or the plan is cleared from now: the edits
    after which a chain must not resume where it stopped.  Every horizon,
    now and later, must equal the per-machine full scan, and so must every
    placement.
    """
    instance, solution = data.draw(cases())
    scheduler = MCTDivScheduler()
    scheduler.reset(instance)
    oracle = PerMachinePlan(instance)
    if data.draw(st.booleans()):
        # An LP plan first: gaps between rows, several machines per lane.
        scheduler.set_lanes(materialize_solution(solution, instance))
        oracle.extend_plan(
            _segments_from_schedule(_materialize_solution_per_machine(solution, instance))
        )
    machine_ids = instance.platform.ids()
    job_ids = [job.job_id for job in instance.jobs]
    state = SchedulerState(instance)
    for job in instance.jobs:
        state.release(job)
    for _ in range(data.draw(st.integers(1, 30))):
        step = data.draw(st.sampled_from(["stay", "tolerance", "horizon", "on"]))
        if step == "tolerance":
            state.time += data.draw(st.sampled_from([5e-13, 1e-12, 2e-12]))
        elif step == "horizon":
            machine_id = data.draw(st.sampled_from(machine_ids))
            nudge = data.draw(st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]))
            state.time = max(state.time, oracle.plan_horizon(machine_id, state.time) + nudge)
        elif step == "on":
            state.time += data.draw(st.sampled_from([1e-3, 0.3, 1.0]))
        now = state.time

        event = data.draw(
            st.sampled_from(["place", "place", "place", "read", "insert", "clear", "down", "up"])
        )
        if event == "place":
            job_id = data.draw(st.sampled_from(job_ids))
            work = data.draw(st.sampled_from([1e-3, 0.5, 2.0, 7.0]))
            scheduler._place(state, job_id, work, now)
            _mct_div_place(oracle, state, job_id, work, now)
        elif event == "read":
            assert_same_reading(scheduler, oracle, state)
        elif event == "insert":
            machine_id = data.draw(st.sampled_from(machine_ids))
            past = [seg.start for seg in oracle._plan[machine_id] if seg.start < now]
            start = data.draw(st.sampled_from([0.0] + past))
            segment = PlanSegment(
                machine_id=machine_id,
                job_id=data.draw(st.sampled_from(job_ids)),
                start=start,
                end=start + data.draw(st.sampled_from([1e-3, 0.5, 4.0, 9.0])),
            )
            scheduler.extend_plan([segment])
            oracle.extend_plan([segment])
        elif event == "clear":
            scheduler.clear_plan_from(now)
            oracle.clear_plan_from(now)
        elif event == "down":
            state.down.add(data.draw(st.sampled_from(machine_ids)))
        elif event == "up" and state.down:
            state.down.discard(data.draw(st.sampled_from(sorted(state.down))))

        assert scheduler.plan_segments() == oracle.plan_segments()
        later = now + data.draw(st.sampled_from([0.0, 1e-12, 0.7, 5.0]))
        for machine_id in machine_ids:
            for date in (now, later):
                assert scheduler.plan_horizon(machine_id, date) == oracle.plan_horizon(
                    machine_id, date
                )


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_share_totals_equal_their_full_scans(case):
    _, solution = case
    problem = solution.problem
    totals = share_totals(solution)
    job_last = totals.last.max(axis=1).tolist()
    for p, job in enumerate(problem.jobs):
        try:
            want = _scan_completion_interval(solution, job.job_id)
        except KeyError:
            want = -1
        assert job_last[p] == want
        for resource in range(problem.n_resources):
            assert (
                float(totals.work[p, resource]).hex()
                == _scan_work_for_job_on_resource(solution, job.job_id, resource).hex()
            )
            want = _scan_completion_interval_on_resource(solution, job.job_id, resource)
            assert totals.last[p, resource] == (-1 if want is None else want)
    for resource in range(problem.n_resources):
        here = [job.job_id for job, t in zip(problem.jobs, totals.last[:, resource]) if t >= 0]
        assert sorted(here) == _scan_jobs_on_resource(solution, resource)


@settings(max_examples=100, deadline=None)
@given(case=cases(), rule=st.sampled_from([edf_order, swrpt_terminal_order]))
def test_materialized_schedule_equals_the_full_scan_version(case, rule):
    instance, solution = case
    got = schedule_of(materialize_solution(solution, instance, order_rule=rule), instance)
    want = _materialize_solution_per_machine(solution, instance, order_rule=GROUP_ORDER[rule])
    assert got.slices == want.slices


def test_a_slow_machine_drops_out_of_short_rows_only():
    """The ``1e-9`` rule of ``split_work_across_machines``, row by row."""
    platform = Platform(
        [Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 1e9, 0, frozenset({"a"}))]
    )
    instance = Instance([Job(0, release=0.0, size=3.0, databank="a")], platform)
    problem = problem_from_instance(instance)
    speed = problem.resources[0].speed
    solution = MaxStretchSolution(
        objective=2.0,
        problem=problem,
        structure=build_interval_structure(problem, 2.0),
        interval_bounds=((0.0, 0.5), (0.5, 3.0)),
        shares=shares_of({(0, 0, 0): 0.5 * speed, (1, 0, 0): 2.5 * speed}),
    )
    scheduler = Follower()
    scheduler.reset(instance)
    scheduler.set_lanes(materialize_solution(solution, instance))
    assert [(s.start, s.end) for s in scheduler.plan_segments(0)] == [(0.0, 0.5), (0.5, 3.0)]
    assert [(s.start, s.end) for s in scheduler.plan_segments(1)] == [(0.5, 3.0)]
    assert sorted(scheduler.plan_segments(), key=lambda s: (s.start, s.machine_id)) == (
        _segments_from_schedule(_materialize_solution_per_machine(solution, instance))
    )


def test_a_segment_inserted_among_settled_rows_is_scanned():
    """``extend_plan`` shrinks the settled prefix to where a segment lands."""
    platform = Platform([Machine(0, 1.0, 0, frozenset({"a"}))])
    instance = Instance([Job(0, release=0.0, size=1.0, databank="a")], platform)
    scheduler = Follower()
    scheduler.reset(instance)
    scheduler.set_plan([PlanSegment(0, 0, 0.0, 1.0), PlanSegment(0, 0, 1.0, 2.0)])
    state = SchedulerState(instance)
    state.time = 3.0
    scheduler.plan_assignment(state)  # both rows ended: they settle
    scheduler.extend_plan([PlanSegment(0, 0, 0.5, 10.0)])
    assert scheduler.plan_horizon(0, 3.0) == 10.0
    assert scheduler.plan_tail(0, 3.0) == 10.0


def test_a_chain_resumes_only_where_the_full_scan_joins_it():
    """A later horizon query must not take a step the old chain took within tolerance.

    From 0 the chain steps onto the row ending at 1.0, then onto the next
    one, which starts 0.9e-12 later.  From just before 1.0 the full scan
    skips the first row (it ends within 1e-12 of the query) and stops at
    the second: resuming the old chain would answer 5.0.
    """
    platform = Platform([Machine(0, 1.0, 0, frozenset({"a"}))])
    instance = Instance([Job(0, release=0.0, size=1.0, databank="a")], platform)
    scheduler = Follower()
    scheduler.reset(instance)
    scheduler.set_plan(
        [PlanSegment(0, 0, 0.0, 1.0), PlanSegment(0, 0, 1.0 + 0.9e-12, 5.0)]
    )
    assert scheduler.plan_horizon(0, 0.0) == 5.0
    assert scheduler.plan_horizon(0, 1.0 - 0.5e-12) == 1.0 - 0.5e-12
    assert scheduler.plan_horizon(0, 0.5) == 5.0  # joins the chain: resumed
    assert scheduler.plan_horizon(0, 5.0) == 5.0
