"""The fluid discrete-event simulation engine.

The engine advances simulated time from scheduling decision to scheduling
decision.  A decision is an :class:`~repro.simulation.state.Assignment`
mapping machines to jobs; between decisions each assigned machine is fully
dedicated to its job, so a job's remaining work decreases at the sum of the
speeds of its assigned machines and the next completion date can be computed
in closed form.  Decisions are requested:

* when jobs arrive (simultaneous arrivals are batched into one callback),
* when a job completes,
* when the current assignment's ``valid_until`` horizon is reached (used by
  plan-based schedulers whose plans contain internal breakpoints, and by
  deferred-replan policies asking to be woken up later).

Exogenous events (arrivals) live in the heap-based
:class:`~repro.simulation.clock.EventQueue`; completion dates are recomputed
in closed form from the current rates at every step, so they are never
queued and never go stale.  The engine also records the wall-clock time
spent inside scheduler callbacks, which reproduces the scheduling-overhead
comparison of Section 5.3.

The realized schedule is recorded run-length, as columns (job, machine,
start, end, work): a step extends a machine's open run in place when it keeps
the same job there and starts where the run ended, and opens a new run
otherwise, so it allocates only where the assignment changed and a run's
``work`` is summed step by step in execution order.  Closed runs go to typed
buffers (C ``int`` ids, ``double`` dates and work; 32 bytes a run), so job
and machine ids must fit 32 bits.  The result's
:class:`~repro.core.schedule.Schedule` views those buffers without a copy and
builds its slice objects only if something reads them.

The cost of a step follows what changed in it: only the jobs that received
work in the step, and those released since the last check, are tested for
completion.  Remaining work falls only for a job that ran, and a fault's
loss model only ever raises it, so no other active job can have finished.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.backends import LPProbeStats
from repro.simulation.clock import EventQueue, EventType, QueuedEvent, SimulationClock
from repro.simulation.events import (
    ArrivalEvent,
    AvailabilityEvent,
    CompletionEvent,
    DecisionEvent,
    SimulationEvent,
)
from repro.simulation.faults import FaultTimeline, apply_loss
from repro.simulation.result import SimulationResult
from repro.simulation.source import InstanceSource, SubmissionSource
from repro.simulation.state import Assignment, SchedulerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Scheduler

__all__ = ["SimulationEngine", "simulate"]

#: Relative tolerance under which a job's remaining work counts as zero.
_COMPLETION_TOL = 1e-9
#: Number of consecutive zero-length steps tolerated before declaring a
#: scheduler live-lock.
_MAX_STALL = 1000


class SimulationEngine:
    """Runs one scheduler against one instance.

    Parameters
    ----------
    instance, scheduler:
        What to simulate.
    record_events:
        Keep an event trace (arrivals, decisions, completions) in the result.
    max_steps:
        Safety bound on the number of simulation steps before declaring a
        live-lock.  ``None`` (default) derives a generous bound from the
        number of admitted jobs; tests inject small values to exercise the
        guard.
    source:
        Where arrivals come from (see :mod:`repro.simulation.source`).
        ``None`` (default) is batch mode: every arrival of ``instance`` is
        queued up front through an :class:`InstanceSource`, and the engine
        never consults the source again.  A non-exhausted source (trace
        replay, live daemon) is instead *pulled* before every virtual-time
        advance, so externally submitted jobs become visible exactly at
        their release dates.
    faults:
        Optional :class:`~repro.simulation.faults.FaultTimeline`.  Its
        DOWN/UP transitions are queued as ``WAKEUP`` events and applied
        *before* the arrivals of the same event batch; a DOWN removes the
        machine from every availability-aware query on the state (and
        re-queues in-flight work per the timeline's loss model), an UP
        restores it.  ``None`` or an empty timeline leaves every float path
        of the engine untouched, so fault-free runs stay bit-identical to
        the historical engine.
    """

    def __init__(
        self,
        instance: Instance,
        scheduler: "Scheduler",
        *,
        record_events: bool = False,
        max_steps: int | None = None,
        source: SubmissionSource | None = None,
        faults: FaultTimeline | None = None,
    ):
        self.instance = instance
        self.scheduler = scheduler
        self.record_events = record_events
        if faults:
            if not getattr(scheduler, "fault_aware", True):
                raise ScheduleError(
                    f"scheduler {scheduler.name} cannot run under a fault timeline "
                    "(it relies on whole-run clairvoyance)"
                )
            faults = faults.restrict_to(instance.platform.ids())
        self.faults: FaultTimeline | None = faults if faults else None
        self.state = SchedulerState(instance)
        self.clock = SimulationClock()
        self.queue = EventQueue()
        self.max_steps = max_steps
        self.source: SubmissionSource = (
            source if source is not None else InstanceSource(instance)
        )
        #: LP probe statistics of the in-flight run (live telemetry surface);
        #: set once the scheduler is reset, also attached to the result.
        self.lp_stats: LPProbeStats | None = None
        #: Mapping of the most recent applied assignment (live telemetry).
        self.last_assignment: dict[int, int] = {}
        self._jobs_admitted = 0
        #: Per-run machine tables (the platform is immutable), one row per
        #: machine in platform order.
        platform = instance.platform
        self._row = {machine_id: row for row, machine_id in enumerate(platform.ids())}
        for machine_id in platform.ids():
            _check_id("machine", machine_id)
        self._machine_id = np.array(platform.ids(), dtype=np.intc)
        self._speed = np.array([m.speed for m in platform], dtype=np.float64)
        banks = sorted(platform.databanks())
        #: Databank -> column of ``_hosts``; ``None`` (any machine) follows the
        #: platform's databanks, and the last column (no machine) stands for
        #: an inactive job.
        self._bank_column: dict[str | None, int] = {b: c for c, b in enumerate(banks)}
        self._bank_column[None] = len(banks)
        self._hosts = np.array(
            [[b in m.databanks for b in banks] + [True, False] for m in platform], dtype=bool
        ).reshape(len(platform), len(banks) + 2)
        #: Each machine's open run (``end`` is ``-inf`` while it has none).
        self._open_job = np.zeros(len(platform), dtype=np.intc)
        self._open_start = np.zeros(len(platform), dtype=np.float64)
        self._open_end = np.full(len(platform), -math.inf)
        self._open_work = np.zeros(len(platform), dtype=np.float64)
        #: Closed runs as columns (job, machine, start, end, work), typed
        #: buffers laid out as the open-run tables above.
        self._runs: tuple[array, ...] = (array("i"), array("i"), array("d"), array("d"), array("d"))
        self._events: list[SimulationEvent] = []
        self._scheduler_time = 0.0
        self._n_decisions = 0

    # -- public API ---------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate until every job has completed and return the result.

        The result carries the LP probe statistics of the run (solve
        count/time, the probe-elimination histogram of the certificate-guided
        milestone search, the replan latencies) alongside the scheduler
        wall-clock -- the instrumentation surface of the Section 5.3 overhead
        experiment.  They are the scheduler's :attr:`Scheduler.lp_stats
        <repro.schedulers.base.Scheduler.lp_stats>`, taken right after its
        reset (an empty object for LP-free schedulers), so each run counts
        only its own LP solves, whatever else runs in the process.
        """
        instance, state = self.instance, self.state
        source = self.source
        source.start(self.queue)
        self._jobs_admitted = len(self.queue)
        if self.faults:
            for transition in self.faults.events:
                self.queue.push_wakeup(transition.time, transition.machine_id, transition.up)

        start = _time.perf_counter()
        self._call(self.scheduler.reset, instance)
        self._scheduler_time += _time.perf_counter() - start
        lp_stats = self.scheduler.lp_stats
        self.lp_stats = lp_stats if lp_stats is not None else LPProbeStats()

        if len(self.queue) == 0 and not source.exhausted:
            # Externally fed run: park until the first submission so the
            # virtual clock starts at its release date, exactly as the batch
            # path starts at the earliest queued arrival.
            self._sync_submissions(math.inf)

        self.clock = SimulationClock(self.queue.next_time() if len(self.queue) else 0.0)
        state.time = self.clock.now
        stall_count = 0
        steps = 0
        #: Jobs released since the last completion check.
        released: list[int] = []

        while True:
            steps += 1
            if steps > self._step_limit():
                raise ScheduleError(
                    f"simulation exceeded {self._step_limit()} steps; the scheduler "
                    f"({self.scheduler.name}) appears to be live-locked"
                )

            # 1. Dispatch every event due now; simultaneous arrivals form one
            # batch and trigger a single scheduler callback.
            due = self.queue.pop_due(state.time)
            if self.faults:
                # Availability transitions apply before the arrivals of the
                # same batch: a machine failing exactly at an arrival instant
                # is already gone when the scheduler sees the new jobs.
                transitions = [e for e in due
                               if e.type is EventType.WAKEUP and e.machine_id is not None]
                if transitions:
                    self._apply_availability(transitions)
            arrivals = [e.job for e in due if e.type is EventType.ARRIVAL and e.job]
            if arrivals:
                for job in arrivals:
                    _check_id("job", job.job_id)
                    state.release(job)
                    released.append(job.job_id)
                    if self.record_events:
                        self._events.append(
                            ArrivalEvent(time=state.time, job_id=job.job_id,
                                         size=job.size, databank=job.databank)
                        )
                self._timed(self.scheduler.on_arrivals, state, arrivals)

            next_event = self.queue.next_time()

            # 2. Termination / idle handling.
            if not state.active:
                if not source.exhausted:
                    # Before jumping (or waiting forever), let the source
                    # deliver anything due first -- a live source parks the
                    # engine here while the system is empty.
                    next_event = self._sync_submissions(next_event)
                if math.isinf(next_event):
                    break
                state.time = self.clock.advance_to(next_event)
                continue

            # 3. Ask the scheduler for an assignment.
            assignment = self._timed(self.scheduler.assign, state)
            if assignment is None:
                assignment = Assignment.idle()
            step = self._step_arrays(assignment)
            self._n_decisions += 1
            self.last_assignment = assignment.mapping
            if self.record_events:
                self._events.append(
                    DecisionEvent(
                        time=state.time,
                        assignment=tuple(sorted(assignment.mapping.items())),
                        n_active=state.n_active(),
                    )
                )

            # 4-5. Horizon of this step: next queued event, scheduler horizon,
            # or the earliest completion under the current rates.
            horizon = next_event
            if assignment.valid_until is not None:
                horizon = min(horizon, max(assignment.valid_until, state.time))
            step_end = min(
                horizon,
                _earliest_completion(step.rates, step.remaining, state.time),
            )

            if not source.exhausted:
                # The engine is about to commit to advancing to ``step_end``;
                # give the source a chance to deliver submissions released at
                # or before that date first.  The horizon is only ever
                # *tightened* here (never split after the fact), so the
                # fluid kernel's float accumulation is unchanged -- the key
                # to bit-identical trace replay.
                next_event = self._sync_submissions(step_end)
                step_end = min(step_end, next_event)

            if math.isinf(step_end):
                if self.faults and state.down and self._all_parked():
                    # Every survivor's eligible machines are down and no UP,
                    # arrival or submission is ever coming: the jobs are
                    # *parked*, not abandoned -- terminate gracefully and
                    # report them (infinite stretch, the starvation bound).
                    break
                # Nothing is running and nothing will ever arrive: the
                # scheduler abandoned the remaining jobs.
                raise ScheduleError(
                    f"scheduler {self.scheduler.name} left jobs "
                    f"{sorted(state.active)} unscheduled with no future event"
                )

            if step_end <= state.time + 1e-15:
                stall_count += 1
                if stall_count > _MAX_STALL:
                    raise ScheduleError(
                        f"scheduler {self.scheduler.name} produced {_MAX_STALL} "
                        f"consecutive zero-length steps at t={state.time}"
                    )
            else:
                stall_count = 0

            # 6. Advance execution to ``step_end``.
            self._advance(step, state.time, step_end)
            state.time = self.clock.advance_to(step_end)

            # 7. Complete finished jobs.
            self._collect_completions(step.rated_ids, released)
            released = []

        # Every job completed (or parked under a fault timeline): let the
        # scheduler release its per-run solver state.  Counted
        # into the scheduler wall-clock, like every other callback.
        self._timed(self.scheduler.finalize, state)

        self._close_runs(np.flatnonzero(self._open_end > -math.inf))
        schedule = Schedule.from_columns(*self._runs)
        return SimulationResult(
            instance=instance,
            scheduler_name=self.scheduler.name,
            schedule=schedule,
            completions=dict(state.completions),
            scheduler_time=self._scheduler_time,
            n_decisions=self._n_decisions,
            events=tuple(self._events),
            parked={j: rt.remaining for j, rt in state.active.items()},
            lp_probes=self.lp_stats,
        )

    # -- internals --------------------------------------------------------------------
    def _step_limit(self) -> int:
        """The live-lock step bound.

        Generous: every event (arrival, completion, plan breakpoint) should
        trigger a handful of steps at most.  Derived from the *admitted* job
        count, so an externally fed run's allowance grows with its intake
        (batch mode admits everything up front and reproduces the historical
        bound exactly).
        """
        if self.max_steps is not None:
            return self.max_steps
        return 1000 + 200 * (self._jobs_admitted + 1) * (len(self.instance.platform) + 1)

    def _sync_submissions(self, until: float) -> float:
        """Pull the source until no submission is due at or before ``until``.

        Newly delivered jobs are queued as arrivals and shrink ``until`` to
        the earliest of them, so the fixed point guarantees that when this
        returns, the source holds nothing the engine is about to step over.
        Returns the queue's next event date.
        """
        while True:
            jobs = self.source.pull(self.state.time, until)
            if not jobs:
                return self.queue.next_time()
            for job in jobs:
                self.queue.push_arrival(job)
            self._jobs_admitted += len(jobs)
            until = min(until, self.queue.next_time())

    def _apply_availability(self, transitions: "Sequence[QueuedEvent]") -> None:
        """Apply a batch of DOWN/UP transitions at the current instant."""
        state = self.state
        downs: list[int] = []
        ups: list[int] = []
        for event in transitions:
            machine_id = int(event.machine_id)  # type: ignore[arg-type]
            if event.up:
                state.down.discard(machine_id)
                ups.append(machine_id)
            else:
                state.down.add(machine_id)
                downs.append(machine_id)
        lost = self._reclaim_inflight(downs) if downs else {}
        if self.record_events:
            for event in transitions:
                machine_id = int(event.machine_id)  # type: ignore[arg-type]
                self._events.append(
                    AvailabilityEvent(
                        time=state.time,
                        machine_id=machine_id,
                        up=event.up,
                        lost_work=0.0 if event.up else lost.get(machine_id, 0.0),
                    )
                )
        self._timed(self.scheduler.on_availability, state, tuple(downs), tuple(ups))

    def _reclaim_inflight(self, downs: Sequence[int]) -> dict[int, float]:
        """Re-queue work in flight on machines that just failed.

        The job a failed machine was serving keeps running elsewhere (or
        waits) with its remaining work adjusted per the timeline's loss
        model.  Returns ``machine_id -> extra work re-queued`` (non-zero
        only under the ``restart`` model).
        """
        state = self.state
        timeline = self.faults
        assert timeline is not None
        lost: dict[int, float] = {}
        for machine_id in downs:
            job_id = self.last_assignment.get(machine_id)
            if job_id is None or job_id not in state.active:
                continue
            runtime = state.active[job_id]
            before = runtime.remaining
            runtime.remaining = apply_loss(
                before,
                runtime.job.size,
                loss_model=timeline.loss_model,
                checkpoint_fraction=timeline.checkpoint_fraction,
            )
            if runtime.remaining > before:
                lost[machine_id] = runtime.remaining - before
        return lost

    def _all_parked(self) -> bool:
        """True when no active job has any eligible machine still up."""
        state = self.state
        return all(not state.available_eligible(job_id) for job_id in state.active)

    def _step_arrays(self, assignment: Assignment) -> "_Step":
        """Validate ``assignment`` and return the step's arrays.

        Every assigned machine must exist, be up and host its job's
        databank, and every assigned job must be active.  The checks run on
        whole arrays; the first failing pair in assignment order names the
        error, by the first check it fails in that order.  Each job's rate
        sums its machines' speeds in assignment order, as ``np.bincount``
        accumulates.
        """
        state = self.state
        mapping = assignment.mapping
        n = len(mapping)
        rows = np.fromiter(map(self._row.get, mapping, repeat(-1, n)), np.intp, count=n)
        jobs = np.fromiter(mapping.values(), np.int64, count=n)
        rated_ids = sorted(set(mapping.values()))
        inverse = np.searchsorted(np.array(rated_ids, dtype=np.int64), jobs)
        runtimes = list(map(state.active.get, rated_ids))
        bank_column = self._bank_column
        columns = np.array(
            [-1 if rt is None else bank_column[rt.job.databank] for rt in runtimes],
            dtype=np.intp,
        )
        valid = self._hosts[rows, columns[inverse]] & (rows >= 0)
        down = state.down
        if down and not down.isdisjoint(mapping):
            valid &= ~np.fromiter(map(down.__contains__, mapping), bool, count=n)
        if not valid.all():
            i = int(np.argmin(valid))
            machine_id, job_id = list(mapping.items())[i]
            runtime = state.active.get(job_id)
            if rows[i] < 0:
                raise ScheduleError(f"assignment references unknown machine {machine_id}")
            if machine_id in down:
                raise ScheduleError(
                    f"assignment references machine {machine_id} which is down at t={state.time}"
                )
            if runtime is None:
                raise ScheduleError(
                    f"assignment references job {job_id} which is not active at t={state.time}"
                )
            raise ScheduleError(
                f"machine {machine_id} cannot process job {job_id} "
                f"(databank {runtime.job.databank!r} not hosted)"
            )
        speeds = self._speed[rows]
        return _Step(
            rows=rows,
            jobs=jobs,
            speeds=speeds,
            rated_ids=rated_ids,
            rates=np.bincount(inverse, weights=speeds, minlength=len(rated_ids)),
            remaining=np.array([rt.remaining for rt in runtimes], dtype=np.float64),
        )

    def _advance(self, step: "_Step", start: float, end: float) -> None:
        """Execute the step over ``[start, end]`` and record the runs.

        A machine's open run continues when it keeps the same job and ended
        within ``gap_tol`` of ``start``; every other assigned machine closes
        its open run and opens a new one.
        """
        duration = end - start
        if duration <= 0:
            # A zero-length step executes nothing; past this point
            # ``end > start``, so every recorded piece has positive duration.
            return
        rows, jobs = step.rows, step.jobs
        work = step.speeds * duration
        if not (work > 0).all():
            i = int(np.argmin(work > 0))
            raise ScheduleError(
                f"slice for job {int(jobs[i])} on machine {int(self._machine_id[rows[i]])} "
                f"has non-positive work {float(work[i])}"
            )
        gap_tol = 1e-12 * max(1.0, abs(start))  # a run ending within it of ``start`` continues
        opened = (self._open_job[rows] != jobs) | (np.abs(self._open_end[rows] - start) > gap_tol)
        if opened.any():
            fresh = rows[opened]
            self._close_runs(fresh)
            self._open_job[fresh] = jobs[opened]
            self._open_start[fresh] = start
            self._open_work[fresh] = 0.0
        self._open_end[rows] = end
        self._open_work[rows] += work
        active = self.state.active
        new_remaining = np.maximum(0.0, step.remaining - step.rates * duration)
        for job_id, value in zip(step.rated_ids, new_remaining.tolist()):
            runtime = active[job_id]
            runtime.remaining = value
            if runtime.first_service is None:
                runtime.first_service = start

    def _close_runs(self, rows: np.ndarray) -> None:
        """Move the open runs of the machines at ``rows`` (if any) to the columns.

        Each table's entries are appended to its buffer as raw bytes (the
        tables share the buffers' item types), so no value is boxed.
        """
        rows = rows[self._open_end[rows] > -math.inf]
        for column, values in zip(
            self._runs,
            (self._open_job, self._machine_id, self._open_start, self._open_end, self._open_work),
        ):
            column.frombytes(values[rows].tobytes())

    def _collect_completions(self, rated_ids: Sequence[int], released: Sequence[int]) -> None:
        """Complete the finished jobs among those that ran or were just released.

        No other active job can have finished since the last check: remaining
        work falls only for a job that ran, and a fault's loss model only
        raises it.  A freshly released job may be finished from the start
        (a size within the tolerance).
        """
        state = self.state
        active = state.active
        finished = set()
        for job_id in (*rated_ids, *released):
            runtime = active.get(job_id)
            if runtime is not None and (
                runtime.remaining <= _COMPLETION_TOL * max(1.0, runtime.job.size)
            ):
                finished.add(job_id)
        for job_id in sorted(finished):
            runtime = active[job_id]
            state.complete(job_id, state.time)
            if self.record_events:
                flow = state.time - runtime.job.release
                stretch = flow / self.instance.ideal_time(job_id)
                self._events.append(
                    CompletionEvent(time=state.time, job_id=job_id, flow=flow, stretch=stretch)
                )
            self._timed(self.scheduler.on_completion, state, job_id)

    def _timed(self, fn, *args):
        start = _time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._scheduler_time += _time.perf_counter() - start

    def _call(self, fn, *args):
        return fn(*args)


class _Step(NamedTuple):
    """One decision's arrays: per assigned machine, then per assigned job."""

    #: Machine-table row, job and speed of each assigned machine, in
    #: assignment order.
    rows: np.ndarray
    jobs: np.ndarray
    speeds: np.ndarray
    #: The distinct assigned jobs (ascending), their rates and remaining works.
    rated_ids: list[int]
    rates: np.ndarray
    remaining: np.ndarray


_ID_LIMITS = np.iinfo(np.intc)


def _check_id(kind: str, value: int) -> None:
    """Refuse an id that the 32-bit run columns could not hold."""
    if not _ID_LIMITS.min <= value <= _ID_LIMITS.max:
        raise ScheduleError(f"{kind} id {value} does not fit the engine's 32-bit run columns")


def _earliest_completion(rate: np.ndarray, remaining: np.ndarray, now: float) -> float:
    """Earliest completion date under the step's rates (vectorized; inf when none)."""
    positive = rate > 0.0
    if not positive.any():
        return math.inf
    return now + float(np.min(remaining[positive] / rate[positive]))


def simulate(
    instance: Instance,
    scheduler: "Scheduler",
    *,
    record_events: bool = False,
    faults: FaultTimeline | None = None,
) -> SimulationResult:
    """Convenience wrapper: run ``scheduler`` on ``instance`` and return the result."""
    engine = SimulationEngine(instance, scheduler, record_events=record_events, faults=faults)
    return engine.run()
