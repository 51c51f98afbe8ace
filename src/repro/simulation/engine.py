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

The realized schedule is recorded run-length: a step extends a machine's open
run in place when it keeps the same job there and starts where the run ended,
and opens a new run otherwise, so it allocates only where the assignment
changed and a run's ``work`` is summed step by step in execution order.
"""

from __future__ import annotations

import math
import time as _time
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import ScheduleError
from repro.core.instance import Instance
from repro.core.schedule import Schedule, WorkSlice
from repro.lp.backends import record_lp_probes
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
        #: set by :meth:`run`, also attached to the returned result.
        self.lp_stats = None
        #: Mapping of the most recent applied assignment (live telemetry).
        self.last_assignment: dict[int, int] = {}
        self._jobs_admitted = 0
        #: Per-run machine tables (the platform is immutable).
        self._speed = {m.machine_id: m.speed for m in instance.platform}
        self._databanks = {m.machine_id: m.databanks for m in instance.platform}
        #: Recorded runs ``[job_id, machine_id, start, end, work]`` and each machine's open one.
        self._runs: list[list] = []
        self._open_runs: dict[int, list] = {}
        self._events: list[SimulationEvent] = []
        self._scheduler_time = 0.0
        self._n_decisions = 0

    # -- public API ---------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate until every job has completed and return the result.

        The run is wrapped in :func:`repro.lp.backends.record_lp_probes`, so
        the result carries the LP probe statistics (solve count/time and the
        probe-elimination histogram of the certificate-guided milestone
        search) alongside the scheduler wall-clock -- the instrumentation
        surface of the Section 5.3 overhead experiment.
        """
        with record_lp_probes() as lp_stats:
            self.lp_stats = lp_stats
            result = self._run()
        result.lp_probes = lp_stats
        return result

    def _run(self) -> SimulationResult:
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

        if len(self.queue) == 0 and not source.exhausted:
            # Externally fed run: park until the first submission so the
            # virtual clock starts at its release date, exactly as the batch
            # path starts at the earliest queued arrival.
            self._sync_submissions(math.inf)

        self.clock = SimulationClock(self.queue.next_time() if len(self.queue) else 0.0)
        state.time = self.clock.now
        stall_count = 0
        steps = 0

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
                transitions = [e for e in due if e.type is EventType.WAKEUP and e.machine_id is not None]
                if transitions:
                    self._apply_availability(transitions)
            arrivals = [e.job for e in due if e.type is EventType.ARRIVAL and e.job]
            if arrivals:
                for job in arrivals:
                    state.release(job)
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
            self._validate_assignment(assignment)
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

            # 4. Compute the processing rate of every active job, once per
            # step (the arrays feed both the completion horizon and the
            # advance below).
            rates: dict[int, float] = {}
            speeds = self._speed
            for machine_id, job_id in assignment.mapping.items():
                rates[job_id] = rates.get(job_id, 0.0) + speeds[machine_id]
            rated_ids, rate_arr, remaining_arr = self._rate_arrays(rates, state)

            # 5. Horizon of this step: next queued event, scheduler horizon,
            # or the earliest completion under the current rates.
            horizon = next_event
            if assignment.valid_until is not None:
                horizon = min(horizon, max(assignment.valid_until, state.time))
            step_end = min(
                horizon,
                _earliest_completion(rate_arr, remaining_arr, state.time),
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
            self._advance(assignment, rated_ids, rate_arr, remaining_arr,
                          state.time, step_end)
            state.time = self.clock.advance_to(step_end)

            # 7. Complete finished jobs.
            self._collect_completions()

        # Every job completed (or parked under a fault timeline): let the
        # scheduler publish reusable state (cross-run solver bank).  Counted
        # into the scheduler wall-clock, like every other callback.
        self._timed(self.scheduler.finalize, state)

        schedule = Schedule(WorkSlice(*run) for run in self._runs)
        return SimulationResult(
            instance=instance,
            scheduler_name=self.scheduler.name,
            schedule=schedule,
            completions=dict(state.completions),
            scheduler_time=self._scheduler_time,
            n_decisions=self._n_decisions,
            events=tuple(self._events),
            parked={j: rt.remaining for j, rt in state.active.items()},
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

    def _validate_assignment(self, assignment: Assignment) -> None:
        state = self.state
        down = state.down
        for machine_id, job_id in assignment.mapping.items():
            hosted = self._databanks.get(machine_id)
            if hosted is None:
                raise ScheduleError(f"assignment references unknown machine {machine_id}")
            if down and machine_id in down:
                raise ScheduleError(
                    f"assignment references machine {machine_id} which is down at t={state.time}"
                )
            runtime = state.active.get(job_id)
            if runtime is None:
                raise ScheduleError(
                    f"assignment references job {job_id} which is not active at t={state.time}"
                )
            databank = runtime.job.databank
            if databank is not None and databank not in hosted:
                raise ScheduleError(
                    f"machine {machine_id} cannot process job {job_id} "
                    f"(databank {databank!r} not hosted)"
                )

    @staticmethod
    def _rate_arrays(
        rates: Mapping[int, float], state: SchedulerState
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Job ids receiving work, their rates and remaining works, as arrays."""
        job_ids = list(rates)
        n = len(job_ids)
        rate = np.fromiter((rates[j] for j in job_ids), dtype=np.float64, count=n)
        remaining = np.fromiter(
            (state.active[j].remaining for j in job_ids), dtype=np.float64, count=n
        )
        return job_ids, rate, remaining

    def _advance(
        self,
        assignment: Assignment,
        job_ids: Sequence[int],
        rate: np.ndarray,
        remaining: np.ndarray,
        start: float,
        end: float,
    ) -> None:
        """Execute the assignment over ``[start, end]`` and record the runs.

        ``job_ids``/``rate``/``remaining`` are the step's rate arrays as
        returned by :meth:`_rate_arrays` (already used to compute the step
        horizon, so they are not rebuilt here).
        """
        duration = end - start
        if duration <= 0:
            # A zero-length step executes nothing; past this point
            # ``end > start``, so every recorded piece has positive duration.
            return
        active = self.state.active
        speeds = self._speed
        runs, open_runs = self._runs, self._open_runs
        gap_tol = 1e-12 * max(1.0, abs(start))  # a run ending within it of ``start`` continues
        for machine_id, job_id in assignment.mapping.items():
            work = speeds[machine_id] * duration
            if work <= 0:
                raise ScheduleError(
                    f"slice for job {job_id} on machine {machine_id} has "
                    f"non-positive work {work}"
                )
            runtime = active[job_id]
            if runtime.first_service is None:
                runtime.first_service = start
            run = open_runs.get(machine_id)
            if run is not None and run[0] == job_id and abs(run[3] - start) <= gap_tol:
                run[3] = end
                run[4] += work
            else:
                run = open_runs[machine_id] = [job_id, machine_id, start, end, work]
                runs.append(run)
        if len(job_ids):
            new_remaining = np.maximum(0.0, remaining - rate * duration)
            for job_id, value in zip(job_ids, new_remaining):
                active[job_id].remaining = float(value)

    def _collect_completions(self) -> None:
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
        finished = ids[remaining <= _COMPLETION_TOL * np.maximum(1.0, sizes)]
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

    def _timed(self, fn, *args):
        start = _time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._scheduler_time += _time.perf_counter() - start

    def _call(self, fn, *args):
        return fn(*args)


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
