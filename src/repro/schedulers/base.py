"""Scheduler base classes.

Three families of schedulers are supported:

* :class:`PriorityScheduler` -- "list" schedulers that maintain a priority
  among active jobs and apply the greedy rule of Section 3 at every decision
  point: the highest-priority job receives *all* the available machines able
  to process it, the next job receives the remaining ones, and so on.  On a
  single machine this is exactly preemptive priority scheduling, which is the
  setting in which SRPT, SWRPT, ... are analysed in the paper.
* :class:`PlanBasedScheduler` -- schedulers that compute an explicit plan at
  certain events and then simply follow it.  The plan is a set of lanes, each
  a group of machines following one timeline of job segments: one lane per
  capability class for the off-line optimal algorithm and the LP-based
  on-line heuristics, one per machine for the MCT greedy strategies.
* Free-form schedulers deriving directly from :class:`Scheduler`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.instance import Instance
from repro.core.job import Job
from repro.simulation.state import Assignment, JobRuntime, SchedulerState
from repro.schedulers import kernels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.backends import LPProbeStats
    from repro.schedulers.policies import ReplanPolicy

__all__ = [
    "Scheduler",
    "PriorityScheduler",
    "PlanBasedScheduler",
    "PlanSegment",
    "Row",
    "Lane",
    "greedy_assignment",
]

#: A planned ``(start, end, job_id)`` dedication of every machine of a lane.
Row = tuple[float, float, int]
#: Machine ids and the timeline of rows they all follow.
Lane = tuple[Sequence[int], list[Row]]

_START = itemgetter(0)


def greedy_assignment(state: SchedulerState, runtimes: Iterable[JobRuntime]) -> Assignment:
    """The greedy rule of Section 3 over ``runtimes`` in priority order.

    The first job of a databank takes *all* its available hosts, so later
    jobs of that databank can get nothing and are skipped without a scan;
    once every databank of the instance is served, every later job would
    be skipped, so the scan stops.
    """
    instance = state.instance
    available = state.available_ids()
    n_databanks = len(instance.jobs.databank_keys())
    mapping: dict[int, int] = {}
    served: set[str | None] = set()
    for runtime in runtimes:
        if not available:
            break
        job = runtime.job
        if job.databank in served:
            continue
        served.add(job.databank)
        taken = [m for m in instance.eligible_machine_ids(job.job_id) if m in available]
        available.difference_update(taken)
        mapping.update(dict.fromkeys(taken, job.job_id))
        if len(served) == n_databanks:
            break
    return Assignment(mapping=mapping)


class Scheduler(ABC):
    """Interface between the simulation engine and a scheduling strategy."""

    #: Human-readable name used in result tables.
    name: str = "scheduler"

    #: Whether the strategy can run under a fault timeline.  Clairvoyant
    #: strategies whose whole-run plan assumes a reliable platform set this
    #: to ``False``; the engine then refuses to pair them with faults
    #: instead of producing silently wrong schedules.
    fault_aware: bool = True

    #: The LP counters of the current run: LP schedulers point it at their
    #: backend's fresh :attr:`~repro.lp.backends.SolverBackend.stats` in
    #: :meth:`reset`; ``None`` for the LP-free ones.
    lp_stats: "LPProbeStats | None" = None

    def reset(self, instance: Instance) -> None:
        """Called once before the simulation starts.

        Off-line strategies (which know the whole instance in advance) build
        their plan here; on-line strategies typically only record the
        instance for later use.
        """

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        """Called when ``job`` is released (after it was added to ``state``)."""

    def on_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        """Called once per batch of simultaneous releases.

        The engine delivers arrivals in batches (usually of size one); the
        default forwards to :meth:`on_arrival` job by job.  Schedulers whose
        arrival handling is expensive (LP replans) override this to react
        once per batch.
        """
        for job in jobs:
            self.on_arrival(state, job)

    def on_completion(self, state: SchedulerState, job_id: int) -> None:
        """Called when a job completes."""

    def on_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Called after machine availability changed (fault injection).

        ``downs``/``ups`` are the machine ids that just left/rejoined the
        platform; ``state.down`` already reflects the new availability and
        in-flight work on the failed machines has been re-queued per the
        timeline's loss model.  Stateless schedulers need not react -- their
        next :meth:`assign` reads the filtered availability from the state
        -- but plan-holding strategies must invalidate anything that
        references the transitioned machines.
        """

    def finalize(self, state: SchedulerState) -> None:
        """Called once after the last job completed (the run is over).

        Strategies holding per-run solver state release it here (e.g. the
        LP heuristics dropping their live LP model).  Must not alter the
        schedule -- the engine has already stopped executing assignments
        when this fires.
        """

    @abstractmethod
    def assign(self, state: SchedulerState) -> Assignment:
        """Return the machine->job assignment to apply from ``state.time`` on."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PriorityScheduler(Scheduler):
    """Greedy list scheduling driven by a per-job priority key.

    Subclasses implement :meth:`priority_keys`; lower keys mean higher
    priority.  At every decision point the active jobs are sorted by
    priority and the rule of Section 3 is applied: while some processors are
    idle, pick the highest-priority not-yet-served job and give it every
    available processor able to serve it.
    """

    def __init__(self) -> None:
        self.instance: Instance | None = None

    def reset(self, instance: Instance) -> None:
        self.instance = instance

    @abstractmethod
    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        """Priority keys of the active ``runtimes`` as a float64 array
        (smaller = more urgent); the ranking kernel consumes them verbatim."""

    def assign(self, state: SchedulerState) -> Assignment:
        active = state.active
        job_ids = sorted(active)
        runtimes = [active[job_id] for job_id in job_ids]
        keys = np.asarray(self.priority_keys(state, runtimes), dtype=np.float64)
        ids = np.array(job_ids, dtype=np.int64)
        order = kernels.rank_by_priority(keys, ids)
        return greedy_assignment(state, (runtimes[position] for position in order.tolist()))


@dataclass(frozen=True)
class PlanSegment:
    """A planned dedication of one machine to one job over a time interval."""

    machine_id: int
    job_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"plan segment for job {self.job_id} on machine {self.machine_id} "
                f"has non-positive duration"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Lane:
    """One timeline of rows (sorted by start) and its last reading."""

    __slots__ = ("rows", "shared", "settled", "reading", "job", "waiting")

    def __init__(self, rows: list[Row], shared: bool, settled: int = 0):
        rows.sort(key=_START)
        self.rows = rows
        #: Whether several machines follow this timeline.
        self.shared = shared
        #: Rows before this index end by the date of the last plan reading
        #: (:attr:`PlanBasedScheduler._read_at`); scans start after them.
        self.settled = settled
        self.changed()

    def changed(self) -> None:
        """Drop the cached reading after a change to ``rows``."""
        #: ``(job to run now, next date the reading changes)``, or ``None``
        #: until the lane is read again.
        self.reading: tuple[int | None, float | None] | None = None
        #: The job of the row the reading came from (``None``: no such row).
        self.job: int | None = None
        #: Unreleased jobs whose rows the reading skipped.
        self.waiting: tuple[int, ...] = ()

    def read(self, state: SchedulerState) -> tuple[int | None, float | None]:
        """Read the lane at ``state.time``: cache and return the reading."""
        time = state.time
        expired = time + 1e-12
        rows = self.rows
        count = len(rows)
        index = self.settled
        while index < count and rows[index][1] <= time:
            index += 1
        self.settled = index
        active = state.active
        waiting: list[int] = []
        self.job = None
        self.reading = (None, None)
        while index < count:
            start, end, job_id = rows[index]
            index += 1
            if end <= expired:
                continue
            if job_id not in active:
                # The job finished (slightly) earlier than planned, or is not
                # released yet, in which case its release re-reads the lane.
                if job_id not in state.completions:
                    waiting.append(job_id)
                continue
            self.job = job_id
            self.reading = (job_id, end) if start <= expired else (None, start)
            break
        self.waiting = tuple(waiting)
        return self.reading


class PlanBasedScheduler(Scheduler):
    """A scheduler that follows an explicit plan.

    The plan is a set of *lanes*: a lane is a tuple of machine ids that all
    follow one timeline of ``(start, end, job_id)`` rows, and a machine
    belongs to at most one lane.  The LP schedulers install one lane per
    capability class through :meth:`set_lanes` (the machines of a class act
    as one equivalent processor, Section 4.3.2 step 4); everything phrased
    per machine -- :meth:`set_plan`, :meth:`extend_plan`, the MCT strategies
    -- uses single-machine lanes.  Subclasses populate the plan (typically
    from :meth:`reset` or :meth:`on_arrival`); :meth:`assign` then simply
    reads it.

    On-line subclasses may additionally hand a
    :class:`~repro.schedulers.policies.ReplanPolicy` to the constructor and
    implement :meth:`replan` (and, for absorbing policies,
    :meth:`absorb_arrivals`).  The policy then decides, per arrival batch,
    whether to recompute the plan now, wake up later (deferred arrivals cap
    the assignment's ``valid_until``), or splice the new jobs into the
    existing plan cheaply.  Without a policy the historical behaviour is
    unchanged: every arrival is forwarded to :meth:`on_arrival`.
    """

    def __init__(self, policy: "ReplanPolicy | None" = None) -> None:
        self.instance: Instance | None = None
        #: Machine id -> the lane it follows (machines without one are idle).
        self._lanes: dict[int, _Lane] = {}
        #: Date of the last plan reading: settled prefixes hold from there on.
        self._read_at = -math.inf
        self.policy = policy
        self._recheck_at: float | None = None

    def reset(self, instance: Instance) -> None:
        self.instance = instance
        self._lanes = {}
        self._read_at = -math.inf
        self._recheck_at = None
        if self.policy is not None:
            self.policy.reset(instance)

    # -- plan manipulation ---------------------------------------------------------
    def set_lanes(self, lanes: Iterable[Lane]) -> None:
        """Replace the whole plan by ``(machine ids, rows)`` lanes."""
        by_machine: dict[int, _Lane] = {}
        for machine_ids, rows in lanes:
            for start, end, job_id in rows:
                PlanSegment(machine_ids[0], job_id, start, end)  # checks the duration
            lane = _Lane(rows, shared=len(machine_ids) > 1)
            for machine_id in machine_ids:
                by_machine[machine_id] = lane
        self._lanes = by_machine

    def set_plan(self, segments: Iterable[PlanSegment]) -> None:
        """Replace the whole plan."""
        self._lanes = {}
        self.extend_plan(segments)

    def extend_plan(self, segments: Iterable[PlanSegment]) -> None:
        """Insert segments into the plan (kept sorted by start time).

        A segment lands after every row starting no later than it, so a lane
        keeps its settled prefix unless a segment starts inside it.
        """
        for segment in segments:
            lane = self._lanes.get(segment.machine_id)
            if lane is None or lane.shared:
                # A machine of a class leaves the timeline the class shares.
                lane = (
                    _Lane(list(lane.rows), shared=False, settled=lane.settled)
                    if lane
                    else _Lane([], shared=False)
                )
                self._lanes[segment.machine_id] = lane
            index = bisect_right(lane.rows, segment.start, key=_START)
            lane.rows.insert(index, (segment.start, segment.end, segment.job_id))
            lane.settled = min(lane.settled, index)
            lane.changed()

    def clear_plan_from(self, time: float) -> None:
        """Drop every planned segment that starts at or after ``time``.

        Segments straddling ``time`` are truncated; used by on-line
        strategies that re-plan at each release date.  Settled rows end by
        the last reading, so from then on they are kept as they are.
        """
        for lane in set(self._lanes.values()):
            first = self._unsettled(lane, time)
            rows = lane.rows
            tail: list[Row] = []
            for row in islice(rows, first, None):
                if row[1] <= time + 1e-12:
                    tail.append(row)
                elif row[0] < time - 1e-12:
                    tail.append((row[0], time, row[2]))
                # Segments starting after ``time`` are dropped.
            if tail != rows[first:]:
                lane.rows = rows[:first] + tail
                lane.settled = first
                lane.changed()

    def has_plan(self) -> bool:
        """Whether any machine has a planned segment."""
        return any(lane.rows for lane in self._lanes.values())

    def plan_segments(self, machine_id: int | None = None) -> list[PlanSegment]:
        """The current plan, machine by machine (for inspection and testing)."""
        assert self.instance is not None
        machine_ids = self.instance.platform.ids() if machine_id is None else (machine_id,)
        return [
            PlanSegment(machine_id=m, job_id=job_id, start=start, end=end)
            for m in machine_ids
            if m in self._lanes
            for start, end, job_id in self._lanes[m].rows
        ]

    def _unsettled(self, lane: _Lane, time: float) -> int:
        """Index of the first row a query at ``time`` must look at."""
        return lane.settled if time >= self._read_at else 0

    def plan_horizon(self, machine_id: int, time: float) -> float:
        """Earliest date >= ``time`` at which the machine becomes free in the plan.

        The scan chains through every row overlapping the running horizon
        (1e-12 tolerance).
        """
        horizon = float(time)
        lane = self._lanes.get(machine_id)
        if lane is None:
            return horizon
        for start, end, _ in islice(lane.rows, self._unsettled(lane, time), None):
            if end <= horizon + 1e-12:
                continue
            if start > horizon + 1e-12:
                break
            horizon = end
        return float(horizon)

    def plan_tail(self, machine_id: int, time: float) -> float:
        """Date at which the machine's *whole* plan is over (>= ``time``).

        Unlike :meth:`plan_horizon` this skips past internal idle gaps, so a
        segment appended at the tail can never overlap planned work (LP plans
        routinely leave gaps between milestone intervals).
        """
        lane = self._lanes.get(machine_id)
        if lane is None:
            return time
        ends = (row[1] for row in islice(lane.rows, self._unsettled(lane, time), None))
        return max(time, max(ends, default=time))

    # -- policy-driven replanning --------------------------------------------------------
    def replan(self, state: SchedulerState) -> None:
        """Recompute the plan from the current state (policy hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} uses a replan policy but does not implement replan()"
        )

    def absorb_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        """Cheaply splice deferred arrivals into the current plan (policy hook)."""
        raise NotImplementedError(
            f"{type(self).__name__}'s replan policy absorbs arrivals but "
            f"absorb_arrivals() is not implemented"
        )

    def _do_replan(self, state: SchedulerState) -> None:
        self._recheck_at = None
        self.replan(state)
        if self.policy is not None:
            self.policy.notify_replanned(state)

    def on_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        if self.policy is None:
            super().on_arrivals(state, jobs)
            return
        decision = self.policy.on_arrivals(state, jobs, self)
        if decision.replan:
            self._do_replan(state)
            return
        if decision.absorb:
            self.absorb_arrivals(state, jobs)
        if decision.recheck_at is not None:
            self._recheck_at = (
                decision.recheck_at
                if self._recheck_at is None
                else min(self._recheck_at, decision.recheck_at)
            )

    def on_completion(self, state: SchedulerState, job_id: int) -> None:
        if self.policy is None:
            return
        decision = self.policy.on_completion(state, job_id, self)
        if decision.replan:
            self._do_replan(state)

    def on_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Every availability transition invalidates the plan: recompute now.

        The default drops everything planned from the current instant and
        forces an immediate replan through :meth:`rebuild_after_availability`
        (policies never get to defer this -- a plan referencing a downed
        machine must not survive even one step).
        """
        self.clear_plan_from(state.time)
        self._recheck_at = None
        self.rebuild_after_availability(state, downs, ups)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Recompute the plan after a transition (default: full replan)."""
        self._do_replan(state)

    # -- plan following -----------------------------------------------------------------
    def assign(self, state: SchedulerState) -> Assignment:
        if self._recheck_at is not None and state.time >= self._recheck_at - 1e-9:
            # A deferred-replan wake-up date has been reached.
            self._do_replan(state)
        assignment = self.plan_assignment(state)
        if self._recheck_at is not None and (
            assignment.valid_until is None or assignment.valid_until > self._recheck_at
        ):
            assignment.valid_until = self._recheck_at
        return assignment

    def plan_assignment(self, state: SchedulerState) -> Assignment:
        """Read the current plan at ``state.time`` (overridable).

        A lane is read again only when its last reading can have changed:
        the reading's date passed, the job of its row left ``state.active``,
        a job whose rows it skipped was released, or the lane changed.
        """
        assert self.instance is not None
        time = state.time
        if time < self._read_at:
            for lane in self._lanes.values():
                lane.settled = 0
                lane.changed()
        self._read_at = time
        expired = time + 1e-12
        active = state.active
        down = state.down
        mapping: dict[int, int] = {}
        valid_until: float | None = None
        lanes = self._lanes
        for machine_id in self.instance.platform.ids():
            lane = lanes.get(machine_id)
            if lane is None or (down and machine_id in down):
                # Defensive: a downed machine executes nothing, whatever a
                # stale plan says (replans triggered by on_availability make
                # this unreachable in practice).
                continue
            # A shared lane is re-read for its first machine up at most: the
            # checks then pass for its other machines, and the min ignores
            # its date coming again.
            reading = lane.reading
            if (
                reading is None
                or (reading[1] is not None and reading[1] <= expired)
                or (lane.job is not None and lane.job not in active)
                or (lane.waiting and not active.keys().isdisjoint(lane.waiting))
            ):
                reading = lane.read(state)
            job_id, until = reading
            if job_id is not None:
                mapping[machine_id] = job_id
            if until is not None and (valid_until is None or until < valid_until):
                valid_until = until
        return Assignment(mapping=mapping, valid_until=valid_until)
