"""Replan policies: *when* should an on-line scheduler recompute its plan?

The paper's on-line heuristics (Section 4.3.2) replan at **every** release
date, and its Section 5.3 overhead study shows that this is exactly where
their cost concentrates.  The policies below factor the "when" out of the
"how": plan-based schedulers delegate the decision to a
:class:`ReplanPolicy` and keep only the plan computation.

Three policies are provided:

* ``on-arrival`` -- replan at every arrival batch (paper-faithful default);
* ``batched:D`` -- open a window of ``D`` seconds at the first deferred
  arrival and replan once per window (arrivals inside the window wait);
  ``D = 0`` degenerates to ``on-arrival`` exactly;
* ``threshold:K`` -- replan only when some newly arrived job could not reach
  a stretch within ``K`` times the last computed optimum by simply queueing
  behind the current plan; otherwise the job is absorbed greedily (MCT-style
  append) without paying an LP resolution.

A policy answers with a :class:`ReplanDecision`; deferred arrivals must
either be absorbed into the current plan (``absorb=True``) or covered by a
wake-up date (``recheck_at``), otherwise they would starve.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.instance import Instance
from repro.core.job import Job
from repro.simulation.state import SchedulerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import PlanBasedScheduler

__all__ = [
    "ReplanDecision",
    "ReplanPolicy",
    "OnArrivalPolicy",
    "BatchedPolicy",
    "ThresholdPolicy",
    "parse_policy",
    "available_policies",
]


@dataclass(frozen=True)
class ReplanDecision:
    """Outcome of a policy consultation.

    Attributes
    ----------
    replan:
        Recompute the plan now.
    recheck_at:
        When not replanning: absolute date at which the scheduler must wake
        up and replan (it caps the assignment's ``valid_until``).
    absorb:
        When not replanning: splice the deferred jobs into the existing plan
        with the scheduler's cheap fallback rule instead of leaving them
        waiting.
    """

    replan: bool
    recheck_at: float | None = None
    absorb: bool = False

    def __post_init__(self) -> None:
        if not self.replan and not self.absorb and self.recheck_at is None:
            raise ValueError(
                "a deferring ReplanDecision must absorb the jobs or set recheck_at"
            )


#: Shorthand for the common "replan right now" answer.
_REPLAN = ReplanDecision(replan=True)
_IGNORE = ReplanDecision(replan=False, absorb=True)


class ReplanPolicy(ABC):
    """Decides at which events a plan-based scheduler recomputes its plan."""

    #: Registry key / display name prefix.
    key: str = "abstract"

    def reset(self, instance: Instance) -> None:
        """Called once per simulation, before any event."""

    @abstractmethod
    def on_arrivals(
        self,
        state: SchedulerState,
        jobs: Sequence[Job],
        scheduler: "PlanBasedScheduler",
    ) -> ReplanDecision:
        """Consulted when a batch of jobs is released."""

    def on_completion(
        self, state: SchedulerState, job_id: int, scheduler: "PlanBasedScheduler"
    ) -> ReplanDecision:
        """Consulted when a job completes (default: keep the current plan)."""
        return _IGNORE

    def notify_replanned(self, state: SchedulerState) -> None:
        """Called after every replan, however it was triggered."""

    def describe(self) -> str:
        """Parseable textual form (inverse of :func:`parse_policy`)."""
        return self.key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()!r}>"


class OnArrivalPolicy(ReplanPolicy):
    """Replan at every release date -- the paper's Section 4.3.2 behaviour."""

    key = "on-arrival"

    def on_arrivals(self, state, jobs, scheduler) -> ReplanDecision:
        return _REPLAN


class BatchedPolicy(ReplanPolicy):
    """Replan at most once per ``delta``-second window.

    The window opens at the first arrival that gets deferred; arrivals inside
    the window wait (they are not planned), and the scheduler wakes up at
    window close to run a single replan covering all of them.  ``delta = 0``
    is exactly :class:`OnArrivalPolicy`.
    """

    key = "batched"

    def __init__(self, delta: float):
        if delta < 0:
            raise ValueError(f"batched policy needs a non-negative window, got {delta}")
        self.delta = float(delta)
        self._window_start: float | None = None

    def reset(self, instance: Instance) -> None:
        self._window_start = None

    def on_arrivals(self, state, jobs, scheduler) -> ReplanDecision:
        if self.delta <= 0.0:
            return _REPLAN
        if self._window_start is None:
            self._window_start = state.time
        due = self._window_start + self.delta
        if state.time >= due - 1e-12:
            return _REPLAN
        return ReplanDecision(replan=False, recheck_at=due)

    def notify_replanned(self, state) -> None:
        self._window_start = None

    def describe(self) -> str:
        return f"batched:{self.delta:g}"


class ThresholdPolicy(ReplanPolicy):
    """Replan only when the plan's quality would degrade past a threshold.

    On an arrival batch, each new job's stretch is estimated under the cheap
    fallback of appending it whole behind the machine completing it earliest
    (``scheduler.absorb_arrivals``'s rule, i.e. at the tail of that machine's
    plan).  If every estimate stays within ``degradation`` times the last
    computed optimal max-stretch, the batch is absorbed without an LP
    resolution; otherwise a full replan runs.  Before the first resolution
    there is no reference optimum and the policy always replans.

    For schedulers that keep no plan (the EGDF variant serves jobs through a
    greedy priority rule instead), the per-machine tail is unavailable and
    the estimate falls back to queueing the job behind the *remaining work*
    of all active jobs sharing its eligible machines.
    """

    key = "threshold"

    def __init__(self, degradation: float = 1.5):
        if degradation < 1.0:
            raise ValueError(
                f"threshold policy needs a degradation factor >= 1, got {degradation}"
            )
        self.degradation = float(degradation)

    def on_arrivals(self, state, jobs, scheduler) -> ReplanDecision:
        reference = getattr(scheduler, "last_objective", None)
        if reference is None or reference <= 0:
            return _REPLAN
        allowed = self.degradation * max(reference, 1.0)
        instance = state.instance
        now = state.time
        new_ids = {job.job_id for job in jobs}
        has_plan = scheduler.has_plan()
        # The batch is estimated *sequentially*, mirroring the absorb rule:
        # earlier batch members occupy the tail (or backlog) the later ones
        # queue behind, otherwise two simultaneous jobs would each be judged
        # against the same free tail and jointly exceed the bound unnoticed.
        tails: dict[int, float] = {}
        absorbed: list[tuple[frozenset[int], float]] = []
        for job in jobs:
            best_machine_id = None
            best_completion = None
            if has_plan:
                for machine in instance.eligible_machines(job.job_id):
                    start = tails.get(
                        machine.machine_id,
                        scheduler.plan_tail(machine.machine_id, now),
                    )
                    completion = start + job.size / machine.speed
                    if best_completion is None or completion < best_completion:
                        best_machine_id, best_completion = machine.machine_id, completion
            else:
                # Plan-less scheduler (EGDF): the job queues behind the
                # remaining work of the active jobs it shares machines with,
                # including earlier members of this batch.
                eligible = frozenset(instance.eligible_machine_ids(job.job_id))
                if eligible:
                    backlog = sum(
                        runtime.remaining
                        for runtime in state.active_jobs()
                        if runtime.job_id not in new_ids
                        and eligible & set(instance.eligible_machine_ids(runtime.job_id))
                    )
                    backlog += sum(
                        size for banks, size in absorbed if eligible & banks
                    )
                    speed = instance.aggregate_speed(job.job_id)
                    best_completion = now + (backlog + job.size) / speed
                    absorbed.append((eligible, job.size))
            if best_completion is None:
                return _REPLAN
            stretch = (best_completion - job.release) / instance.ideal_time(job.job_id)
            if stretch > allowed:
                return _REPLAN
            if best_machine_id is not None:
                tails[best_machine_id] = best_completion
        return ReplanDecision(replan=False, absorb=True)

    def describe(self) -> str:
        return f"threshold:{self.degradation:g}"


def available_policies() -> list[str]:
    """The recognized policy spec forms."""
    return ["on-arrival", "batched:<seconds>", "threshold[:<factor>]"]


def parse_policy(spec: "str | ReplanPolicy") -> ReplanPolicy:
    """Turn a textual policy spec into a fresh :class:`ReplanPolicy`.

    Accepted forms: ``"on-arrival"``, ``"batched:<seconds>"`` and
    ``"threshold"`` / ``"threshold:<factor>"``.  A :class:`ReplanPolicy`
    instance is passed through unchanged.
    """
    if isinstance(spec, ReplanPolicy):
        return spec
    text = str(spec).strip().lower()
    head, _, arg = text.partition(":")
    try:
        if head == "on-arrival" and not arg:
            return OnArrivalPolicy()
        if head == "batched" and arg:
            return BatchedPolicy(float(arg))
        if head == "threshold":
            return ThresholdPolicy(float(arg)) if arg else ThresholdPolicy()
    except ValueError as exc:
        if "policy" in str(exc):
            raise
        raise ValueError(f"malformed replan policy spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown replan policy {spec!r}; expected one of {available_policies()}"
    )
