"""Greedy minimum-completion-time strategies (the production GriPPS policy).

``MCT`` assigns each arriving job, in its entirety, to the machine that would
complete it first given the work already queued there; the decision is never
revisited (non-preemptive, non-divisible).  This models the scheduler
deployed in the GriPPS system at the time of the paper and is the main
"anti-pattern" of Section 5.3: small jobs arriving behind a large one are
stretched enormously.

``MCT-Div`` keeps the greedy, irrevocable spirit but exploits divisibility:
the arriving job is spread over all the machines able to serve it so that it
completes as early as possible (a water-filling over the machines' earliest
availability dates).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.job import Job
from repro.simulation.state import SchedulerState
from repro.schedulers import kernels
from repro.schedulers.base import PlanBasedScheduler, PlanSegment

__all__ = ["MCTScheduler", "MCTDivScheduler"]


class MCTScheduler(PlanBasedScheduler):
    """Minimum completion time, whole job on a single machine."""

    name = "MCT"

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        self._place(state, job.job_id, job.size, state.time)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        # The greedy choice is re-run for the remaining work of every active
        # job (in release order); a job whose eligible machines are all down
        # stays unplanned and parks until an UP transition re-triggers this.
        for runtime in state.active_jobs():
            self._place(state, runtime.job_id, runtime.remaining, state.time)

    def _place(self, state: SchedulerState, job_id: int, work: float, now: float) -> None:
        machines = list(state.available_eligible(job_id))
        if not machines:
            return
        count = len(machines)
        available = np.fromiter(
            (self.plan_horizon(m.machine_id, now) for m in machines),
            np.float64,
            count=count,
        )
        cycle_times = np.fromiter(
            (m.cycle_time for m in machines), np.float64, count=count
        )
        index, best_completion = kernels.mct_argmin_completion(
            available, cycle_times, now, work
        )
        if index < 0:  # pragma: no cover - count > 0 guarantees a winner
            raise RuntimeError(f"no eligible machine for job {job_id}")
        best_machine = machines[index]
        start = max(float(available[index]), now)
        self.extend_plan(
            [
                PlanSegment(
                    machine_id=best_machine.machine_id,
                    job_id=job_id,
                    start=start,
                    end=best_completion,
                )
            ]
        )


class MCTDivScheduler(PlanBasedScheduler):
    """Minimum completion time exploiting divisibility (still non-preemptive)."""

    name = "MCT-Div"

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        self._place(state, job.job_id, job.size, state.time)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        for runtime in state.active_jobs():
            self._place(state, runtime.job_id, runtime.remaining, state.time)

    def _place(self, state: SchedulerState, job_id: int, work: float, now: float) -> None:
        machines = list(state.available_eligible(job_id))
        if not machines:
            return
        count = len(machines)
        availability = np.fromiter(
            (max(self.plan_horizon(m.machine_id, now), now) for m in machines),
            np.float64,
            count=count,
        )
        speeds = np.fromiter((m.speed for m in machines), np.float64, count=count)
        completion = kernels.water_filling_completion(work, speeds, availability)
        segments = []
        for i, machine in enumerate(machines):
            available = float(availability[i])
            if completion > available + 1e-15:
                segments.append(
                    PlanSegment(
                        machine_id=machine.machine_id,
                        job_id=job_id,
                        start=available,
                        end=completion,
                    )
                )
        self.extend_plan(segments)
