"""Classical priority-list heuristics (Section 4.1 and 4.2).

All of these are analysed in the paper on the preemptive uni-processor model
and lifted to the divisible multi-machine setting through the greedy rule of
Section 3 (implemented by :class:`~repro.schedulers.base.PriorityScheduler`).

Priorities follow the paper's definitions, with the stretch convention for
weights (:math:`w_j \\propto 1/W_j`):

=============  =====================================================================
FCFS           first come, first served -- optimal for max-flow [2]
SRPT           shortest remaining processing time -- optimal for sum-flow,
               2-competitive for sum-stretch [13]
SPT            shortest processing time (original size)
SWPT           Smith's ratio rule; for stretch weights the ratio is
               :math:`p_j/w_j \\propto W_j^2`, i.e. the same ordering as SPT
SWRPT          shortest *weighted remaining* processing time: at time t pick the
               job minimizing :math:`W_j\\,\\rho_t(j)`
EDF            earliest deadline first, for externally supplied deadlines
=============  =====================================================================
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.simulation.state import JobRuntime, SchedulerState
from repro.schedulers.base import PriorityScheduler

__all__ = [
    "FCFSScheduler",
    "SRPTScheduler",
    "SPTScheduler",
    "SWPTScheduler",
    "SWRPTScheduler",
    "EDFScheduler",
]


class FCFSScheduler(PriorityScheduler):
    """First come, first served (optimal for max-flow on one processor)."""

    name = "FCFS"

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        return np.fromiter(
            (rt.job.release for rt in runtimes), np.float64, count=len(runtimes)
        )


class SRPTScheduler(PriorityScheduler):
    """Shortest remaining processing time first (optimal for sum-flow)."""

    name = "SRPT"

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        return np.fromiter(
            (rt.remaining for rt in runtimes), np.float64, count=len(runtimes)
        )


class SPTScheduler(PriorityScheduler):
    """Shortest processing time first (priority = original job size)."""

    name = "SPT"

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        return np.fromiter(
            (rt.job.size for rt in runtimes), np.float64, count=len(runtimes)
        )


class SWPTScheduler(PriorityScheduler):
    """Smith's ratio rule (shortest weighted processing time).

    For arbitrary weights the priority is :math:`p_j / w_j`; with the stretch
    weights this reduces to :math:`W_j^2` and the ordering coincides with SPT,
    exactly as noted in Section 4.2 of the paper.
    """

    name = "SWPT"

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        return np.fromiter(
            (
                rt.job.size / rt.job.weight
                if rt.job.weight is not None
                else rt.job.size * rt.job.size
                for rt in runtimes
            ),
            np.float64,
            count=len(runtimes),
        )


class SWRPTScheduler(PriorityScheduler):
    """Shortest weighted remaining processing time.

    At any time the job minimizing :math:`\\rho_t(j)/w_j` is scheduled; with
    stretch weights this is :math:`W_j\\,\\rho_t(j)` (original size times
    remaining work).
    """

    name = "SWRPT"

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        return np.fromiter(
            (
                rt.remaining / rt.job.weight
                if rt.job.weight is not None
                else rt.job.size * rt.remaining
                for rt in runtimes
            ),
            np.float64,
            count=len(runtimes),
        )


class EDFScheduler(PriorityScheduler):
    """Earliest deadline first with externally supplied deadlines.

    The deadline of a job is obtained from ``deadline_fn`` (a callable or a
    mapping); jobs without a deadline are served last, in FCFS order.  This
    scheduler is the execution layer of Bender98 and can be used directly for
    deadline-driven experiments.
    """

    name = "EDF"

    def __init__(
        self,
        deadline_fn: Callable[[int], float] | Mapping[int, float] | None = None,
    ):
        super().__init__()
        self._deadline_fn = deadline_fn

    def set_deadlines(self, deadlines: Mapping[int, float]) -> None:
        """Replace the deadline table (used by schedulers wrapping EDF)."""
        self._deadline_fn = dict(deadlines)

    def deadline_of(self, job_id: int) -> float:
        if self._deadline_fn is None:
            return float("inf")
        if callable(self._deadline_fn):
            try:
                return float(self._deadline_fn(job_id))
            except KeyError:
                return float("inf")
        return float(self._deadline_fn.get(job_id, float("inf")))

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        def key(runtime: JobRuntime) -> float:
            deadline = self.deadline_of(runtime.job_id)
            if deadline == float("inf"):
                # No deadline: serve after deadline-carrying jobs, FCFS among them.
                return 1e18 + runtime.job.release
            return deadline

        return np.fromiter((key(rt) for rt in runtimes), np.float64, count=len(runtimes))
