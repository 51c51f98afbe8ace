"""The Bender, Chakrabarti & Muthukrishnan 1998 heuristic [2].

Each time a new job arrives:

1. preempt the running job(s),
2. compute the *off-line optimal* max-stretch :math:`S^*` of all jobs that
   have arrived so far (considering their full original sizes and release
   dates -- the algorithm does not account for work already performed),
3. give every job the deadline :math:`\\bar d_j = r_j + \\alpha\\,S^*/w_j`
   with expansion factor :math:`\\alpha = \\sqrt{\\Delta}`,
4. schedule with Earliest Deadline First.

The paper notes two practical problems, both reproduced here: the heuristic
solves a full off-line optimal max-stretch problem at every release date
(which makes it intractable for long workloads -- Section 5.3 only reports it
for 3-cluster platforms), and the :math:`\\sqrt{\\Delta}` expansion makes its
effective max-stretch guarantee very loose.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.instance import Instance
from repro.core.job import Job
from repro.lp.backends import make_backend
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import problem_from_instance
from repro.simulation.state import JobRuntime, SchedulerState
from repro.schedulers import kernels
from repro.schedulers.base import PriorityScheduler

__all__ = ["Bender98Scheduler"]


class Bender98Scheduler(PriorityScheduler):
    """Off-line optimal recomputation + EDF with sqrt(Delta)-expanded deadlines.

    Parameters
    ----------
    expansion:
        Expansion factor :math:`\\alpha`; ``None`` (default) uses
        :math:`\\sqrt{\\Delta}` with :math:`\\Delta` taken from the whole
        instance, as in the original competitive analysis.
    max_jobs_per_resolution:
        Safety cap on the number of jobs included in each off-line
        resolution.  ``None`` means no cap (faithful to the original
        algorithm); the experiment harness sets a cap when the algorithm
        would otherwise be intractable, mirroring the restriction of the
        paper's simulations to 3-cluster platforms.
    """

    name = "Bender98"

    def __init__(
        self,
        *,
        expansion: float | None = None,
        max_jobs_per_resolution: int | None = None,
    ):
        super().__init__()
        self._expansion_override = expansion
        self.max_jobs_per_resolution = max_jobs_per_resolution
        self._deadlines: dict[int, float] = {}
        self._expansion = 1.0
        #: Number of off-line optimal problems solved (overhead bookkeeping).
        self.n_resolutions = 0

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._deadlines = {}
        self.n_resolutions = 0
        self._backend = make_backend(None)
        self.lp_stats = self._backend.stats
        if self._expansion_override is not None:
            self._expansion = self._expansion_override
        elif len(instance.jobs) > 0:
            self._expansion = math.sqrt(instance.delta())
        else:
            self._expansion = 1.0

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        instance = state.instance
        released = sorted(state.released_ids)
        cap = self.max_jobs_per_resolution
        if cap is not None and len(released) > cap:
            released = released[-self.max_jobs_per_resolution:]
        # Off-line problem over the jobs arrived so far, with their original
        # sizes and release dates (Bender et al. ignore the work already done).
        problem = problem_from_instance(
            instance, remaining={job_id: instance.job(job_id).size for job_id in released}
        )
        solution = minimize_max_weighted_flow(problem, backend=self._backend)
        self.n_resolutions += 1
        optimal = solution.objective
        count = len(released)
        releases = np.fromiter(
            (instance.job(job_id).release for job_id in released),
            np.float64,
            count=count,
        )
        factors = np.fromiter(
            (1.0 / instance.weight(job_id) for job_id in released),
            np.float64,
            count=count,
        )
        deadlines = kernels.expand_deadlines(releases, factors, self._expansion * optimal)
        for job_id, deadline in zip(released, deadlines.tolist()):
            self._deadlines[job_id] = deadline

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        deadlines = self._deadlines
        return np.fromiter(
            (deadlines.get(rt.job_id, math.inf) for rt in runtimes),
            np.float64,
            count=len(runtimes),
        )
