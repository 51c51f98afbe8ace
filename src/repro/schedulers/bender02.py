"""The Bender, Muthukrishnan & Rajaraman 2002 pseudo-stretch heuristic [3].

At every decision point the heuristic schedules the jobs by *decreasing*
pseudo-stretch

.. math::

   \\hat S_j(t) = \\begin{cases}
       (t - r_j)/\\sqrt{\\Delta} & \\text{if } 1 \\le p_j \\le \\sqrt{\\Delta},\\\\
       (t - r_j)/\\Delta         & \\text{if } \\sqrt{\\Delta} < p_j \\le \\Delta,
   \\end{cases}

where job sizes are normalized so that the smallest size is 1 and
:math:`\\Delta` is the largest-to-smallest size ratio.  The original
algorithm preempts the running job whenever a new job arrives, which is
exactly when our simulation engine re-evaluates priorities.  The heuristic is
:math:`O(\\sqrt{\\Delta})`-competitive for max-stretch but, as Section 5.3
shows, far from the LP-based heuristics in practice.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.instance import Instance
from repro.core.job import JobSet
from repro.simulation.state import JobRuntime, SchedulerState
from repro.schedulers import kernels
from repro.schedulers.base import PriorityScheduler

__all__ = ["Bender02Scheduler"]

_JOB_ID = attrgetter("job.job_id")


class Bender02Scheduler(PriorityScheduler):
    """Pseudo-stretch priority scheduling.

    Parameters
    ----------
    delta_mode:
        ``"instance"`` (default) computes :math:`\\Delta` and the size
        normalization from the whole instance, as if the size range were
        known a priori (the setting of the competitive analysis in [3]);
        ``"observed"`` recomputes them from the jobs released so far, which
        is the only information a truly on-line scheduler has.
    """

    name = "Bender02"

    def __init__(self, *, delta_mode: str = "instance"):
        super().__init__()
        if delta_mode not in ("instance", "observed"):
            raise ValueError(f"unknown delta_mode {delta_mode!r}")
        self.delta_mode = delta_mode
        self._min_size = 1.0
        self._max_size = -math.inf
        self._delta = 1.0
        #: Release date and size by job id, over the first ``_indexed`` jobs.
        self._releases = self._sizes = np.zeros(0)
        self._indexed = -1

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._index(instance.jobs)
        self._min_size = 1.0
        self._delta = 1.0
        if self.delta_mode == "observed":
            # Running extremes of the released sizes: the first arrival sets them.
            self._min_size, self._max_size = math.inf, -math.inf
        elif len(instance.jobs) > 0:
            sizes = [job.size for job in instance.jobs]
            self._min_size = min(sizes)
            self._delta = max(sizes) / min(sizes)

    def _index(self, jobs: JobSet) -> None:
        ids = [job.job_id for job in jobs]
        self._releases = np.zeros(max(ids, default=-1) + 1)
        self._sizes = np.zeros_like(self._releases)
        self._releases[ids] = [job.release for job in jobs]
        self._sizes[ids] = [job.size for job in jobs]
        self._indexed = len(jobs)

    def on_arrival(self, state: SchedulerState, job) -> None:
        if self.delta_mode == "observed":
            self._min_size = min(self._min_size, job.size)
            self._max_size = max(self._max_size, job.size)
            self._delta = self._max_size / self._min_size

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        if len(state.instance.jobs) != self._indexed:
            # A live instance grew since the reset.
            self._index(state.instance.jobs)
        ids = np.fromiter(map(_JOB_ID, runtimes), np.int64, count=len(runtimes))
        return kernels.pseudo_stretch_priorities(
            state.time - self._releases[ids],
            self._sizes[ids] / self._min_size,
            max(self._delta, 1.0),
        )
