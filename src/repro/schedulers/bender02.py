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
from typing import Sequence

import numpy as np

from repro.core.instance import Instance
from repro.simulation.state import JobRuntime, SchedulerState
from repro.schedulers import kernels
from repro.schedulers.base import PriorityScheduler

__all__ = ["Bender02Scheduler"]


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
        self._delta = 1.0

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        if self.delta_mode == "instance" and len(instance.jobs) > 0:
            sizes = [job.size for job in instance.jobs]
            self._min_size = min(sizes)
            self._delta = max(sizes) / min(sizes)
        else:
            self._min_size = 1.0
            self._delta = 1.0

    def on_arrival(self, state: SchedulerState, job) -> None:
        if self.delta_mode == "observed":
            sizes = [state.instance.job(j).size for j in state.released_ids]
            self._min_size = min(sizes)
            self._delta = max(sizes) / min(sizes)

    def pseudo_stretch(self, state: SchedulerState, runtime: JobRuntime) -> float:
        """:math:`\\hat S_j(t)` at the current simulation time."""
        delta = max(self._delta, 1.0)
        relative_size = runtime.job.size / self._min_size
        age = state.time - runtime.job.release
        if relative_size <= math.sqrt(delta):
            return age / math.sqrt(delta)
        return age / delta

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        delta = max(self._delta, 1.0)
        min_size = self._min_size
        now = state.time
        count = len(runtimes)
        ages = np.fromiter(
            (now - rt.job.release for rt in runtimes), np.float64, count=count
        )
        relative_sizes = np.fromiter(
            (rt.job.size / min_size for rt in runtimes), np.float64, count=count
        )
        return kernels.pseudo_stretch_priorities(ages, relative_sizes, delta)
