"""Post-simulation analysis helpers.

The paper's evaluation reports aggregate degradation factors; when *operating*
a platform (or debugging a new scheduling strategy) one usually wants a finer
view of a single run:

* the distribution of per-job stretches (quantiles, tail),
* a fairness index over the stretches (Jain's index: 1 = perfectly even
  service quality, 1/n = one job gets all the service quality),
* the backlog over time (how much released-but-unfinished work the system is
  carrying), which makes saturation and starvation visible,
* a per-databank breakdown (which reference databank's users are being hurt).

These helpers only consume a :class:`~repro.simulation.result.SimulationResult`
(or an instance plus completion times), so they work for any scheduler.
Nothing in the package uses them, so they live beside their tests
(``test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core import metrics as metrics_mod
from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.simulation.result import SimulationResult
from repro.utils.textable import TextTable

__all__ = [
    "StretchDistribution",
    "stretch_distribution",
    "jain_fairness_index",
    "backlog_timeline",
    "per_databank_stretch",
    "compare_results",
]


@dataclass(frozen=True)
class StretchDistribution:
    """Summary statistics of the per-job stretch values of one run."""

    n_jobs: int
    mean: float
    median: float
    p90: float
    p95: float
    maximum: float
    minimum: float
    fairness: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n_jobs": float(self.n_jobs),
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p95": self.p95,
            "max": self.maximum,
            "min": self.minimum,
            "fairness": self.fairness,
        }


def jain_fairness_index(values: Sequence[float] | Mapping[int, float]) -> float:
    """Jain's fairness index of a collection of positive values.

    :math:`J = (\\sum x_i)^2 / (n \\sum x_i^2)`; equals 1 when all values are
    identical and :math:`1/n` when a single value dominates.  Applied to the
    per-job stretches it quantifies how evenly the "slowdown pain" is spread
    across requests, which is exactly the fairness notion motivating the
    max-stretch objective.
    """
    if isinstance(values, Mapping):
        values = list(values.values())
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ModelError("fairness index of an empty collection is undefined")
    if np.any(array <= 0):
        raise ModelError("fairness index requires strictly positive values")
    return float(array.sum() ** 2 / (array.size * np.square(array).sum()))


def stretch_distribution(
    instance: Instance, completions: Mapping[int, float]
) -> StretchDistribution:
    """Distribution summary of the per-job stretches of one run."""
    stretches = metrics_mod.stretches(instance, completions)
    values = np.asarray(list(stretches.values()), dtype=float)
    return StretchDistribution(
        n_jobs=int(values.size),
        mean=float(values.mean()),
        median=float(np.median(values)),
        p90=float(np.percentile(values, 90)),
        p95=float(np.percentile(values, 95)),
        maximum=float(values.max()),
        minimum=float(values.min()),
        fairness=jain_fairness_index(values),
    )


def backlog_timeline(
    result: SimulationResult, *, resolution: int = 200
) -> list[tuple[float, float]]:
    """Released-but-unfinished work over time, sampled at ``resolution`` points.

    The backlog at time ``t`` is the total work of the jobs released by ``t``
    minus the work already executed by ``t`` (read off the schedule's slices).
    A backlog that keeps growing while the submission window is open indicates
    an overloaded system (density > 1); a backlog spike that persists reveals
    starvation-prone scheduling.
    """
    if resolution < 2:
        raise ModelError("resolution must be at least 2")
    instance = result.instance
    horizon = max(result.schedule.makespan(), max((j.release for j in instance.jobs), default=0.0))
    if horizon <= 0:
        return [(0.0, 0.0)]
    times = np.linspace(0.0, horizon, resolution)

    releases = np.asarray([j.release for j in instance.jobs])
    sizes = np.asarray([j.size for j in instance.jobs])
    slices = list(result.schedule)
    starts = np.asarray([s.start for s in slices]) if slices else np.zeros(0)
    ends = np.asarray([s.end for s in slices]) if slices else np.zeros(0)
    works = np.asarray([s.work for s in slices]) if slices else np.zeros(0)

    timeline: list[tuple[float, float]] = []
    for t in times:
        released_work = float(sizes[releases <= t].sum())
        if slices:
            # Work executed by time t: full slices that ended, plus the
            # pro-rated part of slices still running at t.
            done = float(works[ends <= t].sum())
            running = (starts < t) & (ends > t)
            if np.any(running):
                fractions = (t - starts[running]) / (ends[running] - starts[running])
                done += float((works[running] * fractions).sum())
        else:
            done = 0.0
        timeline.append((float(t), max(0.0, released_work - done)))
    return timeline


def per_databank_stretch(
    instance: Instance, completions: Mapping[int, float]
) -> dict[str, StretchDistribution]:
    """Stretch distribution broken down by target databank.

    Jobs without a databank are grouped under the key ``"(none)"``.
    """
    stretches = metrics_mod.stretches(instance, completions)
    by_bank: dict[str, dict[int, float]] = {}
    for job in instance.jobs:
        key = job.databank or "(none)"
        by_bank.setdefault(key, {})[job.job_id] = completions[job.job_id]
    return {
        bank: stretch_distribution(instance.restrict_jobs(list(jobs)), jobs_completions)
        for bank, jobs_completions, jobs in (
            (bank, {j: completions[j] for j in jobs}, jobs) for bank, jobs in by_bank.items()
        )
    }


def compare_results(results: Sequence[SimulationResult]) -> TextTable:
    """Side-by-side comparison table of several runs on the *same* instance.

    Columns: max-stretch, sum-stretch, 95th-percentile stretch, Jain fairness
    of the stretches, makespan and scheduler time.  Raises
    :class:`ModelError` when the results do not share the same instance.
    """
    if not results:
        raise ModelError("compare_results needs at least one result")
    reference = results[0].instance
    for result in results[1:]:
        if result.instance is not reference and result.instance != reference:
            raise ModelError("all results must concern the same instance")

    table = TextTable(
        headers=[
            "Scheduler",
            "max-stretch",
            "sum-stretch",
            "p95 stretch",
            "fairness",
            "makespan (s)",
            "sched time (s)",
        ]
    )
    for result in results:
        dist = stretch_distribution(result.instance, result.completions)
        report = result.report()
        table.add_row(
            [
                result.scheduler_name,
                report.max_stretch,
                report.sum_stretch,
                dist.p95,
                dist.fairness,
                report.makespan,
                result.scheduler_time,
            ]
        )
    return table
