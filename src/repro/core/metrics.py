"""Objective functions of Section 3 of the paper.

All metrics are computed from a mapping ``job_id -> completion time`` plus
the :class:`~repro.core.instance.Instance` that defines release dates, sizes
and (for the stretch) ideal processing times.

Definitions
-----------

================  =============================================================
makespan          :math:`\\max_j C_j`
flow time         :math:`F_j = C_j - r_j` (also called response time)
sum-flow          :math:`\\sum_j F_j`
max-flow          :math:`\\max_j F_j`
weighted flow     :math:`w_j F_j` for arbitrary positive weights
stretch           :math:`S_j = F_j / t^*_j` where :math:`t^*_j` is the time the
                  platform needs to process :math:`J_j` alone (ideal time)
sum-stretch       :math:`\\sum_j S_j`
max-stretch       :math:`\\max_j S_j`
================  =============================================================

The degradation helpers implement the normalisation used throughout Section
5: for each instance, a heuristic's metric value is divided by the best value
achieved by any heuristic on that same instance, and the per-configuration
tables report the mean, standard deviation and maximum of these factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ModelError
from repro.core.instance import Instance

__all__ = [
    "flow_times",
    "stretches",
    "weighted_flows",
    "makespan",
    "sum_flow",
    "max_flow",
    "mean_flow",
    "sum_stretch",
    "max_stretch",
    "mean_stretch",
    "sum_weighted_flow",
    "max_weighted_flow",
    "MetricsReport",
    "evaluate",
    "degradations",
    "normalize_by_best",
]


def _check_completions(instance: Instance, completions: Mapping[int, float]) -> None:
    missing = [j.job_id for j in instance.jobs if j.job_id not in completions]
    if missing:
        raise ModelError(f"completion times missing for jobs {missing}")
    for job in instance.jobs:
        c = completions[job.job_id]
        if c < job.release - 1e-9:
            raise ModelError(
                f"job {job.job_id} completes at {c} before its release {job.release}"
            )


def flow_times(instance: Instance, completions: Mapping[int, float]) -> dict[int, float]:
    """Per-job flow (response) times :math:`F_j = C_j - r_j`."""
    _check_completions(instance, completions)
    return {
        job.job_id: completions[job.job_id] - job.release for job in instance.jobs
    }


def stretches(instance: Instance, completions: Mapping[int, float]) -> dict[int, float]:
    """Per-job stretches :math:`S_j = F_j / t^*_j`.

    :math:`t^*_j` is the job's ideal time on its eligible machines; a job
    alone in an empty system therefore has stretch exactly 1.
    """
    flows = flow_times(instance, completions)
    return {
        job_id: flow / instance.ideal_time(job_id) for job_id, flow in flows.items()
    }


def weighted_flows(
    instance: Instance,
    completions: Mapping[int, float],
    weights: Mapping[int, float] | None = None,
) -> dict[int, float]:
    """Per-job weighted flows :math:`w_j F_j`.

    ``weights`` defaults to each job's effective weight
    (:meth:`Instance.weight`): the explicit job weight if set, otherwise the
    stretch weight.
    """
    flows = flow_times(instance, completions)
    if weights is None:
        weights = {job.job_id: instance.weight(job.job_id) for job in instance.jobs}
    return {job_id: weights[job_id] * flow for job_id, flow in flows.items()}


# -- scalar metrics -------------------------------------------------------------


def makespan(instance: Instance, completions: Mapping[int, float]) -> float:
    """:math:`\\max_j C_j`."""
    _check_completions(instance, completions)
    return max(completions[j.job_id] for j in instance.jobs)


def sum_flow(instance: Instance, completions: Mapping[int, float]) -> float:
    """:math:`\\sum_j F_j`."""
    return float(sum(flow_times(instance, completions).values()))


def max_flow(instance: Instance, completions: Mapping[int, float]) -> float:
    """:math:`\\max_j F_j`."""
    return max(flow_times(instance, completions).values())


def mean_flow(instance: Instance, completions: Mapping[int, float]) -> float:
    """Average flow time."""
    flows = flow_times(instance, completions)
    return float(sum(flows.values()) / len(flows))


def sum_stretch(instance: Instance, completions: Mapping[int, float]) -> float:
    """:math:`\\sum_j S_j`."""
    return float(sum(stretches(instance, completions).values()))


def max_stretch(instance: Instance, completions: Mapping[int, float]) -> float:
    """:math:`\\max_j S_j`."""
    return max(stretches(instance, completions).values())


def mean_stretch(instance: Instance, completions: Mapping[int, float]) -> float:
    """Average stretch."""
    vals = stretches(instance, completions)
    return float(sum(vals.values()) / len(vals))


def sum_weighted_flow(
    instance: Instance,
    completions: Mapping[int, float],
    weights: Mapping[int, float] | None = None,
) -> float:
    """:math:`\\sum_j w_j F_j`."""
    return float(sum(weighted_flows(instance, completions, weights).values()))


def max_weighted_flow(
    instance: Instance,
    completions: Mapping[int, float],
    weights: Mapping[int, float] | None = None,
) -> float:
    """:math:`\\max_j w_j F_j`."""
    return max(weighted_flows(instance, completions, weights).values())


# -- aggregate report ----------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """All scalar metrics of one schedule on one instance."""

    makespan: float
    sum_flow: float
    max_flow: float
    mean_flow: float
    sum_stretch: float
    max_stretch: float
    mean_stretch: float
    n_jobs: int

    def as_dict(self) -> dict[str, float]:
        """The report as a plain dictionary (used by the experiment runner)."""
        return {
            "makespan": self.makespan,
            "sum_flow": self.sum_flow,
            "max_flow": self.max_flow,
            "mean_flow": self.mean_flow,
            "sum_stretch": self.sum_stretch,
            "max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
            "n_jobs": float(self.n_jobs),
        }


def evaluate(instance: Instance, completions: Mapping[int, float]) -> MetricsReport:
    """Compute the full :class:`MetricsReport` for one run.

    A run without any job (a daemon drained before its first admission)
    scores zero on every metric.
    """
    if instance.n_jobs == 0:
        return MetricsReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, n_jobs=0)
    flows = flow_times(instance, completions)
    strs = stretches(instance, completions)
    return MetricsReport(
        makespan=max(completions[j.job_id] for j in instance.jobs),
        sum_flow=float(sum(flows.values())),
        max_flow=max(flows.values()),
        mean_flow=float(sum(flows.values()) / len(flows)),
        sum_stretch=float(sum(strs.values())),
        max_stretch=max(strs.values()),
        mean_stretch=float(sum(strs.values()) / len(strs)),
        n_jobs=instance.n_jobs,
    )


# -- normalisation helpers (Section 5) --------------------------------------------


def normalize_by_best(values: Mapping[str, float]) -> dict[str, float]:
    """Divide every value by the smallest one (degradation factors >= 1).

    The paper normalizes each heuristic's metric by the best value observed
    on the same instance; the best heuristic therefore scores exactly 1.0.
    """
    if not values:
        return {}
    finite = [v for v in values.values() if math.isfinite(v)]
    if not finite:
        raise ModelError("cannot normalize: no finite metric value")
    best = min(finite)
    if best <= 0:
        raise ModelError(f"cannot normalize by a non-positive best value {best}")
    return {name: value / best for name, value in values.items()}


def degradations(
    per_scheduler: Mapping[str, float],
    reference: float | None = None,
) -> dict[str, float]:
    """Degradation of each scheduler w.r.t. ``reference`` (or the best observed).

    Parameters
    ----------
    per_scheduler:
        Metric value achieved by each scheduler on one instance.
    reference:
        Optional explicit reference value (e.g. the off-line optimal
        max-stretch).  When omitted, the best observed value is used, which
        is the paper's convention for the sum-stretch columns.
    """
    if reference is None:
        return normalize_by_best(per_scheduler)
    if reference <= 0:
        raise ModelError(f"reference value must be positive, got {reference}")
    return {name: value / reference for name, value in per_scheduler.items()}
