"""Epochal times and interval structures (Section 4.3.1).

For a given objective value :math:`\\mathcal{F}`, the *epochal times* are the
release dates (earliest start dates) and the deadlines
:math:`\\bar d_j(\\mathcal{F})`.  Between two consecutive milestones the
relative order of these points does not depend on :math:`\\mathcal{F}`, so the
time axis decomposes into intervals whose bounds are affine functions of the
objective.  The linear programs of Systems (1) and (2) are written on this
fixed interval structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError
from repro.lp import kernels
from repro.lp.problem import MaxStretchProblem

__all__ = ["IntervalStructure", "build_interval_structure"]


@dataclass(frozen=True, eq=False)
class IntervalStructure:
    """The ordered epochal boundaries for one milestone interval.

    Everything is held as arrays, what the LP assembly reads.  Interval
    ``t`` spans boundaries ``t`` and ``t + 1``; a job may be processed in
    the intervals ``[start_index, deadline_index)`` of its position
    (constraints (1b)/(1c)).

    Attributes
    ----------
    bnd_const, bnd_coef:
        The distinct affine epochal times ``const + coef * F``, sorted by
        their value at :attr:`probe` (float64).
    probe:
        The objective value used to fix the ordering (any value strictly
        inside the milestone interval under consideration).
    start_index, deadline_index:
        Per job, in job order: the index of the boundary equal to its
        earliest start / its deadline (int64).
    """

    bnd_const: np.ndarray
    bnd_coef: np.ndarray
    probe: float
    start_index: np.ndarray
    deadline_index: np.ndarray

    @property
    def n_intervals(self) -> int:
        """Number of elementary intervals (= number of boundaries - 1)."""
        return max(0, self.bnd_const.size - 1)

    def bounds_at(self, objective: float) -> list[tuple[float, float]]:
        """All interval bounds evaluated at ``objective``."""
        values = (self.bnd_const + self.bnd_coef * objective).tolist()
        return list(zip(values[:-1], values[1:]))


def build_interval_structure(problem: MaxStretchProblem, probe: float) -> IntervalStructure:
    """Build the interval structure valid around objective value ``probe``.

    ``probe`` must lie strictly inside a milestone interval for the resulting
    ordering to be valid on that whole interval; at a milestone itself the
    ordering of coincident points is arbitrary, which only introduces
    zero-length intervals and does not affect feasibility.
    """
    if probe < 0:
        raise ModelError(f"probe objective must be non-negative, got {probe}")

    # The candidate boundaries are the job starts (constant affines) and the
    # deadlines (slope = flow factor); the kernel dedups the distinct
    # (const, coef) pairs and sorts them by value at the probe, ties broken
    # by slope then offset so that the ordering is deterministic.
    n = problem.n_jobs
    starts, releases, factors = problem.job_vectors()
    consts = np.concatenate([starts, releases])
    coefs = np.concatenate([np.zeros(n, dtype=np.float64), factors])
    b_consts, b_coefs = kernels.order_affine_boundaries(consts, coefs, probe)

    index_of = dict(zip(zip(b_consts.tolist(), b_coefs.tolist()), range(b_consts.size)))
    ranks = np.fromiter(
        map(index_of.__getitem__, zip(consts.tolist(), coefs.tolist())),
        dtype=np.int64,
        count=2 * n,
    )
    return IntervalStructure(
        bnd_const=b_consts,
        bnd_coef=b_coefs,
        probe=probe,
        start_index=ranks[:n],
        deadline_index=ranks[n:],
    )
