"""Vectorized heuristic-scheduler kernels: the per-event python, as array programs.

PRs 5-7 collapsed the LP/replan path, which leaves the *heuristic*
schedulers (MCT/MCT-Div, the priority queues, the Bender heuristics) as the
dominant per-event python at campaign scale: the eligible-machine argmin of
MCT, the water-filling spread of MCT-Div, the (priority, job_id) ranking of
every list scheduler and the deadline/pseudo-stretch key computations.
This module holds those loops, one implementation per kernel: numpy array
programs where the arithmetic is elementwise, the sequential loop where it
is loop-carried (water filling).

Every kernel preserves the historical float arithmetic operation-for-
operation (same IEEE ops per output element, no reordering), so replacing
the python loops changed *nothing* about results -- schedules, metrics and
campaign record sets are bit-identical to the pre-kernel pure-python loops,
which ``tests/kernel_oracles.py`` keeps verbatim as the oracles of
``tests/test_scheduler_kernels.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mct_argmin_completion",
    "water_filling_completion",
    "rank_by_priority",
    "pseudo_stretch_priorities",
    "expand_deadlines",
]


def mct_argmin_completion(
    available: np.ndarray, cycle_times: np.ndarray, now: float, size: float
) -> tuple[int, float]:
    """MCT's champion scan: earliest-completing eligible machine.

    Returns ``(index, completion)`` where ``completion = max(available[i],
    now) + size * cycle_times[i]`` and a candidate only displaces the
    incumbent when it wins by more than the historical 1e-15 tolerance.
    Returns ``(-1, inf)`` on empty input (the caller rejects that case).
    """
    now = float(now)
    size = float(size)
    # The champion scan accepts a machine only when it beats the incumbent by
    # more than 1e-15, a loop-carried chain that is *not* a plain argmin when
    # several completions fall within the tolerance of each other.  But when
    # the minimum wins by more than 1e-15 over every other completion the
    # chain provably ends on it (any earlier champion is beaten by it, and no
    # later candidate can displace the minimum), so the vectorized argmin is
    # exact; any tolerance-band tie falls back to the sequential loop.
    completions = np.maximum(available, now) + size * cycle_times
    if completions.size == 0:
        return -1, math.inf
    best = int(np.argmin(completions))
    value = completions[best]
    if int(np.count_nonzero(completions <= value + 1e-15)) == 1:
        return best, float(value)
    best_index = -1
    best_completion = math.inf
    for i in range(available.size):
        completion = max(available[i], now) + size * cycle_times[i]
        if completion < best_completion - 1e-15:
            best_completion = completion
            best_index = i
    return best_index, float(best_completion)


def water_filling_completion(
    work: float, speeds: np.ndarray, availability: np.ndarray
) -> float:
    """Earliest common completion date of ``work`` spread over the machines.

    Machine ``i`` becomes available at ``availability[i]`` and then processes
    at ``speeds[i]``; the job completes at the smallest ``T`` such that
    ``sum_i speeds[i] * max(0, T - availability[i]) = work`` -- MCT-Div's
    water-filling sweep in earliest-availability order.
    """
    if speeds.size == 0:
        raise ValueError("at least one machine is required")
    # The sweep consumes the remaining work along a loop-carried subtraction
    # chain; vectorizing it would reassociate the arithmetic, so it stays the
    # sequential loop.
    order = sorted(range(len(speeds)), key=lambda i: availability[i])
    active_speed = 0.0
    remaining = float(work)
    current = availability[order[0]]
    for idx in order:
        # Advance from the previous availability date to this one using the
        # machines already active.
        gap = availability[idx] - current
        if gap > 0 and active_speed > 0:
            doable = active_speed * gap
            if doable >= remaining:
                return float(current + remaining / active_speed)
            remaining -= doable
            current = availability[idx]
        else:
            current = max(current, availability[idx])
        active_speed += speeds[idx]
    return float(current + remaining / active_speed)


def rank_by_priority(priorities: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rank jobs by ``(priority, job_id)`` ascending; returns int64 positions.

    The ranking of every list scheduler (Section 3's greedy rule): smaller
    keys are more urgent, ties broken by job id.
    """
    # Job ids are unique, so the (priority, job_id) key is total and the
    # lexicographic sort matches the historical stable tuple sort exactly.
    return np.lexsort((ids, priorities)).astype(np.int64, copy=False)


def pseudo_stretch_priorities(
    ages: np.ndarray, relative_sizes: np.ndarray, delta: float
) -> np.ndarray:
    """Bender02 priority keys: the *negated* pseudo-stretches :math:`-\\hat S_j(t)`.

    Jobs whose normalized size is <= sqrt(delta) age at rate 1/sqrt(delta),
    larger jobs at 1/delta; larger pseudo-stretch means more urgent, hence
    the negation into PriorityScheduler's smaller-is-urgent convention.
    """
    # Both branch quotients are computed elementwise and selected, so each
    # output element is the exact division the per-job branch performed.
    delta = float(delta)
    sqrt_delta = math.sqrt(delta)
    return -np.where(relative_sizes <= sqrt_delta, ages / sqrt_delta, ages / delta)


def expand_deadlines(releases: np.ndarray, factors: np.ndarray, scale: float) -> np.ndarray:
    """Bender98 deadline table: ``release + scale * factor`` per job (flow factors).

    ``scale`` is the caller's ``expansion * S*`` product, so each element
    reproduces the historical ``r_j + alpha * S* / w_j`` arithmetic exactly.
    """
    return releases + float(scale) * factors
