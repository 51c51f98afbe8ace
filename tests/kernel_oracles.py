"""The pre-kernel pure-python loops, kept verbatim as test-side oracles.

Until PR 23 these bodies were the ``legacy`` tier of
:mod:`repro.lp.kernels` and :mod:`repro.schedulers.kernels`.  The kernel
modules now hold one implementation each; what nothing there calls lives
here, so ``tests/test_replan_kernels.py`` and
``tests/test_scheduler_kernels.py`` can keep asserting that every kernel is
bit-equal to the loop it replaced.  The milestone merge and the MCT champion
scan also survive inside their kernels as the sequential fallback; they are
copied here all the same, so that the fast-path-plus-fallback composition
has a reference that does not share its code.

Water filling and the System (1) scatter have no oracle: their kernels
*are* the historical loops, and the test files check them against
properties instead.

Not a test module (no ``test_`` prefix): imported by name, like
``helpers.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LP_ORACLES", "SCHEDULER_ORACLES", "assert_bit_equal", "patch_in_oracles"]


# -- repro.lp.kernels ----------------------------------------------------------------


def _merge_close_milestones_legacy(values: np.ndarray, tol: float) -> list[float]:
    """The historical sequential merge loop of ``enumerate_milestones``."""
    merged: list[float] = [float(values[0])]
    for v in values[1:]:
        if abs(v - merged[-1]) > tol * max(1.0, abs(v)):
            merged.append(float(v))
    return merged


def _order_affine_boundaries_legacy(
    consts: np.ndarray, coefs: np.ndarray, probe: float
) -> tuple[np.ndarray, np.ndarray]:
    """The historical dict-dedup + python-sorted boundary ordering."""
    seen: dict[tuple[float, float], int] = {}
    uniq: list[tuple[float, float]] = []
    for const, coef in zip(consts.tolist(), coefs.tolist()):
        key = (const, coef)
        if key not in seen:
            seen[key] = len(uniq)
            uniq.append(key)
    order = sorted(
        range(len(uniq)),
        key=lambda i: (uniq[i][0] + uniq[i][1] * probe, uniq[i][1], uniq[i][0]),
    )
    out_consts = np.array([uniq[i][0] for i in order], dtype=np.float64)
    out_coefs = np.array([uniq[i][1] for i in order], dtype=np.float64)
    return out_consts, out_coefs


def _active_jobs_delta_legacy(
    releases: np.ndarray,
    factors: np.ndarray,
    rem: np.ndarray,
    now: float,
    has_now: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The historical per-row active-job filter of ``_problem_from_job_table``."""
    idx_list: list[int] = []
    earliest: list[float] = []
    works: list[float] = []
    for i in range(releases.size):
        value = rem[i]
        if value <= 0.0:
            continue
        idx_list.append(i)
        release = releases[i]
        earliest.append(release if not has_now else max(release, now))
        works.append(float(value))
    idx = np.array(idx_list, dtype=np.int64)
    return (
        idx,
        np.array(earliest, dtype=np.float64),
        np.array(works, dtype=np.float64),
        releases[idx],
        factors[idx],
    )


# -- repro.schedulers.kernels --------------------------------------------------------


def _mct_argmin_completion_legacy(
    available: np.ndarray, cycle_times: np.ndarray, now: float, size: float
) -> tuple[int, float]:
    """The historical champion scan of ``MCTScheduler.on_arrival``."""
    best_index = -1
    best_completion = math.inf
    for i in range(available.size):
        completion = max(available[i], now) + size * cycle_times[i]
        if completion < best_completion - 1e-15:
            best_completion = completion
            best_index = i
    return best_index, float(best_completion)


def _rank_by_priority_legacy(priorities: np.ndarray, job_ids: np.ndarray) -> np.ndarray:
    """The historical ``sorted(..., key=(priority, job_id))`` list ranking."""
    order = sorted(range(priorities.size), key=lambda i: (priorities[i], job_ids[i]))
    return np.array(order, dtype=np.int64)


def _pseudo_stretch_priorities_legacy(
    ages: np.ndarray, relative_sizes: np.ndarray, delta: float
) -> np.ndarray:
    """The historical per-job pseudo-stretch keys of ``Bender02Scheduler``."""
    out = np.empty(ages.size, dtype=np.float64)
    for i in range(ages.size):
        if relative_sizes[i] <= math.sqrt(delta):
            out[i] = -(ages[i] / math.sqrt(delta))
        else:
            out[i] = -(ages[i] / delta)
    return out


def _expand_deadlines_legacy(
    releases: np.ndarray, flow_factors: np.ndarray, scale: float
) -> np.ndarray:
    """The historical per-job deadline expansion of ``Bender98Scheduler``."""
    out = np.empty(releases.size, dtype=np.float64)
    for i in range(releases.size):
        out[i] = releases[i] + scale * flow_factors[i]
    return out


# -- public-signature views, keyed by kernel name ------------------------------------


def _active_jobs_delta(releases, factors, rem, now):
    # The public kernel takes ``now: float | None``; the historical body took
    # the unpacked ``(now, has_now)`` pair its dispatcher computed.
    has_now = now is not None
    return _active_jobs_delta_legacy(
        releases, factors, rem, float(now) if has_now else 0.0, has_now
    )


#: Oracle per kernel of :mod:`repro.lp.kernels`, same call signature as the
#: kernel, so ``monkeypatch.setattr(kernels, name, oracle)`` swaps it in.
LP_ORACLES = {
    "merge_close_milestones": _merge_close_milestones_legacy,
    "order_affine_boundaries": _order_affine_boundaries_legacy,
    "active_jobs_delta": _active_jobs_delta,
}

#: Oracle per kernel of :mod:`repro.schedulers.kernels`.
SCHEDULER_ORACLES = {
    "mct_argmin_completion": _mct_argmin_completion_legacy,
    "rank_by_priority": _rank_by_priority_legacy,
    "pseudo_stretch_priorities": _pseudo_stretch_priorities_legacy,
    "expand_deadlines": _expand_deadlines_legacy,
}


def assert_bit_equal(actual, expected):
    """Same tuple layout, same array shapes, every element ``==``."""
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_bit_equal(a, e)
    elif isinstance(expected, np.ndarray):
        assert np.asarray(actual).shape == expected.shape
        assert np.array_equal(np.asarray(actual), expected)
    else:
        assert actual == expected


def patch_in_oracles(monkeypatch, kernels, oracles) -> dict[str, int]:
    """Swap every oracle in for its kernel; returns the live per-name call counts.

    The call sites resolve ``kernels.<name>`` at call time, so patching the
    module attribute swaps the implementation under a whole run.
    """
    calls = dict.fromkeys(oracles, 0)

    def counted(name):
        def oracle(*args):
            calls[name] += 1
            return oracles[name](*args)

        return oracle

    for name in oracles:
        monkeypatch.setattr(kernels, name, counted(name))
    return calls
