"""Replan kernels: the per-replan python, as array programs.

After the certificate search (PR 5) and the solver-state bank (PR 6) the
milestone search solves a median of ~1 LP per replan, so the replan floor
is no longer "how many LPs" but "how much python per probe": milestone
merging, interval-boundary ordering, ``JobTable`` delta application and the
COO scatter of the System (1) capacity rows.  This module holds those loops
as numpy array programs, one implementation per kernel.

Every kernel preserves the historical float arithmetic operation-for-
operation (same IEEE ops per output element, no reordering), so replacing
the python loops changed *nothing* about results -- S* trajectories,
allocations and campaign record sets are bit-identical to the pre-kernel
pure-python loops, which ``tests/kernel_oracles.py`` keeps verbatim as the
oracles of ``tests/test_replan_kernels.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_tier",
    "merge_close_milestones",
    "order_affine_boundaries",
    "active_jobs_delta",
    "scatter_capacity_sys1",
]


def active_tier() -> str:
    """The one kernel implementation there is (``"numpy"``)."""
    # Sole reader: benchmarks/e2e/cli.py stamps this into every result's
    # ``environment.kernel_tier``, and that harness is read-only for ordinary
    # PRs.  A benchmark-type PR drops the field and this function together
    # (ROADMAP item 6).
    return "numpy"


def merge_close_milestones(values: np.ndarray, tol: float) -> list[float]:
    """Merge sorted candidate milestones closer than relative ``tol``.

    Keeps the first member of every close cluster, comparing each candidate
    against the last *kept* value -- exactly the historical sequential loop.
    ``values`` must be sorted, non-empty, float64.
    """
    # The merge condition compares each value against the last *kept* one, a
    # loop-carried dependency.  But merges only fire on near-duplicates
    # (relative tol, default 1e-12), so in the overwhelmingly common case the
    # vectorized adjacent-difference test proves that nothing merges -- and
    # then "last kept" == "previous element" and the whole array survives
    # verbatim.  Any failing pair falls back to the exact sequential loop.
    gaps = np.abs(values[1:] - values[:-1]) > tol * np.maximum(1.0, np.abs(values[1:]))
    if bool(gaps.all()):
        return values.tolist()
    merged: list[float] = [float(values[0])]
    for v in values[1:]:
        if abs(v - merged[-1]) > tol * max(1.0, abs(v)):
            merged.append(float(v))
    return merged


def order_affine_boundaries(
    consts: np.ndarray, coefs: np.ndarray, probe: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dedup affine boundaries ``const + coef*F`` and sort for the structure.

    Returns the distinct ``(const, coef)`` pairs ordered by (value at
    ``probe``, coef, const) -- the deterministic boundary order of
    :func:`repro.lp.intervals.build_interval_structure`.
    """
    # Sort by (value at probe, coef, const); exact duplicates -- equal
    # (const, coef) pairs, hence equal full keys -- land adjacent and are
    # dropped.  Distinct pairs always differ in the full key (equal value and
    # equal coef force equal const), so the order is total and matches the
    # historical first-occurrence-dedup-then-sort result exactly.
    values = consts + coefs * probe
    order = np.lexsort((consts, coefs, values))
    c = consts[order]
    k = coefs[order]
    keep = np.empty(order.size, dtype=bool)
    if order.size:
        keep[0] = True
        np.logical_or(c[1:] != c[:-1], k[1:] != k[:-1], out=keep[1:])
    return c[keep], k[keep]


def active_jobs_delta(
    releases: np.ndarray,
    factors: np.ndarray,
    rem: np.ndarray,
    now: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply a remaining-work delta to the :class:`~repro.lp.problem.JobTable`.

    Returns ``(row indices, earliest starts, remaining works, releases,
    flow factors)`` of the active rows (``rem > 0``), with earliest starts
    clamped to ``now`` when given -- the replan fast path of
    ``problem_from_instance``.
    """
    idx = np.nonzero(rem > 0.0)[0]
    rel = releases[idx]
    earliest = rel.copy() if now is None else np.maximum(rel, float(now))
    return idx, earliest, rem[idx], rel, factors[idx]


def scatter_capacity_sys1(
    entry_rows: np.ndarray,
    entry_cols: np.ndarray,
    len_const: np.ndarray,
    len_coef: np.ndarray,
    speeds: np.ndarray,
    offset: int,
    f_var: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the System (1) capacity block ``(rows, cols, vals, rhs)`` in COO form.

    The x entries carry coefficient 1 on their skeleton positions (shifted by
    ``offset``); the objective column ``f_var`` receives ``-speed *
    length.coef`` on rows where that is nonzero; the RHS is ``speed *
    length.const``.
    """
    x_vals = np.ones(entry_cols.size, dtype=np.float64)
    f_coefs = -(speeds * len_coef)
    nonzero = np.nonzero(f_coefs)[0]
    rows = np.concatenate([entry_rows, nonzero])
    cols = np.concatenate(
        [entry_cols + int(offset), np.full(nonzero.size, int(f_var), dtype=np.int64)]
    )
    vals = np.concatenate([x_vals, f_coefs[nonzero]])
    rhs = speeds * len_const
    return rows, cols, vals, rhs
