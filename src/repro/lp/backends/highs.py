"""Persistent HiGHS backend: basis warm starts across related solves.

The milestone search and the System (2) re-optimization submit long runs of
closely-related LPs.  The one-shot scipy path rebuilds COO -> CSR ->
presolve -> factorize for every probe.  This backend also builds a new
``Highs`` model for every solve -- the on-line heuristics replan at every
arrival, so consecutive solves carry different job sets and matrices -- but
keeps the one piece of solver state that does carry over: the *basis*.

* **Basis transplants.**  Consecutive probes whose matrices differ (the
  milestone gallop walks a lattice of interval structures; arrivals change
  the job set between replans) still describe almost the same scheduling
  problem.  Callers pass a :class:`~repro.lp.backends.base.WarmStartHint`
  carrying stable variable/row identities; the previous basis of the series
  is mapped through those identities onto the freshly built model before
  ``run()``.  A transplanted basis typically proves infeasibility or
  optimality in a handful of dual-simplex iterations instead of hundreds.

The series bases (four small numpy arrays per series) are the only state
that outlives a solve; the ``Highs`` object and its factorization die with
the call.

Bindings are resolved at import time from, in order of preference:

1. the optional ``highspy`` package (``pip install repro-stretch[highs]``),
2. the HiGHS bindings vendored by scipy >= 1.15
   (``scipy.optimize._highspy``), which expose the same pybind11 API.

When neither is importable, :func:`highs_available` returns False and
constructing :class:`HighsPersistentBackend` raises
:class:`~repro.core.errors.SolverError`; callers requesting backend
``"auto"`` fall back to the scipy backend instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Hashable

import numpy as np
from scipy import sparse

from repro.core.errors import SolverError
from repro.lp.backends.base import (
    LPResult,
    LPSpec,
    SolverBackend,
    WarmStartHint,
    note_basis_reuse,
)

__all__ = [
    "HighsPersistentBackend",
    "highs_available",
    "highs_source",
    "highs_unavailable_reason",
]

_API: SimpleNamespace | None = None
_API_RESOLVED = False

#: Names the backend needs from the bindings.
_API_NAMES = (
    "HighsLp",
    "MatrixFormat",
    "ObjSense",
    "HighsModelStatus",
    "HighsStatus",
    "HighsBasis",
    "HighsBasisStatus",
)


def _namespace_from(module, highs_cls) -> SimpleNamespace | None:
    values = {}
    for name in _API_NAMES:
        value = getattr(module, name, None)
        if value is None:
            return None
        values[name] = value
    return SimpleNamespace(Highs=highs_cls, **values)


def _load_api() -> SimpleNamespace | None:
    """Resolve the HiGHS bindings once (highspy, then scipy's vendored copy)."""
    global _API, _API_RESOLVED
    if _API_RESOLVED:
        return _API
    _API_RESOLVED = True
    try:
        import highspy  # type: ignore[import-not-found]

        _API = _namespace_from(highspy, highspy.Highs)
        if _API is not None:
            _API.source = "highspy"
            return _API
    except ImportError:
        pass
    try:
        from scipy.optimize._highspy import _core  # type: ignore[import-not-found]

        _API = _namespace_from(_core, _core._Highs)
        if _API is not None:
            _API.source = "scipy-vendored"
    except ImportError:
        _API = None
    return _API


def highs_available() -> bool:
    """True when HiGHS bindings (highspy or scipy-vendored) are importable."""
    return _load_api() is not None


def highs_source() -> str | None:
    """Which bindings back the persistent backend ('highspy'/'scipy-vendored')."""
    api = _load_api()
    return api.source if api is not None else None


def highs_unavailable_reason() -> str | None:
    """Why no HiGHS bindings could be resolved (``None`` when they could).

    Distinguishes the two failure modes an operator can actually act on:
    ``highspy`` missing on an old scipy (install either), versus bindings
    that import but expose an incompatible API (upgrade them).  Mirrors the
    resolution order of :func:`_load_api`.
    """
    if _load_api() is not None:
        return None
    try:
        import highspy  # type: ignore[import-not-found]  # noqa: F401
    except ImportError:
        highspy_reason = "highspy is not installed"
    else:
        highspy_reason = (
            "highspy is installed but exposes an incompatible API"
            " (needs highspy >= 1.5)"
        )
    try:
        from scipy.optimize._highspy import _core  # type: ignore[import-not-found]  # noqa: F401
    except ImportError:
        import scipy

        vendored_reason = (
            f"scipy {scipy.__version__} does not vendor the HiGHS bindings"
            " (needs scipy >= 1.15)"
        )
    else:
        vendored_reason = "scipy's vendored HiGHS bindings expose an incompatible API"
    return f"{highspy_reason}, and {vendored_reason}"


def _sorted_side(ids: np.ndarray, statuses) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, statuses)`` sorted by id, statuses down-converted to int8."""
    values = np.fromiter(map(int, statuses), dtype=np.int8, count=len(statuses))
    order = np.argsort(ids, kind="stable")
    return ids[order], values[order]


def _map_statuses(
    prev_ids: np.ndarray,
    prev_status: np.ndarray,
    new_ids: np.ndarray,
    default: int,
) -> np.ndarray:
    """Statuses for ``new_ids``, inherited by identity (``default`` when new)."""
    if prev_ids.size == 0 or new_ids.size == 0:
        return np.full(new_ids.size, default, dtype=np.int8)
    pos = np.searchsorted(prev_ids, new_ids).clip(0, prev_ids.size - 1)
    out = prev_status[pos].copy()
    out[prev_ids[pos] != new_ids] = default
    return out


@dataclass
class _SeriesBasis:
    """The latest basis observed in a warm-start series.

    Identities and statuses are stored sorted by identity so that the
    transplant onto the next model is a single ``searchsorted`` per side.
    """

    col_ids: np.ndarray  # int64, sorted
    col_status: np.ndarray  # int8, aligned with col_ids
    row_ids: np.ndarray
    row_status: np.ndarray


class HighsPersistentBackend(SolverBackend):
    """Backend keeping the latest simplex basis of each warm-start series.

    Every solve builds its own ``Highs`` model, which dies with the call.
    Solves submitted with a :class:`~repro.lp.backends.base.WarmStartHint`
    start from the series' previous basis, mapped through the hint's
    identities, and leave theirs behind for the next one.
    """

    name = "highs"
    persistent = True

    def __init__(self):
        api = _load_api()
        if api is None:
            raise SolverError(
                "HiGHS backend requested but no bindings are available "
                f"({highs_unavailable_reason()}); "
                "install the optional dependency with "
                "`pip install repro-stretch[highs]` (or any highspy >= 1.5), "
                "or use --solver-backend scipy"
            )
        self._api = api
        self._series: dict[Hashable, _SeriesBasis] = {}
        # int <-> HighsBasisStatus tables for the vectorized basis mapping.
        self._status_by_int = {
            int(member): member
            for member in api.HighsBasisStatus.__members__.values()
        }
        self._int_basic = int(api.HighsBasisStatus.kBasic)
        self._int_lower = int(api.HighsBasisStatus.kLower)
        #: Counter exposed for tests/benchmarks: solves started from a
        #: transplanted series basis.
        self.n_basis_transplants = 0

    # -- SolverBackend interface ---------------------------------------------------
    def _solve(
        self,
        spec: LPSpec,
        *,
        method: str = "auto",
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        del method  # HiGHS picks simplex/IPM itself; warm starts force simplex
        highs = self._new_solver()
        if warm is not None:
            # Hinted solves feed a warm-start series.  Presolve would prove
            # the many infeasible milestone probes without ever running
            # simplex, leaving no basis to transplant into the next probe --
            # and a transplanted basis settles those probes in a handful of
            # iterations anyway, so simplex-only is the faster regime.
            highs.setOptionValue("presolve", "off")
        self._build_model(highs, spec)
        if warm is not None:
            self._transplant_basis(highs, spec, warm)
        return self._run(highs, spec, warm=warm)

    def close(self) -> None:
        """Drop every series basis."""
        self._series.clear()

    # -- series-state serialization (cross-run solver-state bank) -------------------
    def export_series_state(self) -> "dict | None":
        """Snapshot the retained warm-start series bases (see the bank).

        The payload holds plain numpy arrays only -- no live ``Highs``
        objects -- so it survives in the per-worker
        :class:`~repro.lp.bank.SolverStateBank` long after this backend is
        closed, and seeding a fresh backend from it is just array copies.
        """
        if not self._series:
            return None
        return {
            series: (
                basis.col_ids.copy(),
                basis.col_status.copy(),
                basis.row_ids.copy(),
                basis.row_status.copy(),
            )
            for series, basis in self._series.items()
        }

    def import_series_state(self, payload: "dict | None") -> None:
        """Seed the series bases from an :meth:`export_series_state` payload.

        Imported bases are transplanted exactly like bases captured by this
        backend's own solves: through the caller's stable identities, with
        HiGHS repairing any rank deficiency -- so a stale snapshot can only
        cost simplex iterations, never change an optimum.
        """
        if not payload:
            return
        for series, (col_ids, col_status, row_ids, row_status) in payload.items():
            self._series[series] = _SeriesBasis(
                np.array(col_ids, dtype=np.int64),
                np.array(col_status, dtype=np.int8),
                np.array(row_ids, dtype=np.int64),
                np.array(row_status, dtype=np.int8),
            )

    # -- model lifecycle -----------------------------------------------------------
    def _new_solver(self):
        highs = self._api.Highs()
        highs.setOptionValue("output_flag", False)
        return highs

    def _arrays(self, spec: LPSpec):
        """Cost/bound/RHS vectors of ``spec`` as numpy arrays."""
        costs = np.asarray(spec.objective, dtype=np.float64)
        col_lower = np.asarray(spec.lower, dtype=np.float64)
        col_upper = np.asarray(spec.upper, dtype=np.float64)
        n_ub = len(spec.ub_rhs)
        row_lower = np.empty(spec.n_rows, dtype=np.float64)
        row_upper = np.empty(spec.n_rows, dtype=np.float64)
        row_lower[:n_ub] = -np.inf
        row_upper[:n_ub] = spec.ub_rhs
        row_lower[n_ub:] = spec.eq_rhs
        row_upper[n_ub:] = spec.eq_rhs
        return costs, col_lower, col_upper, row_lower, row_upper

    def _build_model(self, highs, spec: LPSpec) -> None:
        """Pass ``spec`` wholesale into ``highs`` (cold model, no basis)."""
        api = self._api
        costs, col_lower, col_upper, row_lower, row_upper = self._arrays(spec)
        n_ub = len(spec.ub_rhs)
        rows = np.concatenate(
            [
                np.asarray(spec.ub_rows, dtype=np.int64),
                np.asarray(spec.eq_rows, dtype=np.int64) + n_ub,
            ]
        )
        cols = np.concatenate(
            [
                np.asarray(spec.ub_cols, dtype=np.int64),
                np.asarray(spec.eq_cols, dtype=np.int64),
            ]
        )
        vals = np.concatenate(
            [
                np.asarray(spec.ub_vals, dtype=np.float64),
                np.asarray(spec.eq_vals, dtype=np.float64),
            ]
        )
        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(spec.n_rows, spec.n_vars)
        ).tocsc()

        lp = api.HighsLp()
        lp.num_col_ = spec.n_vars
        lp.num_row_ = spec.n_rows
        lp.col_cost_ = costs
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.sense_ = api.ObjSense.kMinimize
        lp.a_matrix_.format_ = api.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = spec.n_vars
        lp.a_matrix_.num_row_ = spec.n_rows
        lp.a_matrix_.start_ = matrix.indptr.astype(np.int32)
        lp.a_matrix_.index_ = matrix.indices.astype(np.int32)
        lp.a_matrix_.value_ = matrix.data.astype(np.float64)
        status = highs.passModel(lp)
        if status == api.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")

    # -- basis transplants ---------------------------------------------------------
    def _transplant_basis(self, highs, spec: LPSpec, warm: WarmStartHint) -> None:
        """Seed a freshly built model with the series' previous basis.

        Statuses are mapped through the caller-provided stable identities;
        columns/rows with no precedent start non-basic / basic-slack.  The
        mapped basis need not be exactly valid -- HiGHS repairs rank
        deficiencies -- so a partial overlap (e.g. after an arrival changed
        the job set) still short-circuits most simplex iterations.
        """
        prev = self._series.get(warm.series)
        if prev is None:
            return
        api = self._api
        basic = self._int_basic
        lower = self._int_lower
        col_status = _map_statuses(prev.col_ids, prev.col_status, warm.col_ids, lower)
        row_status = _map_statuses(prev.row_ids, prev.row_status, warm.row_ids, basic)

        # HiGHS rejects bases whose basic count differs from the row count,
        # which happens whenever the identity overlap is partial.  Repair
        # deterministically: demote surplus basic columns (latest first, the
        # columns of the latest intervals are the least settled), then
        # promote row slacks to cover any deficit.
        excess = int((col_status == basic).sum() + (row_status == basic).sum())
        excess -= spec.n_rows
        if excess > 0:
            idx = np.nonzero(col_status == basic)[0]
            take = min(excess, idx.size)
            if take:
                col_status[idx[idx.size - take:]] = lower
                excess -= take
            if excess > 0:
                idx = np.nonzero(row_status == basic)[0]
                row_status[idx[idx.size - excess:]] = lower
        elif excess < 0:
            idx = np.nonzero(row_status != basic)[0][:-excess]
            row_status[idx] = basic

        lookup = self._status_by_int
        basis = api.HighsBasis()
        basis.col_status = [lookup[v] for v in col_status.tolist()]
        basis.row_status = [lookup[v] for v in row_status.tolist()]
        basis.valid = True
        if highs.setBasis(basis) != api.HighsStatus.kError:
            self.n_basis_transplants += 1
            note_basis_reuse()

    def _capture_basis(self, highs, warm: WarmStartHint) -> None:
        basis = highs.getBasis()
        if not getattr(basis, "valid", True):
            return
        col_status = basis.col_status
        row_status = basis.row_status
        if len(col_status) != warm.col_ids.size or len(row_status) != warm.row_ids.size:
            return
        self._series[warm.series] = _SeriesBasis(
            *_sorted_side(warm.col_ids, col_status),
            *_sorted_side(warm.row_ids, row_status),
        )

    # -- infeasibility certificates --------------------------------------------------
    def _extract_dual_ray(self, highs, spec: LPSpec) -> "np.ndarray | None":
        """The Farkas certificate of an infeasible solve, sign-normalized.

        HiGHS only has a dual ray when simplex proved the infeasibility (the
        warm-series models run with presolve off, so milestone probes
        qualify); when presolve concluded first -- or the bindings predate
        ``getDualRay`` -- ``None`` is returned and callers degrade to the
        uncertified search.  HiGHS reports the ray with multipliers that are
        non-positive on ``<=`` rows; it is negated here to match the
        :class:`~repro.lp.backends.base.LPResult` contract (non-negative
        multipliers on inequality rows, aggregated constraint violated from
        below).
        """
        get_exist = getattr(highs, "getDualRayExist", None)
        get_ray = getattr(highs, "getDualRay", None)
        if get_ray is None:
            return None
        try:
            if get_exist is not None:
                _status, exists = get_exist()
                if not exists:
                    return None
            _status, has_ray, ray = get_ray()
        except (TypeError, ValueError):  # unexpected binding signature
            return None
        if not has_ray:
            return None
        ray = -np.asarray(ray, dtype=np.float64)
        if ray.size != spec.n_rows or not np.all(np.isfinite(ray)):
            return None
        return ray

    # -- solve + status mapping --------------------------------------------------------
    def _run(self, highs, spec: LPSpec, warm: WarmStartHint | None) -> LPResult:
        api = self._api
        run_status = highs.run()
        model_status = highs.getModelStatus()
        if model_status == api.HighsModelStatus.kUnboundedOrInfeasible:
            # Presolve could not tell the two apart; disambiguate without it,
            # then restore whatever mode this model runs under (warm-series
            # models are deliberately created with presolve off).
            option = highs.getOptionValue("presolve")
            previous = option[1] if isinstance(option, tuple) else option
            highs.setOptionValue("presolve", "off")
            try:
                highs.run()
                model_status = highs.getModelStatus()
            finally:
                highs.setOptionValue("presolve", previous)
        if model_status == api.HighsModelStatus.kOptimal:
            if warm is not None:
                self._capture_basis(highs, warm)
            values = np.asarray(highs.getSolution().col_value, dtype=np.float64)
            return LPResult(
                status=0,
                feasible=True,
                objective=float(highs.getObjectiveValue()),
                values=values,
                message="Optimal (HiGHS persistent)",
            )
        if model_status == api.HighsModelStatus.kInfeasible:
            # The dual-ray basis of an infeasible probe is as good a warm
            # start for the neighbouring probes as an optimal one.
            if warm is not None:
                self._capture_basis(highs, warm)
            result = self.infeasible_result(spec, "Infeasible (HiGHS persistent)")
            result.dual_ray = self._extract_dual_ray(highs, spec)
            return result
        status_text = highs.modelStatusToString(model_status)
        raise SolverError(
            f"HiGHS solve failed (run status {run_status}, model status {status_text})"
        )
