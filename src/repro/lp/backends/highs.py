"""Persistent HiGHS backend: basis warm starts across related solves.

The milestone search and the System (2) re-optimization submit long runs of
closely-related LPs.  This backend builds a new ``Highs`` model for every
solve -- the on-line heuristics replan at every arrival, so consecutive
solves carry different job sets and matrices -- but keeps the one piece of
solver state that does carry over: the *basis*.

* **Basis transplants.**  Consecutive probes whose matrices differ (the
  milestone gallop walks a lattice of interval structures; arrivals change
  the job set between replans) still describe almost the same scheduling
  problem.  Callers pass a :class:`~repro.lp.backends.base.WarmStartHint`
  carrying stable variable/row identities; the previous basis of the series
  is mapped through those identities onto the freshly built model before
  ``run()``.  A transplanted basis typically proves infeasibility or
  optimality in a handful of dual-simplex iterations instead of hundreds.

* **Live re-solves.**  System (2) shares every row with the winning System
  (1) probe, so :meth:`~HighsPersistentBackend.resolve_fixed` fixes ``F`` on
  the probe's model, swaps the costs and runs *primal* simplex from its basis.

* **Cold retry.**  A probe whose solve fails is re-solved once on a fresh
  model with no basis, by primal simplex (the downgrade).

The series bases are the only state the backend keeps, and only for the
run that owns the backend.  A solve leaves its basis behind as the
bindings' ``HighsBasis`` copy (no ``Highs`` object); its statuses become
four small sorted numpy arrays only when the next transplant of the series
reads them, because reading them from the bindings costs one Python object
per row and column, and a basis the next solve of the series overwrites is
never read.  A ``Highs`` object dies with the call or, when
its result's handle is taken, with the handle (dropped within the replan).

The bindings are the ones scipy >= 1.15 vendors
(``scipy.optimize._highspy``).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsBasisStatus,
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
)
from scipy.optimize._highspy._core import _Highs as Highs

from repro.core.errors import SolverError
from repro.lp.backends.base import (
    LiveResolve,
    LPResult,
    LPSpec,
    SolverBackend,
    WarmStartHint,
    annotate_solver_error,
)

__all__ = ["HighsPersistentBackend"]

#: The ``simplex_strategy`` of primal simplex, which live re-solves and the
#: cold re-solve of a failed probe run; warm solves run the default, dual.
_PRIMAL_SIMPLEX = 4


#: The integer code of a ``HighsBasisStatus`` member (``int()`` costs more).
_status_code = operator.attrgetter("value")


def _sorted_side(ids: np.ndarray, statuses) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, statuses)`` sorted by id, statuses down-converted to int8."""
    values = np.fromiter(map(_status_code, statuses), dtype=np.int8, count=len(statuses))
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


def _csc(spec: LPSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, index, value)`` of ``spec``'s constraint matrix, column-wise.

    Inequality rows first, then equality rows.  Entries are sorted by
    (column, row), stably, and duplicate ``(row, column)`` entries summed --
    what ``scipy.sparse.coo_matrix(...).tocsc()`` yields.
    """
    n_ub = len(spec.ub_rhs)
    rows = np.concatenate(
        [np.asarray(spec.ub_rows, dtype=np.int64), np.asarray(spec.eq_rows, dtype=np.int64) + n_ub]
    )
    cols = np.concatenate(
        [np.asarray(spec.ub_cols, dtype=np.int64), np.asarray(spec.eq_cols, dtype=np.int64)]
    )
    vals = np.concatenate(
        [np.asarray(spec.ub_vals, dtype=np.float64), np.asarray(spec.eq_vals, dtype=np.float64)]
    )
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=first[1:])
    if not first.all():
        heads = np.nonzero(first)[0]
        rows, cols, vals = rows[heads], cols[heads], np.add.reduceat(vals, heads)
    start = np.zeros(spec.n_vars + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=spec.n_vars), out=start[1:])
    return start, rows, vals


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


class _CapturedBasis(NamedTuple):
    """A solve's basis as the bindings returned it, with the solve's identities."""

    basis: object  # HighsBasis, an independent copy of the solver's
    warm: WarmStartHint

    def convert(self) -> _SeriesBasis:
        """The statuses as a :class:`_SeriesBasis` (the costly read)."""
        return _SeriesBasis(
            *_sorted_side(self.warm.col_ids, self.basis.col_status),
            *_sorted_side(self.warm.row_ids, self.basis.row_status),
        )


class _LiveModel(NamedTuple):
    """The :attr:`LPResult.model` handle: the solved ``Highs`` object and its inputs."""

    highs: object
    spec: LPSpec
    warm: WarmStartHint


class HighsPersistentBackend(SolverBackend):
    """Backend keeping the latest simplex basis of each warm-start series.

    Every solve builds its own ``Highs`` model, which only the handle on an
    optimal hinted result (for :meth:`resolve_fixed`) keeps alive.
    Solves submitted with a :class:`~repro.lp.backends.base.WarmStartHint`
    start from the series' previous basis, mapped through the hint's
    identities, and leave theirs behind for the next one.
    """

    name = "highs"
    persistent = True

    def __init__(self):
        super().__init__()
        self._series: dict[Hashable, _SeriesBasis | _CapturedBasis] = {}
        # The HighsBasisStatus members indexed by their integer code, so a
        # transplant turns its int8 statuses into members by one indexing.
        members = HighsBasisStatus.__members__.values()
        self._status_members = np.empty(max(map(_status_code, members)) + 1, dtype=object)
        for member in members:
            self._status_members[_status_code(member)] = member
        self._int_basic = _status_code(HighsBasisStatus.kBasic)
        self._int_lower = _status_code(HighsBasisStatus.kLower)

    # -- SolverBackend interface ---------------------------------------------------
    def _solve(
        self, spec: LPSpec, *, warm: WarmStartHint | LiveResolve | None = None
    ) -> LPResult:
        """A live re-solve, or ``spec`` on a new model with a cold retry.

        A failed live re-solve raises: its caller builds the program afresh.
        A failed build-and-run is re-solved once on a fresh, cold model -- no
        basis, primal instead of dual simplex --, counted in
        :attr:`~repro.lp.backends.base.LPProbeStats.n_downgrades`.  It leaves
        the series basis as it was (a basis is recorded only on an optimal or
        infeasible outcome), so the next solve starts where this one did, and
        it preserves exactness: the retried probe either returns the optimum
        of the same LP or fails again, its error chained from the first.
        """
        if isinstance(warm, LiveResolve):
            return self._resolve_fixed(
                warm.model, column=warm.column, value=warm.value, costs=warm.costs
            )
        try:
            return self._build_and_run(spec, warm)
        except SolverError as exc:
            annotate_solver_error(exc, backend=self.name)
            try:
                result = self._solve_cold(spec)
            except SolverError as cold_exc:
                annotate_solver_error(cold_exc, backend=self.name, attempts=2)
                raise cold_exc from exc
            self.stats.n_downgrades += 1
            return result

    def _build_and_run(self, spec: LPSpec, warm: WarmStartHint | None) -> LPResult:
        """``spec`` on a new model, from the series' basis when hinted."""
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

    def _resolve_fixed(self, model, *, column, value, costs) -> LPResult:
        highs, spec, warm = model
        highs.changeColBounds(column, value, value)
        highs.changeColsCost(costs.size, np.arange(costs.size, dtype=np.int32), costs)
        highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        # At the default 1e-7, System (2) optima stop up to ~2e-7 (relative) short.
        highs.setOptionValue("dual_feasibility_tolerance", 1e-9)
        return self._run(highs, spec, warm=warm)

    def _solve_cold(self, spec: LPSpec) -> LPResult:
        """``spec`` on a fresh model with no basis, by primal simplex.

        The downgrade of a failed solve (:meth:`_solve`): the failed one ran
        dual simplex, warm or not.  Leaves no basis behind.
        """
        highs = self._new_solver()
        highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        self._build_model(highs, spec)
        return self._run(highs, spec, warm=None)

    def close(self) -> None:
        """Drop every series basis and start a fresh :attr:`stats`."""
        super().close()
        self._series.clear()

    # -- model lifecycle -----------------------------------------------------------
    def _new_solver(self):
        highs = Highs()
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
        costs, col_lower, col_upper, row_lower, row_upper = self._arrays(spec)
        start, index, value = _csc(spec)

        lp = HighsLp()
        lp.num_col_ = spec.n_vars
        lp.num_row_ = spec.n_rows
        lp.col_cost_ = costs
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.sense_ = ObjSense.kMinimize
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = spec.n_vars
        lp.a_matrix_.num_row_ = spec.n_rows
        # The bindings copy int vectors from a list about twice as fast as
        # from a numpy array (float vectors take numpy arrays directly).
        lp.a_matrix_.start_ = start.tolist()
        lp.a_matrix_.index_ = index.tolist()
        lp.a_matrix_.value_ = value
        status = highs.passModel(lp)
        if status == HighsStatus.kError:
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
        prev = self._series_basis(warm.series)
        if prev is None:
            return
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

        members = self._status_members
        basis = HighsBasis()
        basis.col_status = members[col_status].tolist()
        basis.row_status = members[row_status].tolist()
        basis.valid = True
        if highs.setBasis(basis) != HighsStatus.kError:
            self.stats.n_basis_reused += 1

    def _capture_basis(self, highs, spec: LPSpec, warm: WarmStartHint) -> None:
        """Keep the solve's basis as the series' latest, unconverted.

        ``getBasis`` returns a copy, so later solves on ``highs`` (a live
        re-solve) leave it alone.  A valid basis has one status per column
        and row of the model, which must match the hint's identities.
        """
        if spec.n_vars != warm.col_ids.size or spec.n_rows != warm.row_ids.size:
            return
        basis = highs.getBasis()
        if getattr(basis, "valid", True):
            self._series[warm.series] = _CapturedBasis(basis, warm)

    def _series_basis(self, series: Hashable) -> _SeriesBasis | None:
        """The series' latest basis, its statuses converted on this first read."""
        basis = self._series.get(series)
        if isinstance(basis, _CapturedBasis):
            basis = self._series[series] = basis.convert()
        return basis

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
    def _timed_run(self, highs):
        """``highs.run()``, its time added to :attr:`LPProbeStats.run_seconds`."""
        start = time.perf_counter()
        try:
            return highs.run()
        finally:
            self.stats.run_seconds += time.perf_counter() - start

    def _run(self, highs, spec: LPSpec, warm: WarmStartHint | None) -> LPResult:
        run_status = self._timed_run(highs)
        model_status = highs.getModelStatus()
        if model_status == HighsModelStatus.kUnboundedOrInfeasible:
            # Presolve could not tell the two apart; disambiguate without it,
            # then restore whatever mode this model runs under (warm-series
            # models are deliberately created with presolve off).
            option = highs.getOptionValue("presolve")
            previous = option[1] if isinstance(option, tuple) else option
            highs.setOptionValue("presolve", "off")
            try:
                self._timed_run(highs)
                model_status = highs.getModelStatus()
            finally:
                highs.setOptionValue("presolve", previous)
        if model_status == HighsModelStatus.kOptimal:
            if warm is not None:
                self._capture_basis(highs, spec, warm)
            values = np.asarray(highs.getSolution().col_value, dtype=np.float64)
            return LPResult(
                status=0,
                feasible=True,
                objective=float(highs.getObjectiveValue()),
                values=values,
                message="Optimal (HiGHS persistent)",
                model=_LiveModel(highs, spec, warm) if warm is not None else None,
            )
        if model_status == HighsModelStatus.kInfeasible:
            # The dual-ray basis of an infeasible probe is as good a warm
            # start for the neighbouring probes as an optimal one.
            if warm is not None:
                self._capture_basis(highs, spec, warm)
            result = self.infeasible_result(spec, "Infeasible (HiGHS persistent)")
            result.dual_ray = self._extract_dual_ray(highs, spec)
            return result
        status_text = highs.modelStatusToString(model_status)
        raise SolverError(
            f"HiGHS solve failed (run status {run_status}, model status {status_text})"
        )
