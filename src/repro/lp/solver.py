"""A sparse-friendly LP builder in front of the pluggable solver backends.

The LPs built by :mod:`repro.lp.maxstretch` and :mod:`repro.lp.relaxation`
are sparse (each variable appears in exactly one capacity constraint and one
completeness constraint), so constraints are accumulated in COO form; the
actual solve is delegated to a :mod:`repro.lp.backends` backend -- the
one-shot scipy path by default, or the persistent HiGHS backend that carries
the simplex basis across milestone probes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import SolverError
from repro.lp.backends import (
    LPResult,
    LPSpec,
    SolverBackend,
    WarmStartHint,
    make_backend,
)

__all__ = ["LinearProgramBuilder", "LPResult"]


class LinearProgramBuilder:
    """Incrementally build ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``.

    Two accumulation modes share the same program: the scalar methods
    (:meth:`add_variable`, :meth:`add_leq`, :meth:`add_eq`) append one
    variable/row at a time, while the vectorized block methods
    (:meth:`add_variables`, :meth:`add_leq_block`, :meth:`add_eq_block`)
    append whole numpy COO blocks at once -- the hot path of the skeleton
    assembly in :mod:`repro.lp.maxstretch`, where per-entry Python loops
    used to dominate the constraint-building cost.  :meth:`spec` splices
    both into one read-only view for the backend.
    """

    def __init__(self) -> None:
        self._n_vars = 0
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._names: dict[int, str] = {}
        # COO triplets for inequality / equality constraint matrices: scalar
        # appends go to the lists, block appends to the chunk lists; spec()
        # concatenates (block rows are offset at append time, so the two
        # modes interleave correctly).
        self._ub_rows: list[int] = []
        self._ub_cols: list[int] = []
        self._ub_vals: list[float] = []
        self._eq_rows: list[int] = []
        self._eq_cols: list[int] = []
        self._eq_vals: list[float] = []
        # Right-hand sides in row order, as alternating parts: mutable
        # list-of-float tails fed by the scalar methods and float64 block
        # arrays appended as-is (no per-row tolist round trip); spec()
        # splices them.
        self._ub_rhs_parts: list["list[float] | np.ndarray"] = []
        self._eq_rhs_parts: list["list[float] | np.ndarray"] = []
        self._n_ub_rows = 0
        self._n_eq_rows = 0
        self._ub_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._eq_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    # -- variables -----------------------------------------------------------
    def add_variable(
        self,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
        name: str = "",
    ) -> int:
        """Register a variable and return its index."""
        index = self._n_vars
        self._n_vars += 1
        self._objective.append(float(objective))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        if name:
            self._names[index] = name
        return index

    def add_variables(
        self,
        count: int,
        *,
        objective: "Sequence[float] | np.ndarray | None" = None,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> int:
        """Register ``count`` variables at once; returns the first index.

        ``objective`` optionally carries per-variable objective coefficients
        (length ``count``); bounds are uniform.  Names are synthesized
        lazily by :meth:`variable_name`.
        """
        if count < 0:
            raise SolverError(f"cannot add {count} variables")
        first = self._n_vars
        self._n_vars += count
        if objective is None:
            self._objective.extend([0.0] * count)
        else:
            if len(objective) != count:
                raise SolverError(
                    f"objective block has {len(objective)} coefficients for {count} variables"
                )
            self._objective.extend(np.asarray(objective, dtype=np.float64).tolist())
        self._lower.extend([float(lower)] * count)
        self._upper.extend([float(upper)] * count)
        return first

    @property
    def n_variables(self) -> int:
        return self._n_vars

    def variable_name(self, index: int) -> str:
        return self._names.get(index, f"x{index}")

    # -- constraints ------------------------------------------------------------
    def add_leq(self, terms: Sequence[tuple[int, float]], rhs: float) -> int:
        """Add ``sum coef * x[idx] <= rhs``; returns the constraint row index."""
        row = self._n_ub_rows
        for idx, coef in terms:
            self._check_var(idx)
            if coef != 0.0:
                self._ub_rows.append(row)
                self._ub_cols.append(idx)
                self._ub_vals.append(float(coef))
        self._append_rhs_scalar(self._ub_rhs_parts, rhs)
        self._n_ub_rows += 1
        return row

    def add_eq(self, terms: Sequence[tuple[int, float]], rhs: float) -> int:
        """Add ``sum coef * x[idx] == rhs``; returns the constraint row index."""
        row = self._n_eq_rows
        for idx, coef in terms:
            self._check_var(idx)
            if coef != 0.0:
                self._eq_rows.append(row)
                self._eq_cols.append(idx)
                self._eq_vals.append(float(coef))
        self._append_rhs_scalar(self._eq_rhs_parts, rhs)
        self._n_eq_rows += 1
        return row

    def add_leq_block(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> int:
        """Append ``len(rhs)`` inequality rows from COO arrays; returns the first row index.

        ``rows`` is 0-based *within the block* (entries for block row ``i``
        land on program row ``first + i``); zero coefficients must already be
        filtered out by the caller (the skeleton caches do), matching the
        scalar path's sparsity.  Column indices are range-checked as a block.
        """
        first, n_rows = self._append_block(
            self._ub_chunks, self._ub_rhs_parts, self._n_ub_rows, rows, cols, vals, rhs
        )
        self._n_ub_rows += n_rows
        return first

    def add_eq_block(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> int:
        """Append ``len(rhs)`` equality rows from COO arrays; returns the first row index."""
        first, n_rows = self._append_block(
            self._eq_chunks, self._eq_rhs_parts, self._n_eq_rows, rows, cols, vals, rhs
        )
        self._n_eq_rows += n_rows
        return first

    @staticmethod
    def _append_rhs_scalar(parts: "list[list[float] | np.ndarray]", rhs: float) -> None:
        tail = parts[-1] if parts and isinstance(parts[-1], list) else None
        if tail is None:
            tail = []
            parts.append(tail)
        tail.append(float(rhs))

    def _append_block(self, chunks, rhs_parts, first, rows, cols, vals, rhs) -> tuple[int, int]:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if not (rows.size == cols.size == vals.size):
            raise SolverError("COO block arrays must have equal lengths")
        if cols.size and (cols.min() < 0 or cols.max() >= self._n_vars):
            raise SolverError("COO block references unknown variable indices")
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise SolverError("COO block row indices exceed the block's row count")
        chunks.append((rows + first, cols, vals))
        # The RHS array is kept whole, in row order with the scalar tails,
        # so the two modes may interleave freely without a per-row round
        # trip through python floats.
        rhs_parts.append(rhs)
        return first, int(rhs.size)

    def _check_var(self, idx: int) -> None:
        if not (0 <= idx < self._n_vars):
            raise SolverError(f"unknown variable index {idx}")

    # -- solve ---------------------------------------------------------------------
    @staticmethod
    def _merge(scalars: "list", chunks: "list[tuple]", pick: int, dtype) -> "Sequence":
        """Scalar-mode list + block chunks spliced into one COO triplet array."""
        if not chunks:
            return scalars
        parts = [np.asarray(scalars, dtype=dtype)] if scalars else []
        parts.extend(chunk[pick] for chunk in chunks)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    @staticmethod
    def _merge_rhs(parts: "list[list[float] | np.ndarray]") -> "Sequence[float]":
        """Splice the RHS parts (scalar tails + block arrays) in row order."""
        if not parts:
            return []
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])

    def spec(self) -> LPSpec:
        """A read-only view of the accumulated program for a solver backend.

        Scalar-mode entries always precede block entries of the same family
        in the COO triplet order, but their *row indices* were assigned at
        append time, so the program is identical no matter how the two modes
        interleave (backends canonicalize through CSR/CSC anyway).
        """
        return LPSpec(
            n_vars=self._n_vars,
            objective=self._objective,
            lower=self._lower,
            upper=self._upper,
            ub_rows=self._merge(self._ub_rows, self._ub_chunks, 0, np.int64),
            ub_cols=self._merge(self._ub_cols, self._ub_chunks, 1, np.int64),
            ub_vals=self._merge(self._ub_vals, self._ub_chunks, 2, np.float64),
            ub_rhs=self._merge_rhs(self._ub_rhs_parts),
            eq_rows=self._merge(self._eq_rows, self._eq_chunks, 0, np.int64),
            eq_cols=self._merge(self._eq_cols, self._eq_chunks, 1, np.int64),
            eq_vals=self._merge(self._eq_vals, self._eq_chunks, 2, np.float64),
            eq_rhs=self._merge_rhs(self._eq_rhs_parts),
        )

    def solve(
        self,
        *,
        method: str = "auto",
        backend: SolverBackend | None = None,
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        """Run the LP; returns an :class:`LPResult` (``feasible`` False when infeasible).

        Parameters
        ----------
        method:
            Solver method hint.  The scipy backend passes it to
            :func:`scipy.optimize.linprog` (``"auto"`` picks HiGHS dual
            simplex for small programs and the interior-point method for
            large ones); the persistent HiGHS backend ignores it.
        backend:
            The :class:`~repro.lp.backends.SolverBackend` to solve with;
            ``None`` solves on a fresh one-shot scipy backend, whose
            counters nobody reads.
        warm:
            Optional :class:`~repro.lp.backends.WarmStartHint` carrying
            stable variable/row identities so a persistent backend can
            transplant the previous basis of the same series onto a freshly
            built model.  Ignored by one-shot backends.

        Raises :class:`SolverError` for unexpected solver failures (numerical
        breakdown, unboundedness, ...), but *not* for plain infeasibility,
        which is an expected outcome during the milestone binary search.
        """
        if self._n_vars == 0:
            return LPResult(status=0, feasible=True, objective=0.0, values=np.zeros(0))
        if backend is None:
            backend = make_backend(None)
        return backend.solve(self.spec(), method=method, warm=warm)
