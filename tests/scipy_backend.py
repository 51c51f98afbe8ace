"""One-shot :func:`scipy.optimize.linprog` backend: the tests' reference solver.

Every solve converts the spec's COO triplets to CSR and hands the whole
program to scipy, which re-presolves and re-factorizes from scratch.  It
has no persistent state, so its answers are a function of the LP alone:
the LP goldens of ``tests/test_engine_golden.py`` and the bit-identity
properties (context vs from-scratch oracle, certificate vs gallop search)
run on it, a fresh instance per run, passed as ``solver_backend=``.
``linprog(method="highs")`` is the same HiGHS library the package runs,
so agreement with it is no second-solver check; ``tests/certify.py`` is.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.errors import SolverError
from repro.lp.backends.base import LPResult, LPSpec, SolverBackend, WarmStartHint

__all__ = ["ScipyBackend"]


class ScipyBackend(SolverBackend):
    """Stateless backend delegating to :func:`scipy.optimize.linprog`.

    It picks HiGHS dual simplex (``highs``) for small programs and the
    HiGHS interior-point method (``highs-ipm``) above 8000 variables
    (empirically ~2x faster on the transportation-like LPs produced by
    System (1) on big platforms).

    scipy status 1 (iteration limit) and 4 (numerical difficulties) are
    retried once with the other HiGHS method: ``highs-ipm`` after dual
    simplex, ``highs-ds`` after anything else.  The two algorithms fail on
    different programs, so the second attempt clears the rare degenerate or
    badly scaled LP that trips the first.  A second failure raises
    :class:`SolverError` with ``attempts=2``.

    :func:`scipy.optimize.linprog` does not expose Farkas certificates, so
    infeasible results carry ``dual_ray=None`` and the certificate-guided
    milestone search degrades gracefully to its uncertified probe order
    (identical results, more LP solves).
    """

    name = "scipy"
    persistent = False

    def _solve(self, spec: LPSpec, *, warm: WarmStartHint | None = None) -> LPResult:
        del warm  # one-shot backend: nothing to reuse
        method = "highs-ipm" if spec.n_vars > 8000 else "highs"
        c = np.asarray(spec.objective)
        bounds = list(zip(spec.lower, spec.upper))
        a_ub = b_ub = a_eq = b_eq = None
        # Length checks, not truthiness: the RHS may be a numpy array
        # (kernel-assembled rows), where truthiness is ambiguous.
        if len(spec.ub_rhs):
            a_ub = sparse.coo_matrix(
                (spec.ub_vals, (spec.ub_rows, spec.ub_cols)),
                shape=(len(spec.ub_rhs), spec.n_vars),
            ).tocsr()
            b_ub = np.asarray(spec.ub_rhs)
        if len(spec.eq_rhs):
            a_eq = sparse.coo_matrix(
                (spec.eq_vals, (spec.eq_rows, spec.eq_cols)),
                shape=(len(spec.eq_rhs), spec.n_vars),
            ).tocsr()
            b_eq = np.asarray(spec.eq_rhs)

        def run(chosen_method: str):
            start = time.perf_counter()
            try:
                return linprog(
                    c,
                    A_ub=a_ub,
                    b_ub=b_ub,
                    A_eq=a_eq,
                    b_eq=b_eq,
                    bounds=bounds,
                    method=chosen_method,
                )
            finally:
                self.stats.run_seconds += time.perf_counter() - start

        # scipy status codes: 0 success, 1 iteration limit, 2 infeasible,
        # 3 unbounded, 4 numerical difficulties.  1 and 4 get one retry with
        # the other method; 2 is a certified answer, not a failure.
        result = run(method)
        attempts = 1
        if result.status in (1, 4):
            method = "highs-ipm" if method == "highs" else "highs-ds"
            result = run(method)
            attempts = 2
        if result.status == 2:
            return self.infeasible_result(spec, result.message)
        if result.status != 0:
            raise SolverError(
                f"LP solver failed (status {result.status}): {result.message}",
                backend=self.name,
                method=method,
                status=int(result.status),
                attempts=attempts,
            )
        return LPResult(
            status=0,
            feasible=True,
            objective=float(result.fun),
            values=np.asarray(result.x),
            message=result.message,
        )
