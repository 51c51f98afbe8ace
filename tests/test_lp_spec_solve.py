"""Unit tests for the one LP solve call, ``backend.solve(spec)``.

Every program of the package is an :class:`~repro.lp.backends.LPSpec` handed
to :meth:`SolverBackend.solve`; ``make_backend(None)`` (a fresh persistent
HiGHS backend) is the default.  The small textbook programs live in
``test_lp_backends.py::TestSpecWithBackend``; this module covers the rest of
the contract: the method choice and retry of the tests' ``linprog``
reference (``tests/scipy_backend.py``) against the real ``linprog``, the
array forms a spec may take, and the accounting of every call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SolverError
from repro.lp.backends import LPSpec

import scipy_backend as scipy_backend_mod
from helpers import lp_spec
from scipy_backend import ScipyBackend
from test_lp_backends import BACKENDS, backend_of


def spy_linprog(monkeypatch, *, limited_calls: int = 0) -> list[str]:
    """Record the method of every ``linprog`` call (the calls still solve).

    The first ``limited_calls`` results are reported as scipy status 1
    (iteration limit).
    """
    real_linprog = scipy_backend_mod.linprog
    methods: list[str] = []

    def spy(c, **kwargs):
        methods.append(kwargs.get("method"))
        result = real_linprog(c, **kwargs)
        if len(methods) <= limited_calls:
            result.status = 1
            result.message = "iteration limit reached (simulated)"
        return result

    monkeypatch.setattr(scipy_backend_mod, "linprog", spy)
    return methods


class TestScipyReferenceSolve:
    def test_iteration_limit_retried_with_ipm(self, monkeypatch):
        """scipy status 1 (iteration limit) retries once with highs-ipm."""
        methods = spy_linprog(monkeypatch, limited_calls=1)
        result = ScipyBackend().solve(lp_spec([1.0], lower=[2.0]))
        assert result.feasible
        assert result.value(0) == pytest.approx(2.0, abs=1e-6)
        assert methods == ["highs", "highs-ipm"]

    def test_iteration_limit_twice_raises(self, monkeypatch):
        methods = spy_linprog(monkeypatch, limited_calls=2)
        with pytest.raises(SolverError, match="status 1") as info:
            ScipyBackend().solve(lp_spec([1.0], lower=[2.0]))
        assert methods == ["highs", "highs-ipm"]
        assert info.value.attempts == 2
        assert info.value.method == "highs-ipm"

    @pytest.mark.parametrize(("n_vars", "method"), [(8000, "highs"), (8001, "highs-ipm")])
    def test_method_chosen_by_size(self, monkeypatch, n_vars, method):
        methods = spy_linprog(monkeypatch)
        result = ScipyBackend().solve(lp_spec([1.0] * n_vars, lower=[1.0] * n_vars))
        assert result.feasible
        assert result.objective == pytest.approx(float(n_vars))
        assert methods == [method]

    def test_infeasible_result_is_shaped_like_the_spec(self):
        spec = lp_spec([1.0, 1.0], upper=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[5.0])
        result = ScipyBackend().solve(spec)
        assert result.status == 2 and not result.feasible
        assert np.array_equal(result.values, np.zeros(2))
        assert result.dual_ray is None  # linprog exposes no Farkas certificate


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSpecForms:
    def test_numpy_and_list_triplets_give_the_same_program(self, backend_name):
        """Shuffled numpy triplets (as the skeleton passes them) equal plain lists."""
        lists = lp_spec(
            [1.0, 2.0, 0.5],
            a_ub=[[1.0, 1.0, 0.0], [0.0, 2.0, -1.0]],
            b_ub=[3.0, 1.0],
            a_eq=[[1.0, 0.0, 1.0]],
            b_eq=[2.0],
        )
        order = np.array([3, 0, 2, 1])
        arrays = LPSpec(
            n_vars=3,
            objective=lists.objective,
            lower=lists.lower,
            upper=lists.upper,
            ub_rows=np.asarray(lists.ub_rows, dtype=np.int64)[order],
            ub_cols=np.asarray(lists.ub_cols, dtype=np.int64)[order],
            ub_vals=np.asarray(lists.ub_vals)[order],
            ub_rhs=np.asarray(lists.ub_rhs),
            eq_rows=np.asarray(lists.eq_rows, dtype=np.int64)[::-1],
            eq_cols=np.asarray(lists.eq_cols, dtype=np.int64)[::-1],
            eq_vals=np.asarray(lists.eq_vals)[::-1],
            eq_rhs=np.asarray(lists.eq_rhs),
        )
        want = backend_of(backend_name).solve(lists)
        got = backend_of(backend_name).solve(arrays)
        assert want.feasible and got.feasible
        assert got.objective == pytest.approx(want.objective)
        assert np.allclose(got.values, want.values)

    def test_failed_solve_is_still_counted(self, backend_name):
        backend = backend_of(backend_name)
        with pytest.raises(SolverError):
            backend.solve(lp_spec([-1.0]))  # unbounded
        backend.solve(lp_spec([1.0], lower=[2.0]))
        assert backend.stats.n_probes == 2
        assert backend.stats.by_backend == {backend.name: 2}
        assert backend.stats.solve_seconds > 0.0
