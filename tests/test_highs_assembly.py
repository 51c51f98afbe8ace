"""The persistent HiGHS backend's array plumbing: CSC assembly and lazy bases.

* The column-wise matrix handed to HiGHS (read back from the model) must
  be exactly what ``scipy.sparse.coo_matrix(...).tocsc()`` made of the same
  ``LPSpec``: same ``start`` / ``index`` / ``value``, duplicates summed,
  empty columns kept.
* A solve keeps its basis as the bindings' ``HighsBasis`` copy and converts
  the statuses only when the series is read (the next transplant or an
  export).  The held copy must not follow later solves on the same model,
  a capture overwritten before any read is never converted, and an export
  equals the eager conversion the backend used to do at every capture.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

import repro.lp.backends.highs as highs_module
from repro.lp.backends import LPSpec, WarmStartHint, make_backend
from repro.lp.intervals import build_interval_structure
from repro.lp.maxstretch import _lp_spec, build_skeleton, warm_hint
from repro.lp.problem import problem_from_instance
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from helpers import lp_spec

def _problem_and_skeleton(seed: int = 7):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    instance = generate_instance(
        platform_spec, WorkloadSpec(density=1.5, window=30.0, max_jobs=18), rng=seed
    )
    problem = problem_from_instance(instance)
    probe = 0.5 * (problem.objective_lower_bound() + problem.objective_upper_bound())
    skeleton = build_skeleton(problem, build_interval_structure(problem, probe))
    assert skeleton is not None
    return problem, skeleton, probe


def _system1(problem, skeleton):
    return _lp_spec(
        problem,
        skeleton,
        f_range=(problem.objective_lower_bound(), problem.objective_upper_bound()),
    )


def _system2(problem, skeleton, probe):
    costs = np.linspace(1.0, 2.0, skeleton.n_variables)
    return _lp_spec(problem, skeleton, fixed_objective=probe, costs=costs)


def _duplicate_and_empty_column() -> LPSpec:
    # Column 2 has no entry at all; (row 0, column 1) appears twice, and
    # the equality row carries an entry before an inequality-row one.
    return LPSpec(
        n_vars=4,
        objective=[1.0, 1.0, 0.0, 1.0],
        lower=[0.0] * 4,
        upper=[10.0] * 4,
        ub_rows=[0, 1, 0, 1],
        ub_cols=[1, 3, 1, 0],
        ub_vals=[0.25, 2.0, 0.5, -1.0],
        ub_rhs=[4.0, 3.0],
        eq_rows=[0, 0],
        eq_cols=[3, 0],
        eq_vals=[1.0, 1.5],
        eq_rhs=[2.0],
    )


def _scipy_csc(spec: LPSpec):
    n_ub = len(spec.ub_rhs)
    rows = np.concatenate([np.asarray(spec.ub_rows), np.asarray(spec.eq_rows) + n_ub])
    cols = np.concatenate([np.asarray(spec.ub_cols), np.asarray(spec.eq_cols)])
    vals = np.concatenate(
        [np.asarray(spec.ub_vals, dtype=np.float64), np.asarray(spec.eq_vals, dtype=np.float64)]
    )
    return sparse.coo_matrix((vals, (rows, cols)), shape=(spec.n_rows, spec.n_vars)).tocsc()


class TestCSCAssembly:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every model the backend builds, read back from HiGHS, in build order."""
        backend = make_backend("highs")
        made = []
        build_model = highs_module.HighsPersistentBackend._build_model

        def recording_build(self, highs, spec):
            build_model(self, highs, spec)
            made.append(highs.getLp())

        monkeypatch.setattr(highs_module.HighsPersistentBackend, "_build_model", recording_build)
        return backend, made

    @pytest.mark.parametrize("system", [1, 2, "hand-made"])
    def test_handed_matrix_equals_scipy_tocsc(self, recorded, system):
        backend, made = recorded
        if system == "hand-made":
            spec = _duplicate_and_empty_column()
        elif system == 1:
            problem, skeleton, _probe = _problem_and_skeleton()
            spec = _system1(problem, skeleton)
        else:
            problem, skeleton, probe = _problem_and_skeleton()
            spec = _system2(problem, skeleton, probe)
        backend.solve(spec)
        (lp,) = made
        want = _scipy_csc(spec)
        start = np.asarray(lp.a_matrix_.start_)
        index = np.asarray(lp.a_matrix_.index_)
        value = np.asarray(lp.a_matrix_.value_, dtype=np.float64)
        assert np.array_equal(start, want.indptr)
        assert np.array_equal(index, want.indices)
        assert np.array_equal(value.view(np.int64), want.data.view(np.int64))  # bitwise
        if system == "hand-made":
            assert want.nnz == 5  # the duplicate was summed, not kept twice
            assert start[3] == start[2]  # the empty column


# -- lazy basis capture ----------------------------------------------------------------


def _toy_model():
    """``min x0 + x1`` s.t. ``x1 + x2 = 1`` -- x2 is basic at the optimum."""
    spec = lp_spec([1.0, 1.0, 0.0], upper=[1.0, 2.0, 2.0], a_eq=[[0.0, 1.0, 1.0]], b_eq=[1.0])
    warm = WarmStartHint(
        series="toy",
        col_ids=np.array([30, 10, 20], dtype=np.int64),
        row_ids=np.array([5], dtype=np.int64),
    )
    return spec, warm


def _eager(warm: WarmStartHint, basis):
    """What the backend used to store at every capture (``int()`` per status)."""

    def side(ids, statuses):
        values = np.fromiter(map(int, statuses), dtype=np.int8, count=len(statuses))
        order = np.argsort(ids, kind="stable")
        return ids[order], values[order]

    return (*side(warm.col_ids, basis.col_status), *side(warm.row_ids, basis.row_status))


@pytest.fixture
def conversions(monkeypatch):
    """Count the status conversions of captured bases."""
    from repro.lp.backends import highs

    calls = []
    convert = highs._CapturedBasis.convert

    def spy(self):
        calls.append(self)
        return convert(self)

    monkeypatch.setattr(highs._CapturedBasis, "convert", spy)
    return calls


class TestLazyBasis:
    def test_held_basis_ignores_later_solves_on_the_model(self):
        backend = make_backend("highs")
        spec, warm = _toy_model()
        result = backend.solve(spec, warm=warm)
        held = backend._series["toy"]
        before = _eager(warm, held.basis)
        # The live re-solve changes the costs on the same ``Highs`` object:
        # now x1 carries the equality row instead of x2.
        highs = result.model[0]
        resolved = backend.resolve_fixed(
            result.model, column=0, value=0.0, costs=np.array([0.0, 0.0, 1.0])
        )
        assert resolved.feasible
        after_model = _eager(warm, highs.getBasis())
        assert not all(np.array_equal(a, b) for a, b in zip(before, after_model))
        after_held = _eager(warm, held.basis)
        assert all(np.array_equal(a, b) for a, b in zip(before, after_held))
        backend.close()

    def test_conversions_happen_only_on_read(self, conversions):
        backend = make_backend("highs")
        spec, warm = _toy_model()
        first = backend.solve(spec, warm=warm)
        backend.resolve_fixed(first.model, column=0, value=0.0, costs=np.array([0.0, 0.0, 1.0]))
        assert conversions == []  # the first solve's capture was overwritten unread
        backend.solve(spec, warm=warm)  # transplants the re-solve's basis
        assert len(conversions) == 1
        assert backend.stats.n_basis_reused == 2  # the re-solve and the transplant
        backend._series_basis("toy")  # reads the last solve's capture
        assert len(conversions) == 2
        backend._series_basis("toy")  # already converted
        backend.solve(spec, warm=warm)  # transplants the converted basis
        assert len(conversions) == 2
        backend.close()

    def test_a_search_converts_once_per_transplant(self, conversions, monkeypatch):
        from repro.lp.backends import highs
        from repro.lp.maxstretch import MilestoneSearchReport, minimize_max_weighted_flow
        from repro.lp.relaxation import reoptimize_allocation

        pending_reads = []
        transplant = highs.HighsPersistentBackend._transplant_basis

        def counting(self, solver, spec, warm):
            if isinstance(self._series.get(warm.series), highs._CapturedBasis):
                pending_reads.append(warm.series)
            return transplant(self, solver, spec, warm)

        monkeypatch.setattr(highs.HighsPersistentBackend, "_transplant_basis", counting)
        backend = make_backend("highs")
        for seed in (3, 7):
            problem, _skeleton, _probe = _problem_and_skeleton(seed)
            report = MilestoneSearchReport()
            best = minimize_max_weighted_flow(problem, backend=backend, report=report)
            reoptimize_allocation(problem, best.objective, backend=backend, live=report.live)
        stats = backend.stats
        assert stats.n_live_reoptimizations == 2  # System (2) on each winning probe
        assert len(conversions) == len(pending_reads) > 0
        # Every solve captured a basis.  Each live re-solve replaced its
        # winning probe's capture unread, and the last capture is never
        # read: only the other captures were converted.
        assert stats.n_probes == len(conversions) + stats.n_live_reoptimizations + 1
        backend.close()

    def test_lazy_conversion_equals_the_eager_one(self):
        problem, skeleton, _probe = _problem_and_skeleton()
        backend = make_backend("highs")
        warm = warm_hint(skeleton, with_objective_var=True)
        backend.solve(_system1(problem, skeleton), warm=warm)
        eager = _eager(warm, backend._series[warm.series].basis)
        basis = backend._series_basis(warm.series)
        converted = (basis.col_ids, basis.col_status, basis.row_ids, basis.row_status)
        for got, want in zip(converted, eager):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        backend.close()
