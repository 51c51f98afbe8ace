"""Tests for the certificate-guided parametric milestone search.

Three families of guarantees:

* **Soundness of the parametric bound** -- within its own milestone
  interval's structure a dual-ray bound is exact: it refutes the whole
  probed range (``bound >= f_high``).  Beyond that interval the structure is
  stale and the bound may overshoot the optimum, which is why the search
  treats bounds as probe-order hints only; the *search* never excludes a
  feasible milestone -- acceptance always requires the interior-optimum
  proof or a solved infeasible probe directly below (the equivalence tests
  below pin that down, including a regression instance whose rays overshoot
  ``F*`` by ~25%).
* **Result equivalence** -- the certificate search returns the same
  :math:`S^*` and allocations as the legacy gallop (the oracle
  :func:`replan_oracles.search_gallop`, swapped in for the production
  search), across seeds, backends and whole replan sequences (bit-identical
  on the stateless scipy backend, within solver tolerance on persistent
  HiGHS).
* **Graceful degradation** -- backends without dual-ray support (scipy) run
  the same search without certificates: no bounds, no skips from jumps, and
  still-correct results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.lp.maxstretch as maxstretch
from repro.lp.backends import highs_available, make_backend, record_lp_probes
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import (
    MilestoneSearchReport,
    ProbeOutcome,
    SearchCertificate,
    minimize_max_weighted_flow,
    solve_on_objective_range,
)
from repro.lp.problem import problem_from_instance
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from replan_oracles import search_gallop

requires_highs = pytest.mark.skipif(
    not highs_available(),
    reason="neither highspy nor scipy-vendored HiGHS bindings are available",
)

SEEDS = [0, 7, 11, 2006]


def _problem(seed: int, *, max_jobs: int = 18, density: float = 1.5):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=density, window=30.0, max_jobs=max_jobs)
    instance = generate_instance(platform_spec, workload_spec, rng=seed)
    return instance, problem_from_instance(instance)


def _patch_gallop(monkeypatch) -> list[int]:
    """Swap the gallop oracle in for the certificate search.

    Returns the list every oracle call appends its start index to, so a test
    can assert the oracle really ran.  ``monkeypatch.context()`` scopes the
    swap; the patch is module-global while it lasts.
    """
    calls: list[int] = []

    def counted(problem, boundaries, start_idx, **kwargs):
        calls.append(start_idx)
        return search_gallop(problem, boundaries, start_idx, **kwargs)

    monkeypatch.setattr(maxstretch, "_search_certificate", counted)
    return calls


def _gallop(monkeypatch, problem, **kwargs):
    """``minimize_max_weighted_flow`` through the gallop oracle."""
    with monkeypatch.context() as patch:
        calls = _patch_gallop(patch)
        solution = minimize_max_weighted_flow(problem, **kwargs)
    assert calls, "the gallop oracle did not run"
    return solution


# -- soundness of the parametric bound ----------------------------------------------


def _milestone_boundaries(problem):
    from repro.lp.milestones import enumerate_milestones

    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    return [f_lb] + enumerate_milestones(problem, lower=f_lb, upper=f_ub) + [f_ub]


@requires_highs
@pytest.mark.parametrize("seed", SEEDS)
class TestDualRayBoundSoundness:
    def test_bound_refutes_its_own_milestone_interval(self, seed):
        """Property: within the probed milestone interval the bound is exact.

        The certificate's affine combination ``g(F) = A + B F`` must be
        negative on the *whole* probed interval (that structure is valid
        there), i.e. the bound -- the zero crossing of ``g`` -- lies at or
        above the interval's upper end.  This is the guarantee the search's
        upward jump relies on; never excluding a feasible milestone is then
        enforced structurally (see the equivalence tests).
        """
        _instance, problem = _problem(seed)
        best = minimize_max_weighted_flow(problem)
        boundaries = _milestone_boundaries(problem)
        # Probe infeasible milestone intervals below the optimum, as the
        # search does (one structure per interval).
        import bisect

        first_feasible = bisect.bisect_right(boundaries, best.objective * (1 - 1e-9)) - 1
        probed = 0
        backend = make_backend("highs")
        try:
            for i in range(0, max(1, first_feasible), max(1, first_feasible // 5)):
                outcome = ProbeOutcome()
                result = solve_on_objective_range(
                    problem,
                    boundaries[i],
                    boundaries[i + 1],
                    backend=backend,
                    outcome=outcome,
                )
                if result is not None:
                    continue
                probed += 1
                if outcome.certificate_bound is None:
                    continue  # F-insensitive ray: rejected by the guard
                assert outcome.certificate_bound >= boundaries[i + 1] * (1 - 1e-9), (
                    f"bound {outcome.certificate_bound} fails to refute its own "
                    f"probed interval [{boundaries[i]}, {boundaries[i + 1]}]"
                )
        finally:
            backend.close()
        assert probed > 0, "no infeasible milestone interval below the optimum"

    def test_reevaluated_bound_matches_affine_form(self, seed):
        """``bound_for`` reproduces ``-A/B`` from the carried components."""
        _instance, problem = _problem(seed)
        boundaries = _milestone_boundaries(problem)
        backend = make_backend("highs")
        outcome = ProbeOutcome()
        try:
            result = solve_on_objective_range(
                problem, boundaries[0], boundaries[1], backend=backend, outcome=outcome
            )
        finally:
            backend.close()
        if result is not None or outcome.certificate is None:
            pytest.skip("first milestone interval produced no certificate")
        certificate = outcome.certificate
        works = {job.job_id: job.remaining_work for job in problem.jobs}
        assert certificate.bound_for(works) == pytest.approx(
            outcome.certificate_bound, rel=1e-12
        )


# -- certificate-vs-gallop equality ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
class TestSearchEquivalence:
    def test_scipy_results_bit_identical(self, seed, monkeypatch):
        _instance, problem = _problem(seed)
        gallop = _gallop(monkeypatch, problem)
        certificate = minimize_max_weighted_flow(problem)
        assert certificate.objective == gallop.objective
        assert certificate.allocations == gallop.allocations

    @requires_highs
    def test_highs_results_within_solver_tolerance(self, seed, monkeypatch):
        _instance, problem = _problem(seed)
        backend_g = make_backend("highs")
        backend_c = make_backend("highs")
        try:
            gallop = _gallop(monkeypatch, problem, backend=backend_g)
            certificate = minimize_max_weighted_flow(problem, backend=backend_c)
        finally:
            backend_g.close()
            backend_c.close()
        assert certificate.objective == pytest.approx(gallop.objective, rel=1e-9)
        for job in problem.jobs:
            assert certificate.work_for_job(job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )

    def test_warm_started_searches_agree(self, seed, monkeypatch):
        """Warm starts (any index) only reorder probes, never change results."""
        _instance, problem = _problem(seed)
        reference = _gallop(monkeypatch, problem)
        for warm in (None, 1.0, reference.objective, 10.0 * reference.objective):
            warmed = minimize_max_weighted_flow(problem, warm_start=warm)
            assert warmed.objective == reference.objective


@requires_highs
def test_overshooting_certificates_regression(monkeypatch):
    """Rays whose bounds overshoot F* must not mislead the search.

    Regression instance (from the campaign A/B gate): the dual rays of the
    low-availability 2-cluster workload produce bounds ~25% above the true
    optimum; an earlier draft of the downward phase let such a bound advance
    the sound floor and accepted S* = 12.23 instead of 10.17.  Acceptance
    must come from solved probes (or the interior proof) only.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.utils.seeding import derive_seed

    config = ExperimentConfig(
        name="bench-low",
        n_clusters=2,
        n_databanks=2,
        availability=0.6,
        density=1.0,
        processors_per_cluster=5,
        window=60.0,
        max_jobs=30,
    )
    seed = derive_seed(2006, "bench-low", 3)
    instance = generate_instance(config.platform_spec(), config.workload_spec(), rng=seed)
    problem = problem_from_instance(instance)
    reference = _gallop(monkeypatch, problem)
    backend = make_backend("highs")
    try:
        certified = minimize_max_weighted_flow(problem, backend=backend)
    finally:
        backend.close()
    assert certified.objective == pytest.approx(reference.objective, rel=1e-9)


@pytest.mark.parametrize("backend_name", ["scipy", pytest.param("highs", marks=requires_highs)])
def test_replan_sequence_equivalence(backend_name, monkeypatch):
    """Certificate-guided contexts track gallop contexts over whole replan runs.

    The gallop swap is module-global, so the two contexts run one after the
    other over the same replan sequence.
    """
    instance, _problem_unused = _problem(5, max_jobs=20, density=2.0)

    def replan_sequence(context):
        remaining = {job.job_id: job.size for job in instance.jobs}
        objectives = []
        try:
            for now in (0.0, 4.0, 9.0):
                problem = context.build_problem(now, dict(remaining))
                objectives.append(context.solve_max_stretch(problem).objective)
                remaining = {j: 0.6 * r for j, r in remaining.items()}
        finally:
            context.close()
        return objectives

    ctx_gallop = ReplanContext(instance, solver_backend=backend_name)
    with monkeypatch.context() as patch:
        calls = _patch_gallop(patch)
        gallop_objectives = replan_sequence(ctx_gallop)
    assert len(calls) == 3, "the gallop oracle did not run every replan"
    ctx_cert = ReplanContext(instance, solver_backend=backend_name)
    cert_objectives = replan_sequence(ctx_cert)
    assert cert_objectives == pytest.approx(gallop_objectives, rel=1e-9)
    # The certificate context never solves more probes than the gallop one.
    assert ctx_cert.n_probes_solved <= ctx_gallop.n_probes_solved


# -- graceful no-certificate fallback -------------------------------------------------


class TestScipyFallback:
    def test_no_certificate_on_scipy(self):
        _instance, problem = _problem(3)
        best = minimize_max_weighted_flow(problem)
        lo = problem.objective_lower_bound()
        target = lo + 0.5 * (best.objective - lo)
        if target <= lo:
            pytest.skip("degenerate instance: optimum equals the lower bound")
        outcome = ProbeOutcome()
        probe = solve_on_objective_range(problem, lo, target, outcome=outcome)
        assert probe is None
        assert outcome.certificate is None
        assert outcome.certificate_bound is None

    def test_search_report_has_no_certificate_carry(self):
        _instance, problem = _problem(3)
        report = MilestoneSearchReport()
        minimize_max_weighted_flow(problem, report=report)
        assert report.certificate is None
        assert report.n_solved > 0

    def test_interior_exit_still_prunes_on_scipy(self, monkeypatch):
        """The interior-optimum re-check needs no certificate support."""
        _instance, problem = _problem(7)
        reference = _gallop(monkeypatch, problem)
        report = MilestoneSearchReport()
        warmed = minimize_max_weighted_flow(
            problem,
            warm_start=reference.objective,
            report=report,
        )
        assert warmed.objective == reference.objective
        if report.interior_exit:
            assert report.n_solved == 1  # the winning probe proved itself optimal


# -- cross-replan certificate carry ---------------------------------------------------


class TestSearchCertificateCarry:
    def test_bound_for_drops_missing_jobs(self):
        certificate = SearchCertificate(
            capacity_const=-10.0, capacity_coef=2.0, v_by_job={1: 1.0, 2: 3.0}
        )
        full = certificate.bound_for({1: 2.0, 2: 1.0})
        assert full == pytest.approx(-(-10.0 + 2.0 + 3.0) / 2.0)
        partial = certificate.bound_for({1: 2.0})
        assert partial == pytest.approx(-(-10.0 + 2.0) / 2.0)

    def test_bound_for_degenerate_coefficient(self):
        certificate = SearchCertificate(
            capacity_const=-10.0, capacity_coef=0.0, v_by_job={}
        )
        assert certificate.bound_for({}) is None

    @requires_highs
    def test_context_carries_certificates_across_replans(self):
        instance, _problem_unused = _problem(5, max_jobs=20, density=2.0)
        context = ReplanContext(instance, solver_backend="highs")
        remaining = {job.job_id: job.size for job in instance.jobs}
        try:
            context.solve_max_stretch(context.build_problem(0.0, remaining))
            carried = context.last_certificate
            if carried is not None:
                # The next replan's warm hint folds the re-evaluated bound in.
                problem = context.build_problem(1.0, remaining)
                hint = context._warm_hint(problem)
                assert hint is not None
                assert hint >= context.last_objective - 1e-12
            second = context.solve_max_stretch(context.build_problem(1.0, remaining))
            reference = minimize_max_weighted_flow(problem_from_instance(instance, now=1.0))
            assert second.objective == pytest.approx(reference.objective, rel=1e-8)
        finally:
            context.close()


# -- probe accounting -----------------------------------------------------------------


class TestProbeHistogram:
    def test_record_lp_probes_collects_searches(self):
        _instance, problem = _problem(0)
        with record_lp_probes() as stats:
            minimize_max_weighted_flow(problem)
        assert len(stats.searches) == 1
        solved, skipped = stats.searches[0]
        assert solved >= 1
        assert stats.n_certificate_skipped == skipped
        histogram = stats.histogram()
        assert histogram["solved"] == stats.n_probes
        assert set(histogram) == {
            "solved",
            "certificate_skipped",
            "basis_reused",
            "interior_exits",
            "bank_hits",
            "bank_misses",
            "primal_reuses",
        }
        # The new per-phase timing split is live alongside the counters.
        assert stats.assembly_seconds > 0.0
        assert stats.search_seconds >= stats.assembly_seconds

    @requires_highs
    def test_certificate_search_solves_fewer_lps(self, monkeypatch):
        _instance, problem = _problem(7, max_jobs=24, density=2.0)
        counts = {}
        for mode in ("gallop", "certificate"):
            backend = make_backend("highs")
            try:
                with record_lp_probes() as stats:
                    if mode == "gallop":
                        _gallop(monkeypatch, problem, backend=backend)
                    else:
                        minimize_max_weighted_flow(problem, backend=backend)
            finally:
                backend.close()
            counts[mode] = stats.n_probes
        assert counts["certificate"] < counts["gallop"]

    @requires_highs
    def test_basis_reuse_counted(self):
        _instance, problem = _problem(7, max_jobs=20, density=2.0)
        backend = make_backend("highs")
        try:
            with record_lp_probes() as stats:
                minimize_max_weighted_flow(problem, backend=backend)
        finally:
            backend.close()
        assert stats.n_basis_reused >= 1

    def test_simulation_result_carries_probe_stats(self):
        from repro.schedulers.registry import make_scheduler
        from repro.simulation.engine import simulate

        instance, _problem_unused = _problem(1, max_jobs=8)
        result = simulate(instance, make_scheduler("online"))
        assert result.lp_probes.n_probes > 0
        result_lp_free = simulate(instance, make_scheduler("swrpt"))
        assert result_lp_free.lp_probes.n_probes == 0


# -- dual-ray sanity against raw numpy ------------------------------------------------


@requires_highs
def test_dual_ray_sign_convention():
    """The normalized ray certifies min-over-box LHS > RHS on the raw arrays."""
    from scipy import sparse

    from repro.lp.solver import LinearProgramBuilder

    builder = LinearProgramBuilder()
    x = builder.add_variable(upper=1.0)
    y = builder.add_variable(upper=1.0)
    builder.add_eq([(x, 1.0), (y, 1.0)], 5.0)  # infeasible: x + y <= 2 < 5
    backend = make_backend("highs")
    try:
        result = builder.solve(backend=backend, warm=None)
    finally:
        backend.close()
    assert not result.feasible
    if result.dual_ray is None:
        pytest.skip("bindings produced no dual ray for this solve")
    spec = builder.spec()
    ray = result.dual_ray
    matrix = sparse.coo_matrix(
        (list(spec.eq_vals), (list(spec.eq_rows), list(spec.eq_cols))),
        shape=(len(spec.eq_rhs), spec.n_vars),
    ).toarray()
    reduced = ray @ matrix
    rhs = float(ray @ np.asarray(spec.eq_rhs))
    lower = reduced * np.asarray(spec.lower)
    upper = reduced * np.asarray(spec.upper)
    box_min = float(np.where(reduced > 0, lower, upper).sum())
    assert box_min > rhs  # the aggregated constraint is violated over the box
