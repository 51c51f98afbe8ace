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
  HiGHS); a hypothesis property pins that any warm start returns the cold
  search's answer bit for bit on scipy.
* **Graceful degradation** -- backends without dual-ray support (scipy) run
  the same search without certificates: no bounds, no skips from jumps, and
  still-correct results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lp.maxstretch as maxstretch
from repro.lp.backends import WarmStartHint, make_backend
from repro.lp.incremental import ReplanContext
from repro.lp.intervals import build_interval_structure
from repro.lp.maxstretch import (
    ProbeOutcome,
    _lp_spec,
    _probe_certificate,
    build_skeleton,
    minimize_max_weighted_flow,
    solve_on_objective_range,
)
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import LPJob, MaxStretchProblem, Resource, problem_from_instance
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from certify import certify
from helpers import assert_same_shares, work_for_job
from replan_oracles import search_gallop
from scipy_backend import ScipyBackend
from test_lp_backends import backend_of

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
    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    return [f_lb] + enumerate_milestones(problem, lower=f_lb, upper=f_ub) + [f_ub]


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

    def test_reevaluated_bound_matches_affine_form(self, seed, monkeypatch):
        """A real HiGHS ray's bound is ``-(A + v . b) / B``, re-evaluated per row."""
        _instance, problem = _problem(seed)
        boundaries = _milestone_boundaries(problem)
        rays = []

        def recording(problem, skeleton, dual_ray, outcome):
            rays.append((skeleton, np.array(dual_ray)))
            _probe_certificate(problem, skeleton, dual_ray, outcome)

        monkeypatch.setattr(maxstretch, "_probe_certificate", recording)
        backend = make_backend("highs")
        outcome = ProbeOutcome()
        try:
            result = solve_on_objective_range(
                problem, boundaries[0], boundaries[1], backend=backend, outcome=outcome
            )
        finally:
            backend.close()
        if result is not None or outcome.certificate_bound is None:
            pytest.skip("first milestone interval produced no certificate")
        [(skeleton, ray)] = rays
        n_cap = skeleton.cap_c.size
        speeds = problem.resource_speeds()[skeleton.cap_c]
        a = sum(
            float(u) * float(c)
            for u, c in zip(ray[:n_cap], speeds * skeleton.cap_len_const)
        )
        b = sum(
            float(u) * float(c)
            for u, c in zip(ray[:n_cap], speeds * skeleton.cap_len_coef)
        )
        # The release and chain rows' right-hand sides, as the LP got them.
        spec = _lp_spec(problem, skeleton, f_range=(boundaries[0], boundaries[1]))
        rhs = list(spec.ub_rhs[n_cap:]) + list(spec.eq_rhs)
        assert len(rhs) == ray.size - n_cap
        load = sum(float(v) * float(b) for v, b in zip(ray[n_cap:], rhs))
        assert outcome.certificate_bound == pytest.approx(-(a + load) / b, rel=1e-9)


def _skeleton_at_lower_bound():
    """A two-job problem and its skeleton at the objective lower bound."""
    resources = (Resource(0, speed=1.0, machine_ids=(0,)),)
    problem = MaxStretchProblem(
        resources=resources,
        jobs=(
            LPJob(0, earliest_start=0.0, remaining_work=2.0, release=0.0,
                  flow_factor=1.0, resources=(0,)),
            LPJob(1, earliest_start=0.0, remaining_work=3.0, release=0.0,
                  flow_factor=1.0, resources=(0,)),
        ),
    )
    structure = build_interval_structure(problem, problem.objective_lower_bound())
    return problem, build_skeleton(problem, structure)


class TestProbeCertificate:
    """``_probe_certificate`` turns a ray into ``-(A + v . b) / B`` or nothing."""

    def test_bound_is_the_zero_of_the_affine_combination(self):
        problem, skeleton = _skeleton_at_lower_bound()
        n_cap = skeleton.cap_c.size
        ray = np.concatenate([np.ones(n_cap), [-1.0, -1.0]])
        outcome = ProbeOutcome()
        _probe_certificate(problem, skeleton, ray, outcome)
        speeds = problem.resource_speeds()[skeleton.cap_c]
        a = float(np.sum(speeds * skeleton.cap_len_const))
        b = float(np.sum(speeds * skeleton.cap_len_coef))
        assert b > 0
        assert outcome.certificate_bound == pytest.approx(-(a - 2.0 - 3.0) / b, rel=1e-12)

    def test_degenerate_coefficient_discards_the_ray(self):
        problem, skeleton = _skeleton_at_lower_bound()
        n_cap = skeleton.cap_c.size
        # No capacity multiplier: the F coefficient B is zero.
        outcome = ProbeOutcome()
        no_capacity = np.concatenate([np.zeros(n_cap), [-1.0, -1.0]])
        _probe_certificate(problem, skeleton, no_capacity, outcome)
        assert outcome.certificate_bound is None
        # A B below the threshold is discarded as well.
        tiny = np.concatenate([np.full(n_cap, 1e-15), [-1.0, -1.0]])
        _probe_certificate(problem, skeleton, tiny, outcome)
        assert outcome.certificate_bound is None

    def test_non_finite_bound_and_foreign_ray_are_discarded(self):
        problem, skeleton = _skeleton_at_lower_bound()
        n_cap = skeleton.cap_c.size
        outcome = ProbeOutcome()
        infinite = np.concatenate([np.ones(n_cap), [np.inf, 0.0]])
        _probe_certificate(problem, skeleton, infinite, outcome)
        assert outcome.certificate_bound is None
        _probe_certificate(problem, skeleton, np.ones(n_cap + 3), outcome)
        assert outcome.certificate_bound is None


# -- certificate-vs-gallop equality ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
class TestSearchEquivalence:
    def test_scipy_results_bit_identical(self, seed, monkeypatch):
        _instance, problem = _problem(seed)
        gallop = _gallop(monkeypatch, problem, backend=ScipyBackend())
        certificate = minimize_max_weighted_flow(problem, backend=ScipyBackend())
        assert certificate.objective == gallop.objective
        assert_same_shares(certificate, gallop)

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
            assert work_for_job(certificate, job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )

    def test_warm_started_searches_agree(self, seed, monkeypatch):
        """Warm starts (any index) only reorder probes, never change results."""
        _instance, problem = _problem(seed)
        reference = _gallop(monkeypatch, problem, backend=ScipyBackend())
        for warm in (None, 1.0, reference.objective, 10.0 * reference.objective):
            warmed = minimize_max_weighted_flow(
                problem, warm_start=warm, backend=ScipyBackend()
            )
            assert warmed.objective == reference.objective


@st.composite
def warm_started_problems(draw):
    """A small problem and a warm start anywhere relative to its milestones.

    1-3 resources, at most 12 jobs; the warm start is ``None``, below the
    lower bound, on a milestone, inside a milestone interval, or above the
    upper bound.
    """
    n_res = draw(st.integers(1, 3))
    resources = tuple(
        Resource(c, speed=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])), machine_ids=(c,))
        for c in range(n_res)
    )
    jobs = []
    for job_id in range(draw(st.integers(1, 12))):
        release = draw(st.floats(0.0, 10.0))
        eligible = draw(st.permutations(range(n_res)))[: draw(st.integers(1, n_res))]
        jobs.append(
            LPJob(
                job_id,
                earliest_start=release + draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
                remaining_work=draw(st.floats(0.1, 10.0)),
                release=release,
                flow_factor=draw(st.floats(0.2, 5.0)),
                resources=tuple(eligible),
            )
        )
    problem = MaxStretchProblem(resources=resources, jobs=tuple(jobs))
    boundaries = _milestone_boundaries(problem)
    f_lb, f_ub = boundaries[0], boundaries[-1]
    kind = draw(st.sampled_from(["none", "below", "milestone", "inside", "above"]))
    i = draw(st.integers(0, len(boundaries) - 2))
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    warm = {
        "none": None,
        "below": f_lb * fraction,
        "milestone": boundaries[i],
        "inside": boundaries[i] + fraction * (boundaries[i + 1] - boundaries[i]),
        "above": f_ub * (1.0 + fraction) + 1.0,
    }[kind]
    return problem, warm


@settings(max_examples=60, deadline=None)
@given(warm_started_problems())
def test_warm_start_never_changes_the_answer(case):
    """Property: on scipy a warm-started search is bit-identical to a cold one.

    And the answer is a certified optimum (``certify``: no second solver).
    """
    problem, warm = case
    cold = minimize_max_weighted_flow(problem, backend=ScipyBackend())
    warmed = minimize_max_weighted_flow(problem, warm_start=warm, backend=ScipyBackend())
    assert warmed.objective == cold.objective
    assert_same_shares(warmed, cold)
    certify(problem, cold)


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
    reference = _gallop(monkeypatch, problem, backend=ScipyBackend())
    backend = make_backend("highs")
    try:
        certified = minimize_max_weighted_flow(problem, backend=backend)
    finally:
        backend.close()
    assert certified.objective == pytest.approx(reference.objective, rel=1e-9)


@pytest.mark.parametrize("backend_name", ["scipy", "highs"])
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

    ctx_gallop = ReplanContext(instance, solver_backend=backend_of(backend_name))
    gallop_stats = ctx_gallop.backend.stats  # closing the context starts new ones
    with monkeypatch.context() as patch:
        calls = _patch_gallop(patch)
        gallop_objectives = replan_sequence(ctx_gallop)
    assert len(calls) == 3, "the gallop oracle did not run every replan"
    ctx_cert = ReplanContext(instance, solver_backend=backend_of(backend_name))
    cert_stats = ctx_cert.backend.stats
    cert_objectives = replan_sequence(ctx_cert)
    assert cert_objectives == pytest.approx(gallop_objectives, rel=1e-9)
    # The certificate context never solves more probes than the gallop one.
    def probes_solved(stats):
        return stats.n_search_probes

    assert probes_solved(cert_stats) <= probes_solved(gallop_stats)


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
        probe = solve_on_objective_range(
            problem, lo, target, outcome=outcome, backend=ScipyBackend()
        )
        assert probe is None
        assert outcome.certificate_bound is None

    def test_interior_exit_still_prunes_on_scipy(self, monkeypatch):
        """The interior-optimum re-check needs no certificate support."""
        _instance, problem = _problem(7)
        reference = _gallop(monkeypatch, problem, backend=ScipyBackend())
        backend = ScipyBackend()
        warmed = minimize_max_weighted_flow(
            problem,
            warm_start=reference.objective,
            backend=backend,
        )
        assert warmed.objective == reference.objective
        stats = backend.stats
        if stats.n_interior_exits:
            # The winning probe proved itself optimal.
            assert [solved for solved, _skipped in stats.searches] == [1]


# -- probe accounting -----------------------------------------------------------------


class TestProbeHistogram:
    def test_backend_stats_collect_searches(self):
        _instance, problem = _problem(0)
        backend = make_backend(None)
        minimize_max_weighted_flow(problem, backend=backend)
        stats = backend.stats
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
            "live_reoptimizations",
            "interior_exits",
            "downgrades",
            "bank_hits",
            "bank_misses",
            "primal_reuses",
        }
        # The new per-phase timing split is live alongside the counters.
        assert stats.assembly_seconds > 0.0
        assert stats.search_seconds >= stats.assembly_seconds

    def test_certificate_search_solves_fewer_lps(self, monkeypatch):
        _instance, problem = _problem(7, max_jobs=24, density=2.0)
        counts = {}
        for mode in ("gallop", "certificate"):
            backend = make_backend("highs")
            try:
                if mode == "gallop":
                    _gallop(monkeypatch, problem, backend=backend)
                else:
                    minimize_max_weighted_flow(problem, backend=backend)
                counts[mode] = backend.stats.n_probes
            finally:
                backend.close()
        assert counts["certificate"] < counts["gallop"]

    def test_basis_reuse_counted(self):
        _instance, problem = _problem(7, max_jobs=20, density=2.0)
        backend = make_backend("highs")
        try:
            minimize_max_weighted_flow(problem, backend=backend)
            stats = backend.stats
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


def test_dual_ray_sign_convention():
    """The normalized ray certifies min-over-box LHS > RHS on the raw arrays.

    A cold solve runs HiGHS's presolve, which proves this toy infeasible
    without a ray; a hinted solve runs with presolve off, as every milestone
    probe does, so simplex proves it and a ray must come back.
    """
    from scipy import sparse

    from helpers import lp_spec

    # infeasible: x + y <= 2 < 5
    spec = lp_spec([0.0, 0.0], upper=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[5.0])
    hint = WarmStartHint(
        series="toy", col_ids=np.arange(2, dtype=np.int64), row_ids=np.arange(1, dtype=np.int64)
    )
    backend = make_backend("highs")
    try:
        result = backend.solve(spec, warm=hint)
    finally:
        backend.close()
    assert not result.feasible
    assert result.dual_ray is not None
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
