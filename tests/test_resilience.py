"""Solver robustness: the cold downgrade, failed records, the reference's retry.

The defence-in-depth contract of an LP solve:

1. a probe the HiGHS backend fails is re-solved once on a fresh, cold
   model (no basis, primal simplex), counted in ``n_downgrades``;
2. a :class:`SolverError` that survives it carries enough context
   (backend, method, attempts, probe signature) to diagnose the probe
   post-mortem, and aborts only its own campaign run -- the runner converts
   it into a NaN-metrics ``failed`` record.

The tests' one-shot ``linprog`` reference (``tests/scipy_backend.py``) keeps
its own retry: status 1 (iteration limit) or 4 (numerical difficulties) is
retried once with the other HiGHS method -- which is what let ``offline``
finish the 40-job golden slice on the per-job LP.
"""

from __future__ import annotations

import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.core.errors import SolverError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_campaign
from repro.lp.backends import make_backend
from repro.lp.backends.highs import HighsPersistentBackend
from repro.lp.backends.base import LPSpec, SolverBackend, WarmStartHint, annotate_solver_error
from repro.schedulers.offline import OfflineScheduler
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.engine import simulate
from repro.workload.faults import FaultSpec, generate_fault_timeline

import scipy_backend as scipy_backend_module
from helpers import fail_first_highs_run, lp_spec
from scipy_backend import ScipyBackend
from test_engine_golden import wide_instance
from test_lp_backends import _small_instance


class TestSolverErrorContext:
    def test_annotate_fills_only_unset_fields(self):
        exc = SolverError("boom", method="highs")
        annotate_solver_error(exc, backend="highs", method="clobbered", status=None)
        assert exc.backend == "highs"
        assert exc.method == "highs"  # already set: preserved
        assert exc.status is None  # None values never annotate

    def test_context_and_str_carry_the_probe_identity(self):
        exc = SolverError(
            "LP solver failed", backend="scipy", method="highs-ipm",
            status=4, attempts=2, probe_signature=("sig", 1, 2),
        )
        context = exc.context()
        assert context["backend"] == "scipy"
        assert context["attempts"] == 2
        text = str(exc)
        assert "backend=scipy" in text and "attempts=2" in text

    def test_pickle_round_trip_preserves_context(self):
        # SolverError crosses process-pool boundaries in campaign mode.
        exc = SolverError("boom", backend="highs", status=4, attempts=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert str(clone) == str(exc)
        assert clone.context() == exc.context()


def trivial_spec(infeasible: bool = False) -> LPSpec:
    """min 2x with 1 <= x <= 10; optionally x <= 0.5 to make it infeasible."""
    if infeasible:
        return lp_spec([2.0], lower=[1.0], upper=[10.0], a_ub=[[1.0]], b_ub=[0.5])
    return lp_spec([2.0], lower=[1.0], upper=[10.0])


class FailingBackend(HighsPersistentBackend):
    """HiGHS whose warm build-and-run always fails; its cold retry works."""

    name = "failing"

    def _build_and_run(self, spec, warm):
        raise SolverError("persistent model corrupted")


class ScriptedLinprog:
    """Stands in for ``linprog``: one scripted status per call, in order."""

    def __init__(self, *statuses: int):
        self.statuses = list(statuses)
        self.methods: list[str] = []

    def __call__(self, c, *, method, **kwargs):
        self.methods.append(method)
        status = self.statuses.pop(0)
        return SimpleNamespace(
            status=status, message=f"status {status}", fun=2.0, x=np.array([1.0])
        )


class TestScipyBackendRetry:
    def scripted(self, monkeypatch, *statuses: int) -> ScriptedLinprog:
        linprog = ScriptedLinprog(*statuses)
        monkeypatch.setattr(scipy_backend_module, "linprog", linprog)
        return linprog

    def test_solves_on_the_first_attempt(self):
        result = ScipyBackend().solve(trivial_spec())
        assert result.status == 0 and result.feasible
        assert result.objective == pytest.approx(2.0)

    def test_success_is_not_retried(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 0)
        assert ScipyBackend().solve(trivial_spec()).status == 0
        assert linprog.methods == ["highs"]

    def test_iteration_limit_on_highs_retries_with_ipm(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 1, 0)
        result = ScipyBackend().solve(trivial_spec())
        assert result.status == 0 and result.objective == 2.0
        assert linprog.methods == ["highs", "highs-ipm"]

    def test_numerical_failure_on_ipm_retries_with_dual_simplex(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 4, 0)
        # Above 8000 variables the backend starts with the interior-point
        # method; linprog is scripted, so the size costs nothing.
        result = ScipyBackend().solve(lp_spec([1.0] * 8001))
        assert result.status == 0
        assert linprog.methods == ["highs-ipm", "highs-ds"]

    def test_infeasible_is_not_retried(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 2)
        result = ScipyBackend().solve(trivial_spec())
        assert result.status == 2 and not result.feasible
        assert linprog.methods == ["highs"]

    def test_infeasible_retry_is_a_certified_answer(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 4, 2)
        result = ScipyBackend().solve(trivial_spec())
        assert result.status == 2 and not result.feasible
        assert linprog.methods == ["highs", "highs-ipm"]

    def test_double_failure_raises_with_two_attempts(self, monkeypatch):
        linprog = self.scripted(monkeypatch, 4, 4)
        with pytest.raises(SolverError, match="status 4") as info:
            ScipyBackend().solve(trivial_spec())
        assert linprog.methods == ["highs", "highs-ipm"]
        assert info.value.attempts == 2
        assert info.value.method == "highs-ipm"
        assert info.value.status == 4
        assert info.value.backend == "scipy"

    def test_infeasible_is_a_certified_answer_not_a_failure(self):
        result = ScipyBackend().solve(trivial_spec(infeasible=True))
        assert result.status == 2 and not result.feasible
        assert math.isinf(result.objective)

    def test_offline_finishes_the_40_job_golden_slice(self):
        """The optimum on scipy is the one the persistent HiGHS backend finds.

        On the per-job LP one probe of this slice had 9 901 columns, went to
        ``highs-ipm`` and failed it with status 4, and the retry with
        ``highs-ds`` cleared it.  The class LP's largest probe here has
        7 076 columns, under the ``highs-ipm`` threshold, so the slice no
        longer reaches the retry; the retry's own tests above patch
        ``linprog``.
        """
        instance = wide_instance()
        instance = instance.restrict_jobs(job.job_id for job in instance.jobs[:40])
        optima = {}
        for name, backend in (("scipy", ScipyBackend()), ("auto", "auto")):
            scheduler = OfflineScheduler(solver_backend=backend)
            api.simulate(instance, scheduler)
            optima[name] = scheduler.optimal_max_stretch
        assert optima["scipy"] == pytest.approx(optima["auto"], rel=1e-9)


class TestDegradedReplanBackend:
    def test_degraded_replan_never_closes_a_supplied_backend(self, monkeypatch):
        """A fault replan solves on the run's backend and leaves it open.

        A caller-supplied backend serves the whole run; closing it mid-run
        would wipe the series bases the run's replan context warm-starts from.
        """
        backend = make_backend("auto")
        closes: list[str] = []
        monkeypatch.setattr(backend, "close", lambda: closes.append("close"))
        replan_degraded = OnlineLPScheduler._replan_degraded
        closes_per_replan: list[int] = []

        def spy(self, *args):
            before = len(closes)
            replan_degraded(self, *args)
            closes_per_replan.append(len(closes) - before)

        monkeypatch.setattr(OnlineLPScheduler, "_replan_degraded", spy)
        instance = _small_instance(13, max_jobs=30)
        faults = generate_fault_timeline(
            instance.platform, FaultSpec(mtbf=20.0, mttr=3.0, horizon=30.0), rng=13
        )
        scheduler = OnlineLPScheduler("online", solver_backend=backend)
        simulate(instance, scheduler, faults=faults)
        assert closes_per_replan and set(closes_per_replan) == {0}
        assert closes == ["close"]  # the replan context's, at run start


class TestColdDowngrade:
    def test_downgrades_to_a_cold_highs_model_and_counts_once(self):
        backend = FailingBackend()
        result = backend.solve(trivial_spec())
        assert result.status == 0
        assert result.objective == pytest.approx(2.0)
        stats = backend.stats
        assert stats.n_downgrades == 1
        assert stats.histogram()["downgrades"] == 1
        # One solve: the cold re-solve is the same probe.
        assert stats.n_probes == 1

    def test_both_layers_failing_chains_the_errors(self, monkeypatch):
        def broken(self, spec):
            raise SolverError("fallback broken too")

        monkeypatch.setattr(HighsPersistentBackend, "_solve_cold", broken)
        backend = FailingBackend()
        with pytest.raises(SolverError, match="fallback broken") as info:
            backend.solve(trivial_spec())
        assert (info.value.backend, info.value.attempts) == ("failing", 2)
        cause = info.value.__cause__
        assert isinstance(cause, SolverError) and cause.backend == "failing"
        assert backend.stats.n_downgrades == 0
        assert backend.stats.n_probes == 1

    def test_stateless_backend_failure_is_not_downgraded(self, monkeypatch):
        # A stateless backend has no warm state to drop: re-running it would
        # repeat the identical failing solve.
        calls = []

        def broken(self, spec, *, warm=None):
            calls.append(spec)
            raise SolverError("scipy failed")

        monkeypatch.setattr(ScipyBackend, "_solve", broken)
        backend = ScipyBackend()
        with pytest.raises(SolverError, match="scipy failed") as info:
            backend.solve(trivial_spec())
        assert info.value.__cause__ is None
        assert len(calls) == 1
        assert backend.stats.n_downgrades == 0

    def test_failed_primary_solve_leaves_the_series_basis_alone(self, monkeypatch):
        """The primary solve after a downgraded one equals a cold solve."""

        def spec(rhs: float) -> LPSpec:  # min x + 2y  s.t.  x + y = rhs, x <= 2
            return lp_spec([1.0, 2.0], upper=[2.0, np.inf], a_eq=[[1.0, 1.0]], b_eq=[rhs])

        warm = WarmStartHint(
            series="s",
            col_ids=np.array([0, 1], dtype=np.int64),
            row_ids=np.array([0], dtype=np.int64),
        )
        backend = make_backend("highs")
        backend.solve(spec(3.0), warm=warm)
        before = backend._series_basis("s")

        real_run, runs = backend._run, []

        def poisoned_run(highs, spec, warm):  # the warm run fails, the cold one not
            runs.append(warm)
            if len(runs) == 1:
                raise SolverError("HiGHS solve failed")
            return real_run(highs, spec, warm=warm)

        with monkeypatch.context() as patch:
            patch.setattr(backend, "_run", poisoned_run)
            downgraded = backend.solve(spec(4.0), warm=warm)
        assert runs == [warm, None]
        assert backend.stats.n_downgrades == 1
        assert downgraded.objective == pytest.approx(6.0)
        assert backend._series_basis("s") is before

        result = backend.solve(spec(5.0), warm=warm)
        cold = make_backend("highs").solve(spec(5.0), warm=warm)
        assert backend.stats.n_downgrades == 1  # served by HiGHS again
        assert result.objective == cold.objective == pytest.approx(8.0)
        assert np.array_equal(result.values, cold.values)

    def test_cold_resolve_runs_primal_simplex_without_a_basis(self, monkeypatch):
        """The downgrade's model: fresh, no basis, primal instead of dual simplex."""
        runs = []
        real_run = HighsPersistentBackend._run

        def run(self, highs, spec, warm):
            strategy = highs.getOptionValue("simplex_strategy")
            strategy = strategy[1] if isinstance(strategy, tuple) else strategy
            runs.append((strategy, highs.getBasis().valid, warm))
            return real_run(self, highs, spec, warm)

        monkeypatch.setattr(HighsPersistentBackend, "_run", run)
        result = FailingBackend().solve(trivial_spec())
        assert result.objective == pytest.approx(2.0)
        assert runs == [(4, False, None)]

    def test_simulate_survives_a_failing_highs_probe(self, monkeypatch):
        """Every run gets the downgrade, not only campaign runs."""
        instance = _small_instance(13, max_jobs=20)
        reference = api.simulate(instance, "online")
        calls = fail_first_highs_run(monkeypatch)
        result = api.simulate(instance, "online", scheduler_options={"solver_backend": "auto"})
        assert len(calls) > 1
        assert result.lp_probes.n_downgrades == 1
        assert result.lp_probes.histogram()["downgrades"] == 1
        assert result.max_stretch == pytest.approx(reference.max_stretch, rel=1e-6)


class TestPoisonedProbeRegression:
    def test_poisoned_probe_becomes_failed_record_not_a_crash(self, monkeypatch):
        """A terminal SolverError fails one run, never the campaign."""

        def poisoned_solve(self, spec, *, warm=None):
            raise SolverError(
                "poisoned probe", backend=self.name, status=4, attempts=2
            )

        monkeypatch.setattr(SolverBackend, "solve", poisoned_solve)
        config = ExperimentConfig(
            name="poison", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, processors_per_cluster=2, window=10.0, max_jobs=5,
        )
        results = run_campaign(
            [config], scheduler_keys=("online", "swrpt"), replicates=2, base_seed=11
        )
        by_scheduler: dict[str, list] = {}
        for record in results:
            by_scheduler.setdefault(record.scheduler, []).append(record)
        assert set(by_scheduler) == {"Online", "SWRPT"}
        for record in by_scheduler["Online"]:
            assert record.failed
            assert math.isnan(record.max_stretch)
            assert math.isnan(record.sum_stretch)
        for record in by_scheduler["SWRPT"]:
            assert not record.failed
            assert math.isfinite(record.max_stretch)
