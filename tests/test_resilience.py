"""Solver robustness: retry policies, backend downgrade, failed records.

The defence-in-depth contract of :mod:`repro.lp.resilience`:

1. inside one backend, retriable solver statuses walk a bounded method
   escalation chain (the historical scipy status-1 retry, generalized);
2. across backends, a probe whose persistent primary raises is re-solved
   once on the stateless scipy fallback (highs -> scipy downgrade);
3. a :class:`SolverError` that survives both layers carries enough context
   (backend, method, attempts, probe signature) to diagnose the probe
   post-mortem, and aborts only its own campaign run -- the runner converts
   it into a NaN-metrics ``failed`` record.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.errors import ModelError, SolverError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_campaign
from repro.lp.backends import highs_available, make_backend
from repro.lp.backends.base import LPSpec, SolverBackend, WarmStartHint
from repro.lp.backends.scipy_backend import ScipyBackend
from repro.lp.resilience import (
    DEFAULT_RETRY_POLICY,
    ResilientBackend,
    RetryPolicy,
    annotate_solver_error,
    make_resilient,
    solve_with_retries,
)
from repro.lp.solver import LinearProgramBuilder


class FakeStatus:
    def __init__(self, status: int):
        self.status = status
        self.message = f"status {status}"


def scripted_run(statuses_by_method):
    """A ``run(method)`` callable with a scripted status per method."""
    calls: list[str] = []

    def run(method: str) -> FakeStatus:
        calls.append(method)
        return FakeStatus(statuses_by_method[method])

    return run, calls


class TestRetryPolicy:
    def test_default_reproduces_historical_scipy_behavior(self):
        assert DEFAULT_RETRY_POLICY.escalation == ("highs-ipm",)
        assert DEFAULT_RETRY_POLICY.retriable_statuses == (1,)
        assert DEFAULT_RETRY_POLICY.max_attempts == 2
        assert DEFAULT_RETRY_POLICY.backoff_seconds == 0.0

    def test_validation(self):
        with pytest.raises(ModelError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ModelError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ModelError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)


class TestSolveWithRetries:
    def test_success_on_first_attempt(self):
        run, calls = scripted_run({"highs": 0})
        result, attempts, used = solve_with_retries(run, "highs")
        assert (result.status, attempts, used) == (0, 1, "highs")
        assert calls == ["highs"]

    def test_retriable_status_escalates_once(self):
        run, calls = scripted_run({"highs": 1, "highs-ipm": 0})
        result, attempts, used = solve_with_retries(run, "highs")
        assert (result.status, attempts, used) == (0, 2, "highs-ipm")
        assert calls == ["highs", "highs-ipm"]

    def test_candidate_equal_to_requested_method_is_skipped(self):
        # Retrying the identical configuration would only reproduce the
        # failure: the chain has nothing new to offer and stops at 1 attempt.
        run, calls = scripted_run({"highs-ipm": 1})
        result, attempts, used = solve_with_retries(run, "highs-ipm")
        assert (result.status, attempts, used) == (1, 1, "highs-ipm")
        assert calls == ["highs-ipm"]

    def test_max_attempts_bounds_the_chain(self):
        policy = RetryPolicy(
            escalation=("a", "b", "c"), retriable_statuses=(1,), max_attempts=2
        )
        run, calls = scripted_run({"start": 1, "a": 1, "b": 1, "c": 1})
        result, attempts, used = solve_with_retries(run, "start", policy=policy)
        assert (result.status, attempts, used) == (1, 2, "a")
        assert calls == ["start", "a"]

    def test_terminal_status_stops_the_chain(self):
        # Status 2 (infeasible) is not retriable: the certified answer of the
        # first escalation step is returned as-is.
        policy = RetryPolicy(
            escalation=("a", "b"), retriable_statuses=(1,), max_attempts=3
        )
        run, calls = scripted_run({"start": 1, "a": 2, "b": 0})
        result, attempts, used = solve_with_retries(run, "start", policy=policy)
        assert (result.status, attempts, used) == (2, 2, "a")

    def test_geometric_backoff_uses_injected_sleep(self):
        policy = RetryPolicy(
            escalation=("a", "b", "c"),
            retriable_statuses=(1,),
            max_attempts=4,
            backoff_seconds=0.1,
            backoff_factor=3.0,
        )
        slept: list[float] = []
        run, _ = scripted_run({"start": 1, "a": 1, "b": 1, "c": 1})
        solve_with_retries(run, "start", policy=policy, sleep=slept.append)
        assert slept == pytest.approx([0.1, 0.3, 0.9])


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
    has_row = bool(infeasible)
    return LPSpec(
        n_vars=1,
        objective=[2.0],
        lower=[1.0],
        upper=[10.0],
        ub_rows=[0] if has_row else [],
        ub_cols=[0] if has_row else [],
        ub_vals=[1.0] if has_row else [],
        ub_rhs=[0.5] if has_row else [],
        eq_rows=[],
        eq_cols=[],
        eq_vals=[],
        eq_rhs=[],
    )


class FailingBackend(SolverBackend):
    name = "failing"
    persistent = True

    def __init__(self):
        self.closed = False
        self.imported: list[object] = []

    def _solve(self, spec, *, method="auto", warm=None):
        raise SolverError("persistent model corrupted")

    def close(self):
        self.closed = True

    def export_series_state(self):
        return {"series": "state"}

    def import_series_state(self, payload):
        self.imported.append(payload)


class TestScipyBackendRetry:
    def test_solves_and_respects_custom_policy(self):
        backend = ScipyBackend(RetryPolicy(retriable_statuses=()))
        result = backend.solve(trivial_spec())
        assert result.status == 0 and result.feasible
        assert result.objective == pytest.approx(2.0)

    def test_infeasible_is_a_certified_answer_not_a_failure(self):
        result = ScipyBackend().solve(trivial_spec(infeasible=True))
        assert result.status == 2 and not result.feasible
        assert math.isinf(result.objective)


class TestResilientBackend:
    def test_downgrades_to_fallback_and_counts(self):
        backend = ResilientBackend(FailingBackend())
        assert backend.name == "failing"  # telemetry/bank keying unchanged
        assert backend.persistent is True
        result = backend.solve(trivial_spec())
        assert result.status == 0
        assert result.objective == pytest.approx(2.0)
        assert backend.n_downgrades == 1

    def test_both_layers_failing_chains_the_errors(self):
        primary = FailingBackend()
        backend = ResilientBackend(primary, fallback=FailingBackend())
        with pytest.raises(SolverError, match="corrupted") as info:
            backend.solve(trivial_spec())
        assert isinstance(info.value.__cause__, SolverError)
        assert info.value.backend == "failing"

    def test_series_state_and_close_delegate_to_primary(self):
        primary = FailingBackend()
        backend = ResilientBackend(primary)
        assert backend.export_series_state() == {"series": "state"}
        backend.import_series_state({"x": 1})
        assert primary.imported == [{"x": 1}]
        backend.close()
        assert primary.closed

    def test_make_resilient_wraps_only_persistent_backends(self):
        scipy_backend = make_backend("scipy")
        assert make_resilient(scipy_backend) is scipy_backend  # already the floor
        wrapped = make_resilient(FailingBackend())
        assert isinstance(wrapped, ResilientBackend)
        assert make_resilient(wrapped) is wrapped  # never double-wrapped

    @pytest.mark.skipif(not highs_available(), reason="no HiGHS bindings")
    def test_failed_primary_solve_leaves_the_series_basis_alone(self, monkeypatch):
        """The primary solve after a downgraded one equals a cold solve."""

        def spec(rhs: float) -> LPSpec:  # min x + 2y  s.t.  x + y = rhs, x <= 2
            builder = LinearProgramBuilder()
            x = builder.add_variable(objective=1.0, upper=2.0)
            y = builder.add_variable(objective=2.0)
            builder.add_eq([(x, 1.0), (y, 1.0)], rhs)
            return builder.spec()

        warm = WarmStartHint(
            series="s",
            col_ids=np.array([0, 1], dtype=np.int64),
            row_ids=np.array([0], dtype=np.int64),
        )
        primary = make_backend("highs")
        backend = ResilientBackend(primary)
        backend.solve(spec(3.0), warm=warm)
        before = primary.export_series_state()

        def poisoned_run(highs, spec, warm):
            raise SolverError("HiGHS solve failed")

        with monkeypatch.context() as patch:
            patch.setattr(primary, "_run", poisoned_run)
            downgraded = backend.solve(spec(4.0), warm=warm)
        assert backend.n_downgrades == 1
        assert downgraded.objective == pytest.approx(6.0)
        after = primary.export_series_state()
        assert before.keys() == after.keys()
        for a, b in zip(before["s"], after["s"]):
            assert np.array_equal(a, b)

        result = backend.solve(spec(5.0), warm=warm)
        cold = make_backend("highs").solve(spec(5.0), warm=warm)
        assert backend.n_downgrades == 1  # served by the primary again
        assert result.objective == cold.objective == pytest.approx(8.0)
        assert np.array_equal(result.values, cold.values)


class TestPoisonedProbeRegression:
    def test_poisoned_probe_becomes_failed_record_not_a_crash(self, monkeypatch):
        """A terminal SolverError fails one run, never the campaign."""

        def poisoned_solve(self, spec, *, method="auto", warm=None):
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
