"""Bounded retry/backoff and graceful degradation for LP solves.

This module generalizes the scipy backend's historical status-1 one-shot
retry into an explicit, testable policy, and adds the last line of defence
above it: a backend wrapper that re-runs a probe on the stateless scipy
fallback when the primary (persistent) backend raises.  The layering is

1. :func:`solve_with_retries` -- inside one backend, walk a bounded method
   escalation chain while the solver reports a *retriable* status (scipy
   status 1, iteration limit, by default);
2. :class:`ResilientBackend` -- across backends, a probe whose primary
   backend raised :class:`~repro.core.errors.SolverError` is retried once on
   the scipy fallback (highs -> scipy downgrade);
3. the campaign worker -- a :class:`SolverError` that survives both layers
   aborts only its own run, which the runner converts into a NaN-metrics
   ``failed`` record (see ``experiments/runner.py``); the worker lane and
   the rest of the group keep going.

Every retry path preserves exactness: a retried probe either returns the
optimum of the same LP or fails again -- policies never change which
solution is accepted, only how hard the stack tries before giving up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.core.errors import ModelError, SolverError
from repro.lp.backends.base import LPResult, LPSpec, SolverBackend, WarmStartHint

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "solve_with_retries",
    "annotate_solver_error",
    "ResilientBackend",
    "make_resilient",
]


class _StatusResult(Protocol):  # pragma: no cover - typing only
    status: int


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded method-escalation chain for retriable solver statuses.

    Attributes
    ----------
    escalation:
        Methods to try, in order, after the initially requested one keeps
        reporting a retriable status.  A candidate equal to the method just
        tried is skipped (retrying the identical configuration would only
        reproduce the failure).
    retriable_statuses:
        Solver status codes worth another attempt.  The default is scipy's
        status 1 (iteration limit): a different algorithm routinely clears
        it.  Statuses meaning "the model itself is bad" (infeasible,
        unbounded) must *not* be listed -- retrying cannot fix those.
    max_attempts:
        Hard bound on the total number of solves, initial attempt included.
    backoff_seconds / backoff_factor:
        Sleep inserted before each retry, growing geometrically.  Zero
        (default) disables sleeping -- LP retries are CPU-bound, so backoff
        only matters for tests and future remote solvers.
    """

    escalation: tuple[str, ...] = ("highs-ipm",)
    retriable_statuses: tuple[int, ...] = (1,)
    max_attempts: int = 2
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ModelError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0.0:
            raise ModelError(f"backoff_seconds must be >= 0, got {self.backoff_seconds}")
        if self.backoff_factor < 1.0:
            raise ModelError(f"backoff_factor must be >= 1, got {self.backoff_factor}")


#: The historical scipy behaviour: one extra attempt with ``highs-ipm`` when
#: the first method hits the iteration limit (status 1), no sleeping.
DEFAULT_RETRY_POLICY = RetryPolicy()


def solve_with_retries(
    run: "Callable[[str], _StatusResult]",
    method: str,
    *,
    policy: RetryPolicy | None = None,
    sleep: "Callable[[float], None]" = time.sleep,
):
    """Run ``run(method)`` with the policy's bounded escalation chain.

    Returns ``(result, attempts, method_used)`` where ``result`` is the last
    attempt's outcome (retriable or not -- the caller decides what a
    non-zero terminal status means), ``attempts`` counts the solves
    performed and ``method_used`` is the method of the last attempt.
    ``sleep`` is injectable so tests can assert backoff without waiting.
    """
    active = policy if policy is not None else DEFAULT_RETRY_POLICY
    result = run(method)
    attempts = 1
    used = method
    if result.status not in active.retriable_statuses:
        return result, attempts, used
    delay = active.backoff_seconds
    for candidate in active.escalation:
        if attempts >= active.max_attempts:
            break
        if candidate == used:
            continue
        if delay > 0.0:
            sleep(delay)
            delay *= active.backoff_factor
        result = run(candidate)
        attempts += 1
        used = candidate
        if result.status not in active.retriable_statuses:
            break
    return result, attempts, used


def annotate_solver_error(exc: SolverError, **context: object) -> SolverError:
    """Fill unset structured-context fields of ``exc`` in place.

    Outer layers (the backend wrapper, the replan context) use this to add
    what they know -- backend name, probe signature -- without clobbering
    details the raising layer already recorded.
    """
    for key, value in context.items():
        if value is not None and getattr(exc, key, None) is None:
            setattr(exc, key, value)
    return exc


class ResilientBackend(SolverBackend):
    """Retry a failing probe on the stateless scipy fallback.

    Wraps a primary backend; a :class:`SolverError` from it triggers one
    re-solve of the *same spec* on the fallback (a fresh
    :class:`~repro.lp.backends.scipy_backend.ScipyBackend` unless another
    stateless backend is supplied).  The fallback solves from scratch, with
    no warm hint, so nothing of the failed solve reaches it; and a failed
    primary solve leaves the primary's series basis as it was (a persistent
    backend records a basis only on an optimal or infeasible outcome), so
    the next primary solve starts where this one did.  Warm-start
    bookkeeping (``persistent``, series state) delegates to the primary; the
    wrapper advertises the primary's name so probe accounting and bank
    keying are unchanged.
    """

    def __init__(self, primary: SolverBackend, fallback: SolverBackend | None = None):
        if fallback is None:
            from repro.lp.backends.scipy_backend import ScipyBackend

            fallback = ScipyBackend()
        self._primary = primary
        self._fallback = fallback
        self.name = primary.name
        self.persistent = primary.persistent
        #: Number of probes served by the fallback (degradation telemetry).
        self.n_downgrades = 0

    def _solve(
        self,
        spec: LPSpec,
        *,
        method: str = "auto",
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        try:
            return self._primary._solve(spec, method=method, warm=warm)
        except SolverError as primary_exc:
            annotate_solver_error(primary_exc, backend=self._primary.name, method=method)
            try:
                result = self._fallback._solve(spec, method="auto", warm=None)
            except SolverError as fallback_exc:
                annotate_solver_error(fallback_exc, backend=self._fallback.name)
                raise fallback_exc from primary_exc
            self.n_downgrades += 1
            return result

    def _resolve_fixed(self, model, *, column, value, costs) -> LPResult:
        return self._primary._resolve_fixed(model, column=column, value=value, costs=costs)

    def close(self) -> None:
        self._primary.close()
        self._fallback.close()

    def export_series_state(self) -> object | None:
        return self._primary.export_series_state()

    def import_series_state(self, payload: object | None) -> None:
        self._primary.import_series_state(payload)


def make_resilient(backend: SolverBackend) -> SolverBackend:
    """Wrap persistent backends with the scipy downgrade; pass others through.

    The stateless scipy backend is already the floor of the degradation
    chain (and carries its own internal retry policy), so wrapping it would
    only re-run the identical failing solve.
    """
    if isinstance(backend, ResilientBackend) or not backend.persistent:
        return backend
    return ResilientBackend(backend)
