"""Graceful degradation for LP solves.

A backend wrapper re-runs a probe on the stateless scipy fallback when the
primary (persistent) backend raises.  The layering is

1. inside the scipy backend -- a solve that reports status 1 (iteration
   limit) or 4 (numerical difficulties) is retried once with the other
   HiGHS method (see :class:`~repro.lp.backends.scipy_backend.ScipyBackend`);
2. :class:`ResilientBackend` -- across backends, a probe whose primary
   backend raised :class:`~repro.core.errors.SolverError` is retried once on
   the scipy fallback (highs -> scipy downgrade);
3. the campaign worker -- a :class:`SolverError` that survives both layers
   aborts only its own run, which the runner converts into a NaN-metrics
   ``failed`` record (see ``experiments/runner.py``); the worker lane and
   the rest of the group keep going.

Every retry path preserves exactness: a retried probe either returns the
optimum of the same LP or fails again -- retries never change which
solution is accepted, only how hard the stack tries before giving up.
"""

from __future__ import annotations

from repro.core.errors import SolverError
from repro.lp.backends.base import (
    LPProbeStats,
    LPResult,
    LPSpec,
    SolverBackend,
    WarmStartHint,
)

__all__ = [
    "annotate_solver_error",
    "ResilientBackend",
    "make_resilient",
]


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
    wrapper advertises the primary's name and shares the primary's
    :attr:`stats`, so the probes it times and the basis reuses the primary
    counts land in one object, and bank keying is unchanged.
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

    @property
    def stats(self) -> LPProbeStats:
        """The primary's counters (the wrapper keeps none of its own)."""
        return self._primary.stats

    def _solve(self, spec: LPSpec, *, warm: WarmStartHint | None = None) -> LPResult:
        try:
            return self._primary._solve(spec, warm=warm)
        except SolverError as primary_exc:
            annotate_solver_error(primary_exc, backend=self._primary.name)
            try:
                result = self._fallback._solve(spec, warm=None)
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
    chain (and carries its own one-retry rule), so wrapping it would
    only re-run the identical failing solve.
    """
    if isinstance(backend, ResilientBackend) or not backend.persistent:
        return backend
    return ResilientBackend(backend)
