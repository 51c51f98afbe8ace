"""Pluggable LP solver backends behind :class:`~repro.lp.solver.LinearProgramBuilder`.

* :class:`ScipyBackend` -- the historical one-shot
  :func:`scipy.optimize.linprog` path (default; always available).
* :class:`HighsPersistentBackend` -- builds a HiGHS model per solve and
  warm-starts dual simplex from the basis the previous solve of the same
  series left, across milestone probes and replans.
  Backed by ``highspy`` when installed, falling back to the bindings vendored
  by scipy >= 1.15.

Backends are selected by name through :func:`make_backend` (``"scipy"``,
``"highs"``, ``"auto"``) -- the same names exposed by the
``--solver-backend`` CLI flag and :attr:`ExperimentConfig.solver_backend`.
"""

from __future__ import annotations

from repro.core.errors import SolverError
from repro.lp.backends.base import (
    LPProbeStats,
    LPResult,
    LPSpec,
    SolverBackend,
    WarmStartHint,
    note_bank_lookup,
    note_basis_reuse,
    note_certificate_skips,
    note_milestone_search,
    note_phase_assembly,
    note_phase_search,
    note_primal_reuse,
    note_replan,
    record_lp_probes,
)
from repro.lp.backends.highs import (
    HighsPersistentBackend,
    highs_available,
    highs_source,
    highs_unavailable_reason,
)
from repro.lp.backends.scipy_backend import ScipyBackend

__all__ = [
    "LPResult",
    "LPSpec",
    "SolverBackend",
    "WarmStartHint",
    "LPProbeStats",
    "record_lp_probes",
    "note_bank_lookup",
    "note_basis_reuse",
    "note_certificate_skips",
    "note_milestone_search",
    "note_phase_assembly",
    "note_phase_search",
    "note_primal_reuse",
    "note_replan",
    "ScipyBackend",
    "HighsPersistentBackend",
    "highs_available",
    "highs_source",
    "highs_unavailable_reason",
    "BACKEND_CHOICES",
    "available_backends",
    "make_backend",
    "default_backend",
    "resolve_backend_name",
]

#: Names accepted by :func:`make_backend` and the ``--solver-backend`` flag.
BACKEND_CHOICES: tuple[str, ...] = ("scipy", "highs", "auto")

#: Shared stateless scipy backend (safe across contexts and threads-of-use;
#: persistent backends are instantiated per replan context instead).
_SCIPY_SINGLETON = ScipyBackend()


def default_backend() -> SolverBackend:
    """The process-wide default backend (one-shot scipy)."""
    return _SCIPY_SINGLETON


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment."""
    return ("scipy", "highs") if highs_available() else ("scipy",)


def resolve_backend_name(spec: "str | SolverBackend | None" = None) -> str:
    """The concrete backend name ``spec`` resolves to in this environment.

    ``"auto"`` resolves to ``"highs"`` when bindings are available and
    ``"scipy"`` otherwise; ``None`` means ``"scipy"`` (mirroring
    :func:`make_backend`); concrete names and backend instances report
    themselves.  Used by the backend A/B harness and the CLI to label
    results with the backend that actually ran.
    """
    if isinstance(spec, SolverBackend):
        return spec.name
    name = "scipy" if spec is None else str(spec).lower()
    if name == "auto":
        return "highs" if highs_available() else "scipy"
    if name in ("scipy", "highs"):
        return name
    raise SolverError(
        f"unknown solver backend {spec!r}; choose from {', '.join(BACKEND_CHOICES)}"
    )


def make_backend(spec: "str | SolverBackend | None" = None) -> SolverBackend:
    """Resolve a backend from a name, an instance, or ``None``.

    * ``None`` / ``"scipy"`` -- the shared one-shot scipy backend;
    * ``"highs"`` -- a *fresh* :class:`HighsPersistentBackend` (each caller
      owns its series bases; raises :class:`SolverError` when no HiGHS
      bindings are available);
    * ``"auto"`` -- a fresh persistent HiGHS backend when available, the
      scipy backend otherwise;
    * a :class:`SolverBackend` instance -- returned unchanged.
    """
    if isinstance(spec, SolverBackend):
        return spec
    # One name-resolution chain for the whole package: a spec that
    # resolve_backend_name accepts is exactly one make_backend can build.
    # 'highs' resolves to itself even without bindings -- the constructor
    # raises the descriptive SolverError for an explicit request.
    if resolve_backend_name(spec) == "scipy":
        return _SCIPY_SINGLETON
    return HighsPersistentBackend()
