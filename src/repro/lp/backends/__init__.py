"""The LP solver backend: solves an :class:`LPSpec` into an :class:`LPResult`.

:mod:`repro.lp.maxstretch` assembles System (1) and System (2) as an
:class:`LPSpec` straight from the constraint skeleton and hands it to
:meth:`SolverBackend.solve`.  One engine runs them:
:class:`~repro.lp.backends.highs.HighsPersistentBackend`, over the HiGHS
bindings vendored by scipy (>= 1.15).  It builds a HiGHS model per solve
and warm-starts dual simplex from the basis the previous solve of the same
series left, across the milestone probes and replans of one run; a probe
it fails is re-solved once on a fresh, cold model.

:func:`make_backend` builds a fresh backend for every run: a backend carries
the LP counters and warm-start bases of the run using it
(:attr:`SolverBackend.stats`, an :class:`LPProbeStats`), so no two runs
share one.  The LP schedulers' ``solver_backend=`` parameter goes through
it; a :class:`SolverBackend` instance passed there is used as it is, which
is how tests inject a reference solver or a fake.

Importing this package does not import scipy: the ``highs`` module, and
scipy under it, load on the first :func:`make_backend` call (or an earlier
:func:`load_solver`), so LP-free runs never pay for the solver stack.
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
    "LPResult",
    "LPSpec",
    "SolverBackend",
    "WarmStartHint",
    "LPProbeStats",
    "highs_source",
    "load_solver",
    "make_backend",
    "resolve_backend_name",
]


def highs_source() -> str:
    """Which bindings back the backend: always scipy's vendored copy."""
    return "scipy-vendored"


def resolve_backend_name(spec: "str | SolverBackend | None" = None) -> str:
    """The name of the backend ``spec`` stands for.

    ``None``, ``"auto"`` and ``"highs"`` stand for ``"highs"``; a backend
    instance reports its own name.  Anything else raises
    :class:`SolverError`.
    """
    if isinstance(spec, SolverBackend):
        return spec.name
    if spec is None or str(spec).lower() in ("auto", "highs"):
        return "highs"
    raise SolverError(
        f"unknown solver backend {spec!r}; accepted: None, 'auto', 'highs' "
        "or a SolverBackend instance"
    )


def load_solver() -> None:
    """Import the HiGHS backend and the scipy bindings under it, if not yet done.

    :func:`make_backend` does this on its first call; a process about to
    fork workers that will solve LPs, or a daemon about to take
    submissions, calls it up front so the import is paid once, at boot.
    """
    import repro.lp.backends.highs  # noqa: F401


def make_backend(spec: "str | SolverBackend | None" = None) -> SolverBackend:
    """A fresh :class:`~repro.lp.backends.highs.HighsPersistentBackend`, or
    ``spec`` itself when it is a backend.

    ``spec`` is checked by :func:`resolve_backend_name`.
    """
    if isinstance(spec, SolverBackend):
        return spec
    resolve_backend_name(spec)
    from repro.lp.backends.highs import HighsPersistentBackend

    return HighsPersistentBackend()
