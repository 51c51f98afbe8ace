"""Solver-backend abstraction for the System (1)/(2) linear programs.

A :class:`SolverBackend` turns the arrays accumulated by a
:class:`~repro.lp.solver.LinearProgramBuilder` into an :class:`LPResult`.
Two implementations exist:

* :class:`~repro.lp.backends.scipy_backend.ScipyBackend` -- the historical
  one-shot :func:`scipy.optimize.linprog` path (default);
* :class:`~repro.lp.backends.highs.HighsPersistentBackend` -- builds a HiGHS
  model per solve and keeps the latest basis of each warm-start series,
  warm-starting dual simplex on the next model of the series from it.

Persistent backends relate successive solves through the ``warm`` argument of
:meth:`SolverBackend.solve`: a :class:`WarmStartHint` names the series and
gives every variable and row a stable identity, through which the previous
basis of the series is mapped onto the new model -- the matrices of two
solves need not match.

This module also hosts the *probe timing hooks* used by the overhead
benchmarks: :func:`record_lp_probes` measures how much of the scheduler
wall-clock is spent inside the LP solver proper, regardless of backend.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

import numpy as np


__all__ = [
    "LPResult",
    "LPSpec",
    "WarmStartHint",
    "SolverBackend",
    "LPProbeStats",
    "record_lp_probes",
    "note_certificate_skips",
    "note_basis_reuse",
    "note_milestone_search",
    "note_bank_lookup",
    "note_primal_reuse",
    "note_phase_assembly",
    "note_phase_search",
    "note_replan",
]


@dataclass
class LPResult:
    """Outcome of a linear program solve.

    Attributes
    ----------
    dual_ray:
        Optional infeasibility certificate (Farkas / dual ray) reported by
        backends that can produce one (the persistent HiGHS backend); always
        ``None`` on feasible solves and on backends without certificate
        support (the one-shot scipy path), in which case callers degrade
        gracefully.  The array holds one multiplier per constraint row
        (inequality rows first, then equality rows, matching
        :class:`LPSpec`), sign-normalized so that the multipliers of the
        ``<=`` rows are non-negative and the aggregated constraint

        .. math:: \\sum_i y_i (A x)_i \\le \\sum_i y_i b_i

        is violated by *every* point of the variable box: the minimum of the
        left-hand side over the bounds exceeds the right-hand side.  The
        milestone search evaluates this combination as an affine function of
        the objective ``F`` (the RHS is affine in ``F``) to refute whole
        ranges of milestones without solving them
        (:mod:`repro.lp.maxstretch`).
    """

    status: int
    feasible: bool
    objective: float
    values: np.ndarray
    message: str = ""
    dual_ray: "np.ndarray | None" = None

    def value(self, index: int) -> float:
        """Value of variable ``index`` in the optimal solution."""
        return float(self.values[index])


@dataclass(frozen=True)
class LPSpec:
    """The arrays of one ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``.

    A read-only view over the lists accumulated by
    :class:`~repro.lp.solver.LinearProgramBuilder` (no copies are made); the
    inequality/equality matrices are in COO triplet form.
    """

    n_vars: int
    objective: Sequence[float]
    lower: Sequence[float]
    upper: Sequence[float]
    ub_rows: Sequence[int]
    ub_cols: Sequence[int]
    ub_vals: Sequence[float]
    ub_rhs: Sequence[float]
    eq_rows: Sequence[int]
    eq_cols: Sequence[int]
    eq_vals: Sequence[float]
    eq_rhs: Sequence[float]

    @property
    def n_rows(self) -> int:
        return len(self.ub_rhs) + len(self.eq_rhs)

    @property
    def nnz(self) -> int:
        return len(self.ub_vals) + len(self.eq_vals)


@dataclass(frozen=True)
class WarmStartHint:
    """Stable identities letting a persistent backend transplant bases.

    Consecutive milestone probes (and the System (2) re-optimization after
    the winning probe) are built on *different* constraint matrices.  Their
    variables and rows do, however, carry stable identities -- ``(interval, resource, job)`` for the
    work variables, ``(interval, resource)``/``job`` for the rows -- and the
    optimal (or infeasibility-proving) basis of one probe is an excellent
    starting basis for the next once mapped through those identities.

    Attributes
    ----------
    series:
        Solves sharing a series feed each other's bases (one series per
        replan context is the natural granularity).
    col_ids / row_ids:
        One integer identity per variable / constraint row (inequality rows
        first, then equality rows, matching the builder's row order), as
        int64 numpy arrays -- integers so the basis mapping stays fully
        vectorized.  Identities present in the previous basis inherit its
        statuses; new ones start non-basic (columns) / basic-slack (rows).
    """

    series: Hashable
    col_ids: "np.ndarray"
    row_ids: "np.ndarray"


class SolverBackend(ABC):
    """Strategy object solving the LPs built by ``LinearProgramBuilder``.

    Subclasses implement :meth:`_solve`; the public :meth:`solve` wraps it
    with the probe timing hooks so that every backend feeds the same
    LP-fraction accounting (see :func:`record_lp_probes`).
    """

    #: Registry/display name of the backend ("scipy", "highs", ...).
    name: str = "abstract"
    #: Whether the backend exploits the ``warm`` argument to reuse bases
    #: across solves.  Callers skip building warm hints for non-persistent
    #: backends.
    persistent: bool = False

    def solve(
        self,
        spec: LPSpec,
        *,
        method: str = "auto",
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        """Solve ``spec``; see :meth:`~repro.lp.solver.LinearProgramBuilder.solve`.

        ``warm`` optionally carries the stable identities used to transplant
        the previous basis of the same series onto the freshly built model.
        """
        start = time.perf_counter()
        try:
            return self._solve(spec, method=method, warm=warm)
        finally:
            _note_probe(self.name, time.perf_counter() - start)

    @abstractmethod
    def _solve(
        self,
        spec: LPSpec,
        *,
        method: str = "auto",
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        """Backend-specific solve (timed and accounted by :meth:`solve`)."""

    def close(self) -> None:
        """Release any persistent solver state (no-op by default)."""

    def export_series_state(self) -> object | None:
        """A process-local snapshot of the warm-start series bases.

        Persistent backends return a serializable payload capturing the
        retained per-series dual-simplex bases, suitable for
        :meth:`import_series_state` on a *fresh* backend of the same class
        (the cross-run solver-state bank of :mod:`repro.lp.bank` stores
        these per instance content key).  Stateless backends return
        ``None`` -- there is nothing to carry.
        """
        return None

    def import_series_state(self, payload: object | None) -> None:
        """Seed the warm-start series bases from an exported snapshot.

        Accepts the payload of :meth:`export_series_state` (``None`` is a
        no-op).  Purely an accelerator: imported bases only change where
        dual simplex *starts*, never which optimum it reports.
        """

    @staticmethod
    def infeasible_result(spec: LPSpec, message: str = "") -> LPResult:
        """The canonical infeasible :class:`LPResult` for ``spec``."""
        return LPResult(
            status=2,
            feasible=False,
            objective=np.inf,
            values=np.zeros(spec.n_vars),
            message=message,
        )


# -- probe timing hooks ---------------------------------------------------------


@dataclass
class LPProbeStats:
    """Accumulated LP solve cost observed inside a :func:`record_lp_probes` block.

    Beyond the historical solve counters, the block also collects the
    *probe-elimination histogram* of the certificate-guided milestone search
    (:mod:`repro.lp.maxstretch`): how many milestone probes were actually
    solved, how many were skipped outright by a dual-ray certificate bound
    or the interior-optimum re-check, and how many solved probes were served
    warm by the persistent backend (a transplanted basis instead of a cold
    factorization).
    """

    n_probes: int = 0
    solve_seconds: float = 0.0
    by_backend: dict[str, int] = field(default_factory=dict)
    #: Milestone probes eliminated without an LP solve (certificate jumps
    #: plus downward probes pruned by the interior-optimum re-check).
    n_certificate_skipped: int = 0
    #: Solved probes served from warm persistent-solver state (a successful
    #: basis transplant) instead of a cold start.
    n_basis_reused: int = 0
    #: Milestone searches ended by the interior-optimum short circuit (the
    #: winning probe's own optimum proved global optimality, so the
    #: downward confirmation probe was never solved).
    n_interior_exits: int = 0
    #: Per-search ``(solved, skipped)`` probe counts, one entry per milestone
    #: search, in completion order (feeds the per-replan medians of
    #: ``benchmarks/bench_lp_scaling.py``).
    searches: list[tuple[int, int]] = field(default_factory=list)
    #: Cross-run solver-state bank lookups that found a warm bucket for the
    #: run's instance content key (:mod:`repro.lp.bank`).
    n_bank_hits: int = 0
    #: Bank lookups that started a cold bucket (first run of a content group
    #: on its worker, or the bank disabled upstream never counts here).
    n_bank_misses: int = 0
    #: Whole LP solves skipped by reusing a stored primal solution -- a
    #: banked System (1)/(2) optimum for an exactly-matching problem
    #: signature, or the feasible-side shrink-only carry within a run.
    n_primal_reuses: int = 0
    #: Wall-clock seconds spent assembling LPs before handing them to the
    #: backend (interval structure + skeleton + COO blocks): the python-side
    #: cost the replan kernels of :mod:`repro.lp.kernels` attack.
    assembly_seconds: float = 0.0
    #: Wall-clock seconds inside whole milestone searches (bounds, milestone
    #: enumeration, probe loop -- solves included).
    search_seconds: float = 0.0
    #: Per-replan wall-clock latencies (seconds), one entry per scheduler
    #: replan in completion order; feeds the p50/p95 replan-latency columns
    #: of the overhead tables and the daemon's ``/telemetry`` replan p50/p90/p99.
    replan_latencies: list[float] = field(default_factory=list)

    @property
    def per_probe_seconds(self) -> float:
        """Mean wall-clock seconds per LP probe (0 when no probe ran)."""
        return self.solve_seconds / self.n_probes if self.n_probes else 0.0

    def fraction_of(self, total_seconds: float) -> float:
        """LP-solve share of ``total_seconds`` (e.g. the scheduler wall-clock)."""
        return self.solve_seconds / total_seconds if total_seconds > 0 else 0.0

    def replan_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the replan latencies, in seconds.

        Returns 0 when no replan was recorded.  Uses the nearest-rank
        definition so the value is always an actually-observed latency.
        """
        if not self.replan_latencies:
            return 0.0
        ordered = sorted(self.replan_latencies)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def histogram(self) -> dict[str, int]:
        """The probe-count histogram: solved vs certificate-skipped vs basis-reused."""
        return {
            "solved": self.n_probes,
            "certificate_skipped": self.n_certificate_skipped,
            "basis_reused": self.n_basis_reused,
            "interior_exits": self.n_interior_exits,
            "bank_hits": self.n_bank_hits,
            "bank_misses": self.n_bank_misses,
            "primal_reuses": self.n_primal_reuses,
        }


#: Stack of active stat collectors (nested ``record_lp_probes`` blocks all see
#: every probe run inside them).
_ACTIVE_STATS: list[LPProbeStats] = []


def _note_probe(backend_name: str, seconds: float) -> None:
    for stats in _ACTIVE_STATS:
        stats.n_probes += 1
        stats.solve_seconds += seconds
        stats.by_backend[backend_name] = stats.by_backend.get(backend_name, 0) + 1


def note_certificate_skips(count: int) -> None:
    """Record ``count`` milestone probes eliminated without an LP solve."""
    if count <= 0:
        return
    for stats in _ACTIVE_STATS:
        stats.n_certificate_skipped += count


def note_basis_reuse() -> None:
    """Record one solved probe served from warm persistent-solver state."""
    for stats in _ACTIVE_STATS:
        stats.n_basis_reused += 1


def note_milestone_search(solved: int, skipped: int, interior_exit: bool) -> None:
    """Record the probe economy of one completed milestone search."""
    for stats in _ACTIVE_STATS:
        stats.searches.append((solved, skipped))
        if interior_exit:
            stats.n_interior_exits += 1


def note_bank_lookup(hit: bool) -> None:
    """Record one solver-state-bank bucket acquisition (warm or cold)."""
    for stats in _ACTIVE_STATS:
        if hit:
            stats.n_bank_hits += 1
        else:
            stats.n_bank_misses += 1


def note_primal_reuse() -> None:
    """Record one whole LP solve replaced by a stored primal solution."""
    for stats in _ACTIVE_STATS:
        stats.n_primal_reuses += 1


def note_phase_assembly(seconds: float) -> None:
    """Record python-side LP assembly time (structure + skeleton + COO blocks)."""
    for stats in _ACTIVE_STATS:
        stats.assembly_seconds += seconds


def note_phase_search(seconds: float) -> None:
    """Record the wall-clock of one whole milestone search (solves included)."""
    for stats in _ACTIVE_STATS:
        stats.search_seconds += seconds


def note_replan(seconds: float) -> None:
    """Record the wall-clock latency of one scheduler replan."""
    for stats in _ACTIVE_STATS:
        stats.replan_latencies.append(seconds)


@contextmanager
def record_lp_probes() -> Iterator[LPProbeStats]:
    """Collect the number and wall-clock cost of LP solves in the block.

    >>> from repro.lp.backends import record_lp_probes
    >>> with record_lp_probes() as stats:
    ...     pass  # run a simulation / milestone search ...
    >>> stats.n_probes
    0

    The hook sits inside :meth:`SolverBackend.solve`, so it measures the pure
    solver time (model build + factorization + simplex/IPM), excluding the
    Python-side constraint assembly -- which is exactly the "LP is the floor"
    quantity tracked by ``benchmarks/bench_overhead.py``.
    """
    stats = LPProbeStats()
    _ACTIVE_STATS.append(stats)
    try:
        yield stats
    finally:
        # By identity: ``list.remove`` compares the dataclasses by value, and
        # nested collectors that saw the same probes are equal.
        del _ACTIVE_STATS[next(i for i, s in enumerate(_ACTIVE_STATS) if s is stats)]
