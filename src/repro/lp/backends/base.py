"""Solver-backend abstraction for the System (1)/(2) linear programs.

A :class:`SolverBackend` turns an :class:`LPSpec` -- the arrays of System
(1) or (2), assembled by :mod:`repro.lp.maxstretch` from a constraint
skeleton -- into an :class:`LPResult`.  The package's one implementation is
:class:`~repro.lp.backends.highs.HighsPersistentBackend`: it builds a HiGHS
model per solve and keeps the latest basis of each warm-start series,
warm-starting dual simplex on the next model of the series from it, and
returns an optimal model for :meth:`SolverBackend.resolve_fixed` to
re-solve.  A probe it fails is re-solved once on a fresh, cold HiGHS model.
The abstract class is also the seam through which tests inject a reference
solver or a fake.

Persistent backends relate successive solves through the ``warm`` argument of
:meth:`SolverBackend.solve`: a :class:`WarmStartHint` names the series and
gives every variable and row a stable identity, through which the previous
basis of the series is mapped onto the new model -- the matrices of two
solves need not match.  A :class:`LiveResolve` hands over the model itself.

Each backend also carries the LP counters of the run using it,
:attr:`SolverBackend.stats` (an :class:`LPProbeStats`): how many solves it
ran and how long they took, plus what the milestone search, the replan
context and the scheduler record about the same run.  A run's backend is
not shared with any other run, so concurrent runs never count into each
other's numbers.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from repro.core.errors import SolverError

__all__ = [
    "annotate_solver_error",
    "LPResult",
    "LPSpec",
    "WarmStartHint",
    "LiveResolve",
    "SolverBackend",
    "LPProbeStats",
    "REPLAN_LATENCY_WINDOW",
    "nearest_rank",
]

#: Replan latencies and per-search probe counts an :class:`LPProbeStats`
#: keeps: the most recent ones only, so a long-lived daemon's memory and the
#: sort behind its p99 admission valve stay bounded.  A batch run replans
#: once per arrival burst, far fewer times than this.
REPLAN_LATENCY_WINDOW = 1024


def annotate_solver_error(exc: SolverError, **context: object) -> SolverError:
    """Fill unset structured-context fields of ``exc`` in place.

    Outer layers (the cold downgrade, the replan context) use this to add
    what they know -- backend name, probe signature -- without clobbering
    details the raising layer already recorded.
    """
    for key, value in context.items():
        if value is not None and getattr(exc, key, None) is None:
            setattr(exc, key, value)
    return exc


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` by nearest rank.

    Returns 0 for no values.  The nearest-rank definition makes the value
    always an actually-observed one.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LPResult:
    """Outcome of a linear program solve.

    Attributes
    ----------
    dual_ray:
        Optional infeasibility certificate (Farkas / dual ray) reported by
        backends that can produce one (the persistent HiGHS backend); always
        ``None`` on feasible solves, on solves that presolve settled and on
        backends without certificate support, in which case callers degrade
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
    model:
        Opaque handle on the live model of an optimal, hinted solve for
        :meth:`SolverBackend.resolve_fixed` (persistent HiGHS only, else
        ``None``); its ``spec`` attribute is the :class:`LPSpec` it solved.
    """

    status: int
    feasible: bool
    objective: float
    values: np.ndarray
    message: str = ""
    dual_ray: "np.ndarray | None" = None
    model: object | None = None

    def value(self, index: int) -> float:
        """Value of variable ``index`` in the optimal solution."""
        return float(self.values[index])


@dataclass(frozen=True)
class LPSpec:
    """The arrays of one ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``.

    The inequality/equality matrices are in COO triplet form; fields may be
    lists or numpy arrays (the System (1)/(2) assembly passes float64 /
    int64 numpy arrays throughout, some of them the skeleton's own index
    arrays).  Backends read the arrays and never write to them.
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
        first, then equality rows, matching the :class:`LPSpec` row order), as
        int64 numpy arrays -- integers so the basis mapping stays fully
        vectorized.  Identities present in the previous basis inherit its
        statuses; new ones start non-basic (columns) / basic-slack (rows).
    """

    series: Hashable
    col_ids: "np.ndarray"
    row_ids: "np.ndarray"


class LiveResolve(NamedTuple):
    """The ``warm`` of a live re-solve (:meth:`SolverBackend.resolve_fixed`).

    Not a basis to map onto a new model but the model itself: ``model``, an
    :attr:`LPResult.model`, re-solved with column ``column`` fixed at
    ``value`` and its costs replaced by ``costs``.
    """

    model: object
    column: int
    value: float
    costs: "np.ndarray"


class SolverBackend(ABC):
    """Strategy object solving one :class:`LPSpec` per :meth:`solve` call.

    Subclasses implement :meth:`_solve`; the public :meth:`solve` -- the
    entry point of every LP solve in the package -- wraps it with the probe
    timing, so every backend feeds the same LP-fraction accounting into
    :attr:`stats`.

    A backend serves one run: every run gets its own from
    :func:`~repro.lp.backends.make_backend` and starts by calling
    :meth:`close`, which also replaces :attr:`stats` by a fresh
    :class:`LPProbeStats` (so a caller-supplied instance that served an
    earlier run starts clean); whoever reports the run keeps a reference to
    that object.
    """

    #: Display name of the backend ("highs", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        #: The LP counters of the current run.
        self.stats = LPProbeStats()

    def _count_solve(self, seconds: float, spec: LPSpec) -> None:
        stats = self.stats
        stats.n_probes += 1
        stats.solve_seconds += seconds
        stats.n_columns += spec.n_vars
        stats.n_rows += spec.n_rows

    def solve(
        self, spec: LPSpec, *, warm: WarmStartHint | LiveResolve | None = None
    ) -> LPResult:
        """Solve ``spec``; ``feasible`` is False on a plain infeasibility.

        ``warm`` optionally carries the stable identities used to transplant
        the previous basis of the same series onto the freshly built model,
        or -- from :meth:`resolve_fixed` -- the live model to re-solve in
        place (one-shot backends ignore it).  Raises :class:`SolverError`
        for unexpected solver failures (numerical breakdown, unboundedness,
        ...), but *not* for plain infeasibility, which is an expected
        outcome during the milestone search.

        The persistent HiGHS backend re-solves a probe it fails once on a
        fresh, cold model before it lets a :class:`SolverError` through; in
        a campaign, one that survives aborts only its own run, which the
        runner records as a NaN-metrics ``failed`` record
        (``experiments/runner.py``).

        Every solve of the package -- live re-solves included -- passes
        here, and is timed and counted once, under this backend's name.
        """
        start = time.perf_counter()
        try:
            return self._solve(spec, warm=warm)
        finally:
            self._count_solve(time.perf_counter() - start, spec)

    @abstractmethod
    def _solve(
        self, spec: LPSpec, *, warm: WarmStartHint | LiveResolve | None = None
    ) -> LPResult:
        """Backend-specific solve (timed and accounted by :meth:`solve`)."""

    def resolve_fixed(self, model, *, column: int, value: float, costs) -> LPResult:
        """Re-solve an :attr:`LPResult.model`: ``column`` fixed at ``value``, new
        ``costs``.

        A :meth:`solve` of the model's spec with a :class:`LiveResolve` as its
        ``warm``, counted as a solve and a basis reuse.  Raises SolverError on
        failure, with no cold retry: the caller builds the program afresh.
        Only backends that hand out models get here.
        """
        result = self.solve(model.spec, warm=LiveResolve(model, column, value, costs))
        self.stats.n_basis_reused += 1
        self.stats.n_live_reoptimizations += 1
        return result

    def close(self) -> None:
        """Release any persistent solver state and start a fresh :attr:`stats`."""
        self.stats = LPProbeStats()

    def release(self) -> None:
        """Drop solver objects kept for reuse (the run's solves are over).

        Series bases and :attr:`stats` stay.  A no-op for backends that keep
        none.
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


@dataclass
class LPProbeStats:
    """The LP counters of one run, kept on the run's :attr:`SolverBackend.stats`.

    The backend counts its solves and their solver time
    (:attr:`solve_seconds`); the milestone search, the replan context and
    the scheduler add what they see of the same run: the
    *probe-elimination histogram* of the certificate-guided search
    (:mod:`repro.lp.maxstretch`) -- probes solved,
    probes skipped by a dual-ray bound or the interior-optimum re-check,
    solves served warm from a transplanted basis --, the solver-state bank
    lookups and reuses, and the replan latencies.  The engine hands the
    object out as :attr:`SimulationResult.lp_probes
    <repro.simulation.result.SimulationResult.lp_probes>`; LP-free runs get
    an empty one.
    """

    n_probes: int = 0
    #: Wall-clock seconds inside :meth:`SolverBackend.solve` /
    #: :meth:`~SolverBackend.resolve_fixed`: the model build (on HiGHS the
    #: CSC arrays and ``passModel``), the basis transplant -- including the
    #: conversion of the series' captured basis it reads --, the solver run
    #: and the basis capture.  The ``LPSpec`` assembly is not included.
    solve_seconds: float = 0.0
    #: The part of :attr:`solve_seconds` inside the solver itself
    #: (``Highs.run``).  The rest of
    #: :attr:`solve_seconds` is the Python around the solver.
    run_seconds: float = 0.0
    #: Columns and rows of the programs solved, summed over the solves
    #: (a live re-solve counts its model's).
    n_columns: int = 0
    n_rows: int = 0
    #: Milestone probes eliminated without an LP solve (certificate jumps
    #: plus downward probes pruned by the interior-optimum re-check).
    n_certificate_skipped: int = 0
    #: Solved probes served from warm persistent-solver state (a successful
    #: basis transplant) instead of a cold start.
    n_basis_reused: int = 0
    #: System (2) solves run on the winning System (1) probe's model.
    n_live_reoptimizations: int = 0
    #: Milestone searches ended by the interior-optimum short circuit (the
    #: winning probe's own optimum proved global optimality, so the
    #: downward confirmation probe was never solved).
    n_interior_exits: int = 0
    #: Per-search ``(solved, skipped)`` probe counts of the last
    #: :data:`REPLAN_LATENCY_WINDOW` milestone searches, in completion order
    #: (feeds the per-replan medians of ``benchmarks/bench_lp_scaling.py``).
    searches: deque[tuple[int, int]] = field(
        default_factory=lambda: deque(maxlen=REPLAN_LATENCY_WINDOW)
    )
    #: Milestone searches recorded by :meth:`record_search`, and the probes
    #: they solved, over the whole run.
    n_searches: int = 0
    n_search_probes: int = 0
    #: Probes the HiGHS backend failed and then answered on a fresh, cold
    #: model (the downgrade of ``HighsPersistentBackend._solve``).
    n_downgrades: int = 0
    #: Cross-run solver-state bank lookups that found a warm bucket for the
    #: run's instance content key (:mod:`repro.lp.bank`).
    n_bank_hits: int = 0
    #: Bank lookups that found a cold bucket: the first run of a content
    #: group on its worker.  A run without a bank makes no lookup.
    n_bank_misses: int = 0
    #: Whole LP solves skipped by reusing a banked System (1)/(2) optimum
    #: for an exactly-matching problem signature.
    n_primal_reuses: int = 0
    #: Wall-clock seconds spent assembling System (1) probes before handing
    #: them to the backend: interval structure, skeleton arrays, ``LPSpec``
    #: and warm-start hint.
    assembly_seconds: float = 0.0
    #: Wall-clock seconds inside whole milestone searches (bounds, milestone
    #: enumeration, probe loop -- solves included).
    search_seconds: float = 0.0
    #: Scheduler replans recorded by :meth:`record_replan`.
    n_replans: int = 0
    #: Wall-clock latencies (seconds) of the last
    #: :data:`REPLAN_LATENCY_WINDOW` replans, in completion order; feeds the
    #: p50/p95 replan-latency columns of the overhead tables and the
    #: daemon's ``/telemetry`` replan p50/p90/p99.
    replan_latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=REPLAN_LATENCY_WINDOW)
    )

    def record_search(self, solved: int, skipped: int) -> None:
        """Count one milestone search's solved and certificate-skipped probes."""
        self.n_searches += 1
        self.n_search_probes += solved
        self.n_certificate_skipped += skipped
        self.searches.append((solved, skipped))

    @property
    def per_probe_seconds(self) -> float:
        """Mean wall-clock seconds per LP probe (0 when no probe ran)."""
        return self.solve_seconds / self.n_probes if self.n_probes else 0.0

    def fraction_of(self, total_seconds: float) -> float:
        """LP-solve share of ``total_seconds`` (e.g. the scheduler wall-clock)."""
        return self.solve_seconds / total_seconds if total_seconds > 0 else 0.0

    def record_replan(self, seconds: float) -> None:
        """Count one replan and keep its latency in the recent window."""
        self.n_replans += 1
        self.replan_latencies.append(seconds)

    def replan_percentile(self, q: float) -> float:
        """The :func:`nearest_rank` ``q``-th percentile of the recent replan latencies."""
        return nearest_rank(self.replan_latencies, q)

    def histogram(self) -> dict[str, int]:
        """The probe-count histogram: solved vs skipped vs basis-reused vs downgraded."""
        return {
            "solved": self.n_probes,
            "certificate_skipped": self.n_certificate_skipped,
            "basis_reused": self.n_basis_reused,
            "live_reoptimizations": self.n_live_reoptimizations,
            "interior_exits": self.n_interior_exits,
            "downgrades": self.n_downgrades,
            "bank_hits": self.n_bank_hits,
            "bank_misses": self.n_bank_misses,
            "primal_reuses": self.n_primal_reuses,
        }
