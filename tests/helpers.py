"""Plain (non-fixture) helpers shared across test modules.

Kept outside ``conftest.py`` so that test modules can import them by module
name: importing from ``conftest`` relies on the rootdir-relative package
layout and breaks collection when the tests directory is not a package
(``from .conftest import ...`` fails with "attempted relative import with no
known parent package").
"""

from __future__ import annotations

import math
import multiprocessing
from typing import Sequence

import numpy as np

import repro.lp.incremental as incremental_module
import repro.schedulers.offline as offline_module
import repro.schedulers.online_lp as online_lp_module
from repro.core.errors import SolverError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.schedule import Schedule
from repro.lp.aggregation import split_work_across_machines
from repro.lp.backends import LPSpec
from repro.lp.backends.highs import HighsPersistentBackend
from repro.lp.incremental import ReplanContext
from repro.lp.intervals import IntervalStructure
from repro.lp.maxstretch import MaxStretchSolution, Shares
from repro.lp.problem import Affine, MaxStretchProblem

from certify import certify, certify_system2
from scipy_backend import ScipyBackend

__all__ = [
    "make_uniform_instance",
    "lp_spec",
    "fail_first_highs_run",
    "run_lp_on_scipy",
    "record_answers",
    "certify_answers",
    "boundaries",
    "interval_length",
    "job_windows",
    "share_dict",
    "allocations",
    "shares_of",
    "assert_same_shares",
    "work_for_job",
    "max_weighted_flow_of_allocation",
    "schedule_of",
]


def make_uniform_instance(
    sizes: list[float],
    releases: list[float],
    cycle_times: list[float] = (1.0,),
    databank: str = "db",
) -> Instance:
    """Build a small uniform instance from per-job sizes and release dates."""
    platform = Platform.uniform(list(cycle_times), databanks=[databank])
    jobs = [
        Job(i, release=float(r), size=float(s), databank=databank)
        for i, (s, r) in enumerate(zip(sizes, releases))
    ]
    return Instance(jobs, platform)


def _coo(rows: Sequence[Sequence[float]]) -> tuple[list[int], list[int], list[float]]:
    entries = [(i, j, float(v)) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return [e[0] for e in entries], [e[1] for e in entries], [e[2] for e in entries]


def lp_spec(
    objective: Sequence[float],
    *,
    lower: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
    a_ub: Sequence[Sequence[float]] = (),
    b_ub: Sequence[float] = (),
    a_eq: Sequence[Sequence[float]] = (),
    b_eq: Sequence[float] = (),
) -> LPSpec:
    """``min c.x  s.t.  a_ub x <= b_ub, a_eq x = b_eq, lower <= x <= upper`` from dense rows.

    Bounds default to ``0 <= x < inf``; zero coefficients are left out of
    the COO triplets.
    """
    n = len(objective)
    ub_rows, ub_cols, ub_vals = _coo(a_ub)
    eq_rows, eq_cols, eq_vals = _coo(a_eq)
    return LPSpec(
        n_vars=n,
        objective=[float(c) for c in objective],
        lower=[0.0] * n if lower is None else [float(v) for v in lower],
        upper=[math.inf] * n if upper is None else [float(v) for v in upper],
        ub_rows=ub_rows,
        ub_cols=ub_cols,
        ub_vals=ub_vals,
        ub_rhs=[float(v) for v in b_ub],
        eq_rows=eq_rows,
        eq_cols=eq_cols,
        eq_vals=eq_vals,
        eq_rhs=[float(v) for v in b_eq],
    )


def fail_first_highs_run(monkeypatch) -> list[int]:
    """Make the next HiGHS ``_run`` raise :class:`SolverError`, once.

    Returns the list the patch appends to on each call, so a test can check
    the failure was actually injected.
    """
    real_run = HighsPersistentBackend._run
    calls: list[int] = []

    def run(self, highs, spec, warm):
        calls.append(len(calls))
        if len(calls) == 1:
            raise SolverError("injected HiGHS failure")
        return real_run(self, highs, spec, warm)

    monkeypatch.setattr(HighsPersistentBackend, "_run", run)
    return calls


def run_lp_on_scipy(monkeypatch) -> None:
    """Solve every on-line and off-line LP run on a fresh linprog reference.

    Patches the ``make_backend`` the replan context and ``OfflineScheduler``
    call at run start, so it reaches whole campaigns too: pool workers are
    forked and inherit the patch.  Where a campaign cannot name a backend,
    this is how a test runs it on the stateless, bit-stable solver.  Under
    another start method the workers would import the unpatched module and
    run on HiGHS unnoticed, so any other one fails the test here.
    """
    assert multiprocessing.get_start_method() == "fork", (
        "pool workers inherit the scipy patch only when forked"
    )
    for module in (incremental_module, offline_module):
        monkeypatch.setattr(module, "make_backend", lambda spec=None: ScipyBackend())


def record_answers(monkeypatch) -> tuple[list, list]:
    """``(problem, solution)`` of every System (1) and System (2) solve of a replan.

    Returns ``(seen, reoptimized)``, filled as the patched run goes: System
    (1) answers in ``seen``; System (2) answers -- and ``online-nonopt``'s
    generic-cost pick, which is the same program -- in ``reoptimized``.
    Context replans and degraded (machine-outage) replans are both recorded.
    """
    seen, reoptimized = [], []

    def spy(record, solve):
        def wrapped(*args, **kwargs):
            solution = solve(*args, **kwargs)
            problem = args[1] if isinstance(args[0], ReplanContext) else args[0]
            record.append((problem, solution))
            return solution

        return wrapped

    for owner, name, record in (
        (ReplanContext, "solve_max_stretch", seen),
        (ReplanContext, "_at_fixed_objective", reoptimized),
        (online_lp_module, "minimize_max_weighted_flow", seen),
        (online_lp_module, "reoptimize_allocation", reoptimized),
    ):
        monkeypatch.setattr(owner, name, spy(record, getattr(owner, name)))
    return seen, reoptimized


def certify_answers(seen: list, reoptimized: list) -> int:
    """Certify recorded answers; returns how many System (1) answers got a Hall check.

    Every System (2) answer passes ``certify_system2``; every System (1)
    answer passes ``certify`` where a Hall enumeration applies (on-line
    problems on at most three resources, or at most twelve jobs) -- the
    others still pass its feasibility check.
    """
    for problem, solution in reoptimized:
        certify_system2(problem, solution)
    certified = 0
    for problem, solution in seen:
        try:
            certify(problem, solution)
        except ValueError:
            continue  # no Hall enumeration applies; feasibility was checked first
        certified += 1
    return certified


def boundaries(structure: IntervalStructure) -> tuple[Affine, ...]:
    """The boundaries of ``structure`` as affine functions of the objective."""
    return tuple(
        Affine(const, coef)
        for const, coef in zip(structure.bnd_const.tolist(), structure.bnd_coef.tolist())
    )


def interval_length(structure: IntervalStructure, t: int) -> Affine:
    """The length of interval ``t`` as an affine function of the objective."""
    bounds = boundaries(structure)
    return bounds[t + 1] - bounds[t]


def job_windows(problem: MaxStretchProblem, structure: IntervalStructure) -> dict[int, range]:
    """Per job id, the intervals the job may be processed in (constraints (1b)/(1c))."""
    return {
        job.job_id: range(start, end)
        for job, start, end in zip(
            problem.jobs, structure.start_index.tolist(), structure.deadline_index.tolist()
        )
    }


# -- LP allocations: the Shares arrays read the way tests want them -----------------------
def share_dict(shares: Shares) -> dict[tuple[int, int, int], float]:
    """``shares`` as a ``(interval, resource, job id) -> work`` dict, in share order."""
    keys = zip(shares.t.tolist(), shares.c.tolist(), shares.job_id.tolist())
    return dict(zip(keys, shares.work.tolist()))


def allocations(solution: MaxStretchSolution) -> dict[tuple[int, int, int], float]:
    """The solution's allocation as a ``(interval, resource, job id) -> work`` dict."""
    return share_dict(solution.shares)


def shares_of(allocation: dict[tuple[int, int, int], float]) -> Shares:
    """:class:`Shares` arrays holding a ``(interval, resource, job id) -> work`` dict."""
    columns = list(zip(*allocation)) or [(), (), ()]
    return Shares.frozen(*columns, list(allocation.values()))


def assert_same_shares(got: MaxStretchSolution, want: MaxStretchSolution) -> None:
    """Both allocations hold the same entries, in the same order, bit for bit."""
    for name, a, b in zip(Shares._fields, got.shares, want.shares):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def work_for_job(solution: MaxStretchSolution, job_id: int) -> float:
    """Total work allocated to the job, summed in share order."""
    shares = solution.shares
    return float(
        sum(w for j, w in zip(shares.job_id.tolist(), shares.work.tolist()) if j == job_id)
    )


def max_weighted_flow_of_allocation(solution: MaxStretchSolution) -> float:
    """The max weighted flow the allocation implies.

    Every job completes no later than the end of its last interval with
    work, so this is a (possibly pessimistic) certificate that the
    allocation achieves ``solution.objective``.
    """
    last: dict[int, int] = {}
    for (t, _c, j), w in allocations(solution).items():
        if w > 0:
            last[j] = max(t, last.get(j, t))
    worst = 0.0
    for job in solution.problem.jobs:
        if job.job_id in last:
            completion = solution.interval_bounds[last[job.job_id]][1]
            worst = max(worst, (completion - job.release) / job.flow_factor)
    return worst


def schedule_of(lanes, instance: Instance) -> Schedule:
    """The per-machine :class:`Schedule` of plan lanes.

    Each row spreads over the machines of its lane, each machine doing work
    proportional to its speed (``split_work_across_machines``).
    """
    return Schedule(
        piece
        for machine_ids, rows in lanes
        for start, end, job_id in rows
        for piece in split_work_across_machines(instance, machine_ids, job_id, start, end)
    )
