"""System (1): optimal max weighted flow / max-stretch (Section 4.3.1).

The off-line optimal maximum weighted flow is computed by

1. bracketing the optimum between a trivial lower bound (every job needs at
   least its ideal time) and a trivial upper bound (serial execution),
2. enumerating the *milestones* inside the bracket
   (:mod:`repro.lp.milestones`),
3. locating the first milestone interval on which the parametric linear
   program System (1) is feasible, and
4. returning that LP's minimizer, which is the global optimum because
   feasibility of "max weighted flow <= F" is monotone in ``F``.

Step 3 is a *certificate-guided parametric search*: because the deadline
right-hand sides are affine in the objective ``F``, the Farkas/dual-ray
certificate of an infeasible probe evaluates to an affine function
``g(F) = A + B F`` that every feasible objective must keep non-negative, so
a single infeasible solve refutes every milestone below ``-A/B`` and the
search jumps straight past them.  Symmetrically, a feasible probe whose LP
optimum lands *strictly inside* its milestone interval is already the global
optimum (monotone feasibility), so the downward confirmation probes of the
classical gallop are skipped outright.  Backends without certificate support
(the tests' one-shot ``linprog`` reference) degrade to the uncertified probe
order; results are identical either way, only the number of LPs actually
solved changes (the legacy gallop + bisection is the test oracle in
``tests/replan_oracles.py``).

The LP works on *resources* (capability classes) rather than individual
machines, and on *job classes* rather than individual jobs: the jobs of one
class share eligible resources, flow factor and remaining work (in the
GriPPS model, the unstarted requests of one databank).  Variables are the
amounts of work ``x[t, c, k]`` of class ``k`` processed on resource ``c``
during elementary interval ``t``, one slack per (class, member deadline),
and the objective ``F`` itself.  Constraints are (1a)-(1e) of the paper
written for classes: interval/resource capacities (affine in ``F``),
structural zeros outside the class's window, and per-class slack chains
that make every member's deadline and completeness hold once the class's
work is served first-in first-out -- assembled into one
:class:`~repro.lp.backends.LPSpec` from the index arrays of a
:class:`ConstraintSkeleton`.  :class:`MaxStretchSolution` carries the
per-job allocation that split yields as flat :class:`Shares` arrays.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import MutableMapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import InfeasibleError
from repro.lp import kernels
from repro.lp.backends import LPSpec, SolverBackend, WarmStartHint, make_backend
from repro.lp.intervals import IntervalStructure, build_interval_structure
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import MaxStretchProblem

__all__ = [
    "MaxStretchSolution",
    "Shares",
    "ConstraintSkeleton",
    "LiveProbe",
    "MilestoneSearchReport",
    "build_skeleton",
    "warm_hint",
    "minimize_max_weighted_flow",
    "solve_on_objective_range",
]

#: Work amounts below this threshold (relative to the job's remaining work)
#: are dropped from the reported allocation.
_ALLOCATION_EPS = 1e-10


class Shares(NamedTuple):
    """An LP allocation as parallel read-only arrays, one entry per piece of work.

    Entry ``i`` is ``work[i]`` units of job ``job_id[i]`` on resource
    ``c[i]`` during elementary interval ``t[i]``.  Entries come in job
    order, then column order, and no ``(t, c, job_id)`` repeats.
    """

    t: np.ndarray
    c: np.ndarray
    job_id: np.ndarray
    work: np.ndarray

    @classmethod
    def frozen(cls, t, c, job_id, work) -> "Shares":
        """Copies of the four columns (int64, int64, int64, float64), read-only."""
        columns = []
        for values, dtype in zip((t, c, job_id, work), (np.int64, np.int64, np.int64, np.float64)):
            column = np.array(values, dtype=dtype)
            column.flags.writeable = False
            columns.append(column)
        return cls(*columns)


#: The allocation of a problem without jobs.
NO_SHARES = Shares.frozen((), (), (), ())


@dataclass(frozen=True, eq=False)
class MaxStretchSolution:
    """A feasible (usually optimal) allocation achieving a given max weighted flow.

    Attributes
    ----------
    objective:
        The achieved maximum weighted flow :math:`\\mathcal{F}` (equals the
        max-stretch when stretch weights are used).
    problem:
        The problem that was solved.
    structure:
        The interval structure used by the LP.
    interval_bounds:
        The elementary intervals, evaluated at :attr:`objective`, as
        ``(start, end)`` pairs.
    shares:
        The allocation, ``(interval, resource, job id, work)`` as
        :class:`Shares` arrays; :mod:`repro.lp.aggregation` derives the
        per-job totals the plans read from them.
    """

    objective: float
    problem: MaxStretchProblem
    structure: IntervalStructure
    interval_bounds: tuple[tuple[float, float], ...]
    shares: Shares

    def deadline(self, job_id: int) -> float:
        """Deadline of the job at the achieved objective."""
        return self.problem.job_by_id(job_id).deadline(self.objective)


@dataclass(frozen=True, eq=False)
class ConstraintSkeleton:
    """The structural part of a System (1)/(2) linear program, one column per job class.

    A *class* (:func:`_job_classes`) is a set of jobs with equal eligible
    resources, flow factor and remaining work -- in the GriPPS model, the
    unstarted requests of one databank.  Ordered by release, the members'
    windows are ordered the same way at both ends, so serving a class
    first-in first-out is optimal (an exchange argument), and System (2)'s
    cost per unit of work, ``midpoint[t] / work``, is the same for every
    member.  So a class gets one column ``x[t, c, k]`` per interval and
    eligible resource, and :func:`_extract_allocations` splits the optimum
    back into the per-job :class:`Shares`.

    Nothing here depends on the objective bounds, the works or the costs
    (right-hand sides are member counts, scaled by the class work in
    :func:`_lp_spec`), so the :class:`~repro.lp.incremental.ReplanContext`
    caches skeletons by :attr:`signature`: the winning System (1) probe and
    the System (2) solve after it share one.

    Columns come class by class (classes in the release order of their
    first member): the class's ``x`` by interval, then resource, from its
    first member's start to its last member's deadline; then one slack per
    (class, member deadline boundary ``b``) but the class's last -- the
    class's work done by ``b`` minus the work of the members due by ``b``.
    Rows:

    * capacity rows (1d), one per (interval, resource) some column uses,
      sorted by (interval, resource);
    * release rows, off-line only, one per later member release date
      ``e`` of a class: ``slack(b) + the class's x from b to e <= (members
      released before e - members due by b) * work``, ``b`` the class's
      last deadline boundary at or before ``e``;
    * chain rows, one per (class, member deadline boundary ``b``), class
      by class: ``the class's x in the block ending at b + slack(previous)
      - slack(b) = (members due at b) * work``.

    Every constraint but ``x, slack >= 0`` and the objective's range is a
    row with a constant right-hand side, so an infeasible probe's dual ray
    evaluates to an affine bound on ``F`` (:func:`_probe_certificate`).
    Index arrays are int64, lengths float64; nothing here is ever written
    to.

    Attributes
    ----------
    structure, signature:
        The interval structure the skeleton was built on; the cache key
        (boundaries, job windows, job ids, class labels and resources).
    key_t, key_c, key_k:
        Per ``x`` column: its interval, resource and class.
    n_slacks:
        Number of slack columns (after the ``x`` columns).
    cap_entry_rows, cap_entry_cols, cap_t, cap_c, cap_len_const, cap_len_coef:
        The capacity block's unit entries (columns ascending inside a
        row); per capacity row its interval, resource and length
        ``const + coef * F``.
    rel_entry_rows, rel_entry_cols, rel_class, rel_count:
        The release rows' unit entries (rows numbered after the capacity
        rows); per release row its class and right-hand side in works.
    chain_entry_rows, chain_entry_cols, chain_entry_vals, chain_class, chain_count:
        The chain rows' entries; per chain row its class and the number
        of members due at it.
    class_pos, col_start, member_start:
        Per class: its first member's position in ``problem.jobs``; its
        first ``x`` column and first member index (both then the totals).
    member_pos, member_id, member_class, member_lo, member_hi:
        Per member (class by class, in release order): position in
        ``problem.jobs``, job id, class, and window as ``x`` columns.
    warm_col_ids, warm_row_ids:
        The identities of :func:`warm_hint`: ``F``, then every column; the
        capacity, release, then chain rows.
    """

    structure: IntervalStructure
    signature: tuple
    key_t: np.ndarray
    key_c: np.ndarray
    key_k: np.ndarray
    n_slacks: int
    cap_entry_rows: np.ndarray
    cap_entry_cols: np.ndarray
    cap_t: np.ndarray
    cap_c: np.ndarray
    cap_len_const: np.ndarray
    cap_len_coef: np.ndarray
    rel_entry_rows: np.ndarray
    rel_entry_cols: np.ndarray
    rel_class: np.ndarray
    rel_count: np.ndarray
    chain_entry_rows: np.ndarray
    chain_entry_cols: np.ndarray
    chain_entry_vals: np.ndarray
    chain_class: np.ndarray
    chain_count: np.ndarray
    class_pos: np.ndarray
    member_start: np.ndarray
    member_pos: np.ndarray
    member_id: np.ndarray
    member_class: np.ndarray
    member_lo: np.ndarray
    member_hi: np.ndarray
    col_start: np.ndarray
    warm_col_ids: np.ndarray
    warm_row_ids: np.ndarray

    @property
    def n_variables(self) -> int:
        """Columns besides ``F``: the ``x`` columns, then the slacks."""
        return self.key_t.size + self.n_slacks


#: Stable column identity of the objective variable F in warm-start hints
#: (work-variable identities are non-negative bit-packed triples).
_F_COL_ID = -1
#: Tags of the warm-start identities that are not (interval, resource[, class]).
_SLACK_TAG = 1 << 61
_CHAIN_TAG = 1 << 60
_RELEASE_TAG = 1 << 59
_F_WARM_ID = np.array([_F_COL_ID], dtype=np.int64)
#: The row block of a problem without release rows (read-only).
_NO_ROWS = np.zeros(0, dtype=np.int64)


class _JobClasses(NamedTuple):
    """A problem's job classes (:func:`_job_classes`), with their per-class arrays."""

    #: Cache-key part of the skeleton signature: job ids, class labels (in
    #: job order) and class resources.
    key: tuple
    #: Job positions class by class, in release order inside a class.
    member_pos: np.ndarray
    #: Job ids and class index of the members (in ``member_pos`` order).
    member_id: np.ndarray
    member_class: np.ndarray
    #: Offsets of the classes in the member arrays (length ``classes + 1``).
    member_start: np.ndarray
    #: Per class: its resource count and the offset of its resources in
    #: ``resources``, the classes' eligible resources back to back.
    n_res: np.ndarray
    res_start: np.ndarray
    resources: np.ndarray


def _job_classes(problem: MaxStretchProblem) -> _JobClasses:
    """The job classes of ``problem``, computed once per problem.

    Jobs of equal ``(resources, flow factor, remaining work)`` taken in
    release order have nondecreasing deadlines; a class also needs
    nondecreasing earliest starts, which every problem built from an
    instance has (``max(release, now)``), so a job starting before the
    previous member of its group opens a new class.  Classes are numbered
    in the release order of their first member.  A started job's remaining
    work differs from its databank's size, so it forms a class of its own.
    """
    classes = problem.__dict__.get("_job_classes")
    if classes is None:
        jobs = problem.jobs
        starts, releases, factors = problem.job_vectors()
        eligible = [job.resources for job in jobs]
        keys = list(zip(eligible, factors.tolist(), problem.remaining_works().tolist()))
        start_of = starts.tolist()
        open_class: dict[tuple, int] = {}
        last_start: list[float] = []
        members: list[list[int]] = []
        resources: list[tuple[int, ...]] = []
        labels = [0] * len(jobs)
        # Release order, then start order, then job order (lexsort is stable).
        for pos in np.lexsort((starts, releases)).tolist():
            start = start_of[pos]
            label = open_class.get(keys[pos])
            if label is None or start < last_start[label]:
                label = open_class[keys[pos]] = len(members)
                last_start.append(start)
                members.append([])
                resources.append(eligible[pos])
            last_start[label] = start
            members[label].append(pos)
            labels[pos] = label
        sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        n_res = np.fromiter(map(len, resources), dtype=np.int64, count=len(members))
        member_pos = np.fromiter(
            (pos for m in members for pos in m), dtype=np.int64, count=len(jobs)
        )
        ids = tuple(job.job_id for job in jobs)
        classes = _JobClasses(
            key=(ids, tuple(labels), tuple(resources)),
            member_pos=member_pos,
            member_id=np.array(ids, dtype=np.int64)[member_pos],
            member_class=np.repeat(np.arange(len(members), dtype=np.int64), sizes),
            member_start=np.concatenate(([0], np.cumsum(sizes))),
            n_res=n_res,
            res_start=np.cumsum(n_res) - n_res,
            resources=np.fromiter(
                (c for r in resources for c in r), dtype=np.int64, count=int(n_res.sum())
            ),
        )
        # Frozen dataclass: a pure cache, like the problem's own arrays.
        object.__setattr__(problem, "_job_classes", classes)
    return classes


def build_skeleton(
    problem: MaxStretchProblem,
    structure: IntervalStructure,
    cache: MutableMapping[tuple, "ConstraintSkeleton"] | None = None,
) -> ConstraintSkeleton | None:
    """Build (or fetch from ``cache``) the constraint skeleton for ``structure``.

    Returns ``None`` when some job has no interval to run in, i.e. its
    deadline does not lie strictly after its earliest start -- the quick
    structural infeasibility check of the milestone search.  Class ``k``'s
    columns cover the intervals ``[first member's start, last member's
    deadline)``, so every per-column array comes from one ``np.repeat``
    over the classes, and every row block from array operations over the
    members.
    """
    starts = structure.start_index
    ends = structure.deadline_index
    if (ends <= starts).any():
        return None

    classes = _job_classes(problem)
    bnd_const = structure.bnd_const
    bnd_coef = structure.bnd_coef
    signature = (
        bnd_const.tobytes(), bnd_coef.tobytes(), starts.tobytes(), ends.tobytes(), classes.key
    )
    if cache is not None:
        cached = cache.get(signature)
        if cached is not None:
            return cached

    member_start = classes.member_start
    member_class = classes.member_class
    member_id = classes.member_id
    n_res = classes.n_res
    first = member_start[:-1]
    start = starts[classes.member_pos]
    end = ends[classes.member_pos]
    # Release order is start and deadline order inside a class.
    class_start = start[first]

    # Column k of class p is interval class_start[p] + k // n_res[p] on
    # resource number k % n_res[p] of the class.
    col_start = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum((end[member_start[1:] - 1] - class_start) * n_res, out=col_start[1:])
    key_k = np.repeat(np.arange(first.size, dtype=np.int64), np.diff(col_start))
    local = np.arange(key_k.size, dtype=np.int64) - col_start[key_k]
    width = n_res[key_k]
    key_t = class_start[key_k] + local // width
    key_c = classes.resources[classes.res_start[key_k] + local % width]
    n_x = key_t.size

    # Capacity rows: a stable sort by (interval, resource) keeps the columns
    # of one row in ascending order.
    cap_entry_cols = np.lexsort((key_c, key_t))
    sorted_t = key_t[cap_entry_cols]
    sorted_c = key_c[cap_entry_cols]
    new_row = np.ones(cap_entry_cols.size, dtype=bool)
    np.logical_or(sorted_t[1:] != sorted_t[:-1], sorted_c[1:] != sorted_c[:-1], out=new_row[1:])
    cap_t = sorted_t[new_row]
    cap_c = sorted_c[new_row]

    # Chain rows: one per run of members with equal (class, deadline).  An x
    # column belongs to the first chain row of its class whose deadline
    # boundary lies after its interval.
    span = bnd_const.size
    new_due = np.ones(member_id.size, dtype=bool)
    np.logical_or(member_class[1:] != member_class[:-1], end[1:] != end[:-1], out=new_due[1:])
    chain_first = np.nonzero(new_due)[0]
    chain_class = member_class[chain_first]
    chain_key = chain_class * span + end[chain_first]
    has_slack = np.zeros(chain_first.size, dtype=bool)
    has_slack[:-1] = chain_class[1:] == chain_class[:-1]
    slack_row = np.nonzero(has_slack)[0]
    slack_col = np.arange(n_x, n_x + slack_row.size, dtype=np.int64)
    chain_end = np.append(chain_first[1:], member_id.size)

    # Release rows (off-line problems only): one per run of members with
    # equal (class, start) after the class's first start, written on the
    # slack of the class's last deadline boundary at or before that start.
    later = start != class_start[member_class]
    if later.any():
        new_start = np.ones(member_id.size, dtype=bool)
        new_start[1:] = start[1:] != start[:-1]
        rel_first = np.nonzero(new_start & later)[0]
        rel_class = member_class[rel_first]
        rel_start = start[rel_first]
        prev = np.searchsorted(chain_key, rel_class * span + rel_start, side="right") - 1
        has_prev = (prev >= 0) & (chain_class[prev] == rel_class)
        col0 = col_start[rel_class] - class_start[rel_class] * n_res[rel_class]
        from_t = np.where(has_prev, end[chain_first[prev]], class_start[rel_class])
        lengths = (rel_start - from_t) * n_res[rel_class]
        rel_x_rows = np.repeat(np.arange(rel_first.size, dtype=np.int64), lengths)
        rel_x_cols = np.arange(rel_x_rows.size, dtype=np.int64) + (
            col0 + from_t * n_res[rel_class] - (np.cumsum(lengths) - lengths)
        )[rel_x_rows]
        rel_entry_rows = cap_t.size + np.concatenate([rel_x_rows, np.nonzero(has_prev)[0]])
        rel_entry_cols = np.concatenate(
            [rel_x_cols, slack_col[(np.cumsum(has_slack) - 1)[prev[has_prev]]]]
        )
        rel_count = rel_first - np.where(has_prev, chain_end[prev], first[rel_class])
    else:
        rel_first = rel_class = rel_count = rel_entry_rows = rel_entry_cols = _NO_ROWS

    member_col0 = col_start[member_class] - class_start[member_class] * n_res[member_class]
    skeleton = ConstraintSkeleton(
        structure=structure,
        signature=signature,
        key_t=key_t,
        key_c=key_c,
        key_k=key_k,
        n_slacks=slack_row.size,
        cap_entry_rows=np.cumsum(new_row, dtype=np.int64) - 1,
        cap_entry_cols=cap_entry_cols,
        cap_t=cap_t,
        cap_c=cap_c,
        # Interval lengths as affines in F: one subtraction of boundaries.
        cap_len_const=bnd_const[cap_t + 1] - bnd_const[cap_t],
        cap_len_coef=bnd_coef[cap_t + 1] - bnd_coef[cap_t],
        rel_entry_rows=rel_entry_rows,
        rel_entry_cols=rel_entry_cols,
        rel_class=rel_class,
        rel_count=rel_count,
        chain_entry_rows=np.concatenate(
            [
                np.searchsorted(chain_key, key_k * span + key_t, side="right"),
                slack_row,
                slack_row + 1,
            ]
        ),
        chain_entry_cols=np.concatenate([np.arange(n_x, dtype=np.int64), slack_col, slack_col]),
        chain_entry_vals=np.concatenate(
            [np.ones(n_x), np.full(slack_row.size, -1.0), np.ones(slack_row.size)]
        ),
        chain_class=chain_class,
        chain_count=chain_end - chain_first,
        class_pos=classes.member_pos[first],
        member_start=member_start,
        member_pos=classes.member_pos,
        member_id=member_id,
        member_class=member_class,
        member_lo=member_col0 + start * n_res[member_class],
        member_hi=member_col0 + end * n_res[member_class],
        col_start=col_start,
        warm_col_ids=np.concatenate(
            [
                _F_WARM_ID,
                (key_t << 36) | (key_c << 24) | member_id[first][key_k],
                _SLACK_TAG | member_id[chain_first[slack_row]],
            ]
        ),
        warm_row_ids=np.concatenate(
            [
                (cap_t << 12) | cap_c,
                _RELEASE_TAG | member_id[rel_first],
                _CHAIN_TAG | member_id[chain_first],
            ]
        ),
    )
    if cache is not None:
        cache[signature] = skeleton
    return skeleton


def warm_hint(skeleton: ConstraintSkeleton, *, with_objective_var: bool) -> WarmStartHint:
    """Basis-transplant identities for the LP built from ``skeleton``.

    Work columns are identified by their ``(interval, resource, class)``
    triple -- a class by the job id of its first member --, slacks and
    chain rows by the job id of the first member due at their deadline,
    release rows by that of the first member released at their date, and
    capacity rows by ``(interval, resource)``, all bit-packed into int64 so
    the backend's basis mapping stays vectorized.  When every member has a
    deadline of its own, a chain row's identity is the completeness-row
    identity of that job.  Consecutive milestone probes (and the System (2)
    solve after the winning probe -- ``with_objective_var=False`` drops the
    F column) overlap on most identities, so the previous basis mapped
    through them is a near-optimal starting basis even though the matrices
    differ.  All LPs of one search/replan sequence share a single series:
    the backend is per-context, so bases never leak across simulation runs.

    The hint holds the skeleton's own :attr:`~ConstraintSkeleton.warm_col_ids`
    / :attr:`~ConstraintSkeleton.warm_row_ids` (no copy).
    """
    col_ids = skeleton.warm_col_ids
    return WarmStartHint(
        series="milestone-lps",
        col_ids=col_ids if with_objective_var else col_ids[1:],
        row_ids=skeleton.warm_row_ids,
    )


def _row_rhs(
    problem: MaxStretchProblem, skeleton: ConstraintSkeleton
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the release rows and of the chain rows.

    Member counts times the class's remaining work, read at the class's
    first member.
    """
    work = problem.remaining_works()[skeleton.class_pos]
    return (
        skeleton.rel_count * work[skeleton.rel_class],
        skeleton.chain_count * work[skeleton.chain_class],
    )


def _lp_spec(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    *,
    f_range: tuple[float, float] | None = None,
    fixed_objective: float | None = None,
    costs: np.ndarray | None = None,
) -> LPSpec:
    """The System (1) or System (2) program on ``skeleton``, as one :class:`LPSpec`.

    With ``f_range = (f_low, f_high)`` this is System (1): ``min F`` over
    ``f_low <= F <= f_high``, ``F`` in column 0 and the skeleton's columns
    after it, capacities affine in ``F`` (zero ``F`` coefficients dropped).
    Otherwise it is System (2) at ``fixed_objective``: the skeleton's
    columns only, costs ``costs`` and constant capacities.  Inequality rows
    are the capacity rows (1d), sorted by (interval, resource), then the
    release rows; the equality rows are the chain rows.  Every array is
    derived from the skeleton's index arrays by numpy operations, without a
    per-entry Python loop.
    """
    n_cols = skeleton.n_variables
    n_x = skeleton.key_t.size
    speeds = problem.resource_speeds()[skeleton.cap_c]
    if f_range is not None:
        offset = 1
        cap_rows, cap_cols, cap_vals, cap_rhs = kernels.scatter_capacity_sys1(
            skeleton.cap_entry_rows,
            skeleton.cap_entry_cols,
            skeleton.cap_len_const,
            skeleton.cap_len_coef,
            speeds,
            offset,
            0,
        )
        objective = np.concatenate(([1.0], np.zeros(n_cols)))
        lower = np.concatenate(([f_range[0]], np.zeros(n_cols)))
        upper = np.concatenate(([f_range[1]], np.full(n_cols, math.inf)))
    else:
        assert fixed_objective is not None and costs is not None
        offset = 0
        cap_rows = skeleton.cap_entry_rows
        cap_cols = skeleton.cap_entry_cols
        cap_vals = np.ones(n_x, dtype=np.float64)
        cap_rhs = speeds * np.maximum(
            0.0, skeleton.cap_len_const + skeleton.cap_len_coef * fixed_objective
        )
        objective = costs
        lower = np.zeros(n_cols)
        upper = np.full(n_cols, math.inf)
    rel_rhs, chain_rhs = _row_rhs(problem, skeleton)
    return LPSpec(
        n_vars=offset + n_cols,
        objective=objective,
        lower=lower,
        upper=upper,
        ub_rows=np.concatenate([cap_rows, skeleton.rel_entry_rows]),
        ub_cols=np.concatenate([cap_cols, skeleton.rel_entry_cols + offset]),
        ub_vals=np.concatenate([cap_vals, np.ones(skeleton.rel_entry_rows.size)]),
        ub_rhs=np.concatenate([cap_rhs, rel_rhs]),
        eq_rows=skeleton.chain_entry_rows,
        eq_cols=skeleton.chain_entry_cols + offset,
        eq_vals=skeleton.chain_entry_vals,
        eq_rhs=chain_rhs,
    )


class LiveProbe(NamedTuple):
    """A feasible probe's ``LPResult.model`` (``F`` is column 0), skeleton, F bounds."""

    model: object
    skeleton: ConstraintSkeleton
    f_low: float
    f_high: float


@dataclass
class ProbeOutcome:
    """Mutable side channel filled by :func:`solve_on_objective_range`.

    ``certificate_bound`` is populated on infeasible probes whose backend
    produced a usable dual ray (persistent HiGHS), ``live`` on feasible
    probes whose backend keeps models; both stay ``None`` otherwise.
    """

    certificate_bound: float | None = None
    live: LiveProbe | None = None


@dataclass
class MilestoneSearchReport:
    """What one milestone search hands its caller (filled when requested).

    The search's probe economy goes to the backend's
    :attr:`~repro.lp.backends.SolverBackend.stats` instead.

    Attributes
    ----------
    live:
        The winning probe's :class:`LiveProbe`, for System (2) (or ``None``).
    """

    live: LiveProbe | None = None


#: Coefficients of F below this threshold make a certificate bound
#: numerically meaningless (division blows up); such rays are discarded.
_RAY_COEF_EPS = 1e-12

#: Relative margin by which a feasible probe's optimum must clear its
#: interval's lower boundary before the interior-optimum short circuit
#: declares it globally optimal.  Must exceed the LP solvers' objective
#: tolerance (~1e-9) so a boundary optimum is never mistaken for an
#: interior one; at a true interior optimum the margin is the distance to
#: the previous milestone, orders of magnitude larger.
_INTERIOR_RTOL = 1e-7


def _probe_certificate(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    dual_ray: np.ndarray,
    outcome: "ProbeOutcome",
) -> None:
    """Evaluate a dual ray as an affine function of F and fill ``outcome``.

    The ray's aggregated constraint reads ``g(F) = A + v . b + B F`` with
    ``A`` / ``B`` the capacity multipliers ``u`` against the constant /
    ``F`` parts of the capacities and ``v . b`` the other multipliers
    against the right-hand sides of the release and chain rows.  Every
    feasible objective keeps ``g(F) >= 0``, so for ``B > 0`` the bound is
    ``-(A + v . b) / B``; a ``B`` too small to divide by, or a non-finite
    bound, is discarded.
    """
    n_cap = skeleton.cap_c.size
    rel_rhs, chain_rhs = _row_rhs(problem, skeleton)
    if dual_ray.size != n_cap + rel_rhs.size + chain_rhs.size:
        return
    u = dual_ray[:n_cap]
    v = dual_ray[n_cap:]
    cap_speed = problem.resource_speeds()[skeleton.cap_c]
    capacity_coef = float(u @ (cap_speed * skeleton.cap_len_coef))
    if capacity_coef <= _RAY_COEF_EPS:
        return
    capacity_const = float(u @ (cap_speed * skeleton.cap_len_const))
    load = sum((v * np.concatenate([rel_rhs, chain_rhs]))[v != 0.0].tolist())
    bound = -(capacity_const + load) / capacity_coef
    if math.isfinite(bound):
        outcome.certificate_bound = bound


def solve_on_objective_range(
    problem: MaxStretchProblem,
    f_low: float,
    f_high: float,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    outcome: ProbeOutcome | None = None,
) -> MaxStretchSolution | None:
    """Solve System (1) restricted to objective values in ``[f_low, f_high]``.

    Returns ``None`` when no feasible schedule exists with a maximum weighted
    flow in that range (the expected outcome for ranges below the optimum).
    ``skeleton_cache`` optionally reuses constraint skeletons across solves
    sharing the same interval structure (see :class:`ConstraintSkeleton`);
    ``backend`` selects the LP solver backend (persistent backends
    additionally start each probe from the basis of the previous one,
    mapped through :func:`warm_hint`) and receives the assembly time in its
    :attr:`~repro.lp.backends.SolverBackend.stats`; ``None`` means a fresh
    persistent HiGHS backend.  ``outcome``, when provided,
    receives the dual-ray objective bound of a refused probe (backends
    without dual-ray support leave it empty).
    """
    if not problem.jobs:
        return MaxStretchSolution(
            objective=0.0,
            problem=problem,
            structure=build_interval_structure(problem, 0.0),
            interval_bounds=(),
            shares=NO_SHARES,
        )
    if f_high < f_low:
        raise ValueError(f"invalid objective range [{f_low}, {f_high}]")

    backend = make_backend(backend)
    assembly_start = time.perf_counter()
    probe = _probe_value(f_low, f_high)
    structure = build_interval_structure(problem, probe)
    skeleton = build_skeleton(problem, structure, skeleton_cache)
    if skeleton is None:
        backend.stats.assembly_seconds += time.perf_counter() - assembly_start
        return None

    spec = _lp_spec(problem, skeleton, f_range=(f_low, f_high))
    warm = None
    if backend.persistent:
        warm = warm_hint(skeleton, with_objective_var=True)
    backend.stats.assembly_seconds += time.perf_counter() - assembly_start
    result = backend.solve(spec, warm=warm)
    if not result.feasible:
        if outcome is not None and result.dual_ray is not None:
            _probe_certificate(problem, skeleton, result.dual_ray, outcome)
        return None

    if outcome is not None and result.model is not None:
        outcome.live = LiveProbe(result.model, skeleton, f_low, f_high)
    objective = result.value(0)
    bounds = tuple(structure.bounds_at(objective))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        shares=_extract_allocations(problem, skeleton, 1, result.values),
    )


def minimize_max_weighted_flow(
    problem: MaxStretchProblem,
    *,
    warm_start: float | None = None,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution:
    """Compute the optimal max weighted flow (max-stretch) for ``problem``.

    Parameters
    ----------
    problem:
        The scheduling problem (off-line or an on-line re-optimization).
    warm_start:
        Optional objective value expected to be close to the optimum
        (the previous replan's :math:`S^*` in the on-line heuristics).  The
        milestone search starts at the interval containing it.  Because
        feasibility is monotone in the objective, the result is *identical*
        to a cold search -- only the probe order changes.
    skeleton_cache:
        Optional mapping reusing constraint skeletons across solves (see
        :class:`ConstraintSkeleton`).
    backend:
        LP solver backend; ``None`` means one fresh
        :class:`~repro.lp.backends.highs.HighsPersistentBackend` for the whole
        search, which warm-starts dual simplex from the previous basis and
        produces the dual-ray certificates the search prunes with.
        The search records its probe economy and timings in the backend's
        :attr:`~repro.lp.backends.SolverBackend.stats`.
    report:
        Optional :class:`MilestoneSearchReport` receiving the winning
        probe's live model (for System (2)).

    Raises
    ------
    InfeasibleError
        If no feasible schedule exists (cannot happen for well-formed
        problems: the trivial serial schedule is always feasible).
    """
    if not problem.jobs:
        return solve_on_objective_range(problem, 0.0, 0.0)  # type: ignore[return-value]

    backend = make_backend(backend)
    search_start = time.perf_counter()
    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    milestones = enumerate_milestones(problem, lower=f_lb, upper=f_ub)
    boundaries = [f_lb] + milestones + [f_ub]
    last = len(boundaries) - 2

    start_idx = 0 if warm_start is None else _interval_of(boundaries, warm_start, 0, last)

    best = _search_certificate(
        problem,
        boundaries,
        start_idx,
        skeleton_cache=skeleton_cache,
        backend=backend,
        report=report,
    )

    if best is None:
        # The serial upper bound should always be feasible; if roundoff made
        # the last interval infeasible, retry with a widened bracket before
        # giving up.
        widened = solve_on_objective_range(
            problem, f_lb, 2.0 * f_ub + 1.0, skeleton_cache=skeleton_cache,
            backend=backend,
        )
        if widened is None:
            raise InfeasibleError(
                "no feasible schedule found for the max weighted flow problem"
            )
        best = widened
    backend.stats.search_seconds += time.perf_counter() - search_start
    return best


def _interval_of(boundaries: Sequence[float], value: float, lo: int, hi: int) -> int:
    """Index of the milestone interval containing ``value``, clamped to [lo, hi]."""
    idx = bisect.bisect_right(boundaries, value) - 1
    return min(max(idx, lo), hi)


def _is_interior(solution: MaxStretchSolution, lower_boundary: float) -> bool:
    """Whether the probe's optimum lies strictly inside its milestone interval.

    By monotone feasibility this certifies *global* optimality: were any
    objective below the interval feasible, every objective above it would be
    too -- including the sub-optimum part of this interval, contradicting
    the LP's minimality.  The margin must only exceed the solver's objective
    tolerance (see :data:`_INTERIOR_RTOL`).
    """
    return solution.objective > lower_boundary + _INTERIOR_RTOL * max(1.0, abs(lower_boundary))


def _search_certificate(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """Locate the first feasible milestone interval and return its optimum.

    Feasibility of "max weighted flow in [boundaries[i], boundaries[i+1]]" is
    monotone in the interval index ``i``, so the minimizer lives in the first
    feasible interval; certificates guide the search for it.
    Upward, an infeasible probe's dual ray refutes every milestone below its
    affine bound ``-A/B``, so the search jumps straight to the first
    non-refuted interval instead of galloping through the refuted ones.
    Downward, a feasible probe whose optimum is strictly interior *is* the
    global optimum (monotone feasibility) and the search stops without the
    legacy confirmation probes; a boundary optimum falls back to bisection,
    its pivots biased by any further certificates.

    Certificate bounds only ever choose the *probe order*, never the
    outcome: beyond its own milestone interval a dual ray is evaluated on a
    stale interval structure, so its bound may legitimately overshoot the
    optimum.  Acceptance therefore always requires the interior proof or a
    solved infeasible probe directly below the accepted interval (``lo``
    advances exclusively on solved infeasibilities, which refute everything
    beneath them by monotonicity) -- a misleading bound costs extra probes
    but can never produce a wrong result.
    """
    last = len(boundaries) - 2
    solved = 0
    skipped = 0
    interior_exit = False
    live: LiveProbe | None = None

    def probe(i: int) -> tuple[MaxStretchSolution | None, float | None]:
        nonlocal solved, live
        outcome = ProbeOutcome()
        solution = solve_on_objective_range(
            problem, boundaries[i], boundaries[i + 1],
            skeleton_cache=skeleton_cache, backend=backend, outcome=outcome,
        )
        solved += 1
        if solution is not None:
            # Every feasible probe becomes ``best``: keep only its model.
            live = outcome.live
        return solution, outcome.certificate_bound

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        if report is not None:
            report.live = live
        stats = backend.stats
        stats.n_certificate_skipped += skipped
        stats.searches.append((solved, skipped))
        stats.n_interior_exits += int(interior_exit)
        return best

    # -- upward phase: find some feasible interval ---------------------------------
    idx = min(max(start_idx, 0), last)
    floor = -1  # highest index with a *solved* infeasible probe
    step = 1
    best: MaxStretchSolution | None = None
    while True:
        solution, bound = probe(idx)
        if solution is not None:
            best = solution
            best_idx = idx
            break
        floor = idx
        if idx == last:
            return finish(None)
        nxt = min(idx + step, last)
        step *= 2
        if bound is not None:
            # Jump past every milestone the certificate refutes (never
            # backward: the gallop step is the uncertified floor).
            nxt = max(nxt, _interval_of(boundaries, bound, idx + 1, last))
        idx = nxt

    # -- downward phase: prove best_idx is the *first* feasible interval -----------
    lo = floor + 1  # lowest index NOT refuted by a solved probe (sound floor)
    hint: float | None = None
    while best_idx > lo:
        if _is_interior(best, boundaries[best_idx]):
            # The winning probe's own optimum certifies global optimality;
            # the candidates below are eliminated without solving them.
            interior_exit = True
            skipped += best_idx - lo
            break
        hi = best_idx - 1
        if hint is not None:
            # Probe the interval the last certificate points at (clamped
            # into the open bracket) instead of the bisection midpoint: a
            # feasible outcome moves ``best_idx`` down onto it, an
            # infeasible outcome *soundly* refutes everything below it by
            # monotonicity.  The bound itself never advances ``lo``.
            mid = _interval_of(boundaries, hint, lo, hi)
            hint = None
        else:
            mid = (lo + hi) // 2
        solution, bound = probe(mid)
        if solution is not None:
            best = solution
            best_idx = mid
        else:
            if bound is not None and mid + 1 < best_idx:
                hint = bound
            lo = mid + 1
    return finish(best)


# -- helpers shared with the System (2) relaxation ------------------------------------


def _probe_value(f_low: float, f_high: float) -> float:
    """A probe objective strictly inside ``[f_low, f_high]`` whenever possible."""
    if math.isinf(f_high):
        return f_low + 1.0
    if f_high <= f_low:
        return f_low
    return 0.5 * (f_low + f_high)


def _split_across_resources(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    offset: int,
    values: np.ndarray,
    objective: float,
) -> np.ndarray:
    """The ``x`` columns of an optimum, split across resources by a fixed rule.

    Systems (1) and (2) leave open how a class's work in an interval is
    split across its eligible resources: every split with the same
    per-(interval, class) totals is optimal, and the one a solver returns
    depends on its pivoting.  This keeps the LP's totals and derives the
    split from them and the capacities alone, so two solvers that agree on
    the totals install the same plan.  Inside each interval the classes
    with several resources take, in class order, what their resources have
    left in resource order; a class that finds them full moves earlier
    classes' work to other resources along a shortest augmenting path (a
    max-flow, so a split exists whenever the LP's does).  Capacities are
    ``speed * length`` at ``objective``, raised to the LP's own use where
    the solver overshot them within its tolerance; classes with one
    resource keep their columns.  ``offset`` is the index of the first
    ``x`` column in ``values``; the result holds the ``x`` columns only.
    """
    n_x = skeleton.key_t.size
    x = np.maximum(np.asarray(values)[offset:offset + n_x], 0.0)
    key_t = skeleton.key_t
    key_k = skeleton.key_k
    # Groups: runs of columns with equal (class, interval), one column per
    # eligible resource of the class.
    new_group = np.ones(n_x, dtype=bool)
    np.logical_or(key_t[1:] != key_t[:-1], key_k[1:] != key_k[:-1], out=new_group[1:])
    first = np.nonzero(new_group)[0]
    size = np.diff(np.append(first, n_x))
    totals = np.add.reduceat(x, first) if n_x else x
    flexible = (size > 1) & (totals > 0.0)
    if not flexible.any():
        return x

    row_of = np.empty(n_x, dtype=np.int64)
    row_of[skeleton.cap_entry_cols] = skeleton.cap_entry_rows
    n_rows = skeleton.cap_t.size
    speeds = problem.resource_speeds()[skeleton.cap_c]
    cap = speeds * np.maximum(0.0, skeleton.cap_len_const + skeleton.cap_len_coef * objective)
    cap = np.maximum(cap, np.bincount(row_of, x, minlength=n_rows))
    x = np.where(np.repeat(flexible, size), 0.0, x)
    residual = (cap - np.bincount(row_of, x, minlength=n_rows)).tolist()

    # Flexible groups interval by interval, in class order inside one.  A
    # group is named by its first column ``g``; its columns are ``range(g,
    # g + width)``, one per eligible resource, and a resource of an
    # interval by its capacity row.
    starts = first[flexible]
    order = np.argsort(key_t[starts], kind="stable")
    row_of_col = row_of.tolist()
    out = x.tolist()
    interval = -1
    done: list[tuple[int, int]] = []  # (g, width) of the interval's groups so far
    for g, width, t, total in zip(
        starts[order].tolist(),
        size[flexible][order].tolist(),
        key_t[starts[order]].tolist(),
        totals[flexible][order].tolist(),
    ):
        if t != interval:
            interval = t
            done = []
        demand = total
        for col in range(g, g + width):
            row = row_of_col[col]
            room = residual[row]
            if room >= demand:
                out[col] += demand
                residual[row] = room - demand
                demand = 0.0
                break
            if room > 0.0:
                out[col] += room
                residual[row] = 0.0
                demand -= room
        done.append((g, width))
        if demand <= 0.0:
            continue
        eps = 1e-12 * max(1.0, total)
        while demand > eps:
            end, via = _augmenting_path(done, row_of_col, out, residual, eps)
            if end < 0:
                break  # rounding dust only: the LP's own split is a flow
            amount = min(demand, residual[end])
            row = end
            while via[row][0] >= 0:
                col_in = via[row][0]
                amount = min(amount, out[col_in])
                row = row_of_col[col_in]
            row = end
            while True:
                col_in, col_out = via[row]
                out[col_out] += amount
                if col_in < 0:
                    break
                out[col_in] = max(0.0, out[col_in] - amount)
                row = row_of_col[col_in]
            residual[end] -= amount
            demand -= amount
        if demand > 0.0:
            out[g] += demand  # what rounding left over
    return np.array(out)


def _augmenting_path(
    done: list[tuple[int, int]],
    row_of_col: list[int],
    out: list[float],
    residual: list[float],
    eps: float,
) -> tuple[int, dict[int, tuple[int, int]]]:
    """A shortest path from the last group's (full) rows to a row with room left.

    ``done`` holds the interval's groups as ``(first column, width)``, the
    group to serve last.  Breadth first over capacity rows: from a row to
    the other rows of any earlier group with work on it.  Returns the row
    with room (-1 when there is none) and, per reached row, the ``(column
    in, column out)`` that reached it -- work moves off ``column in`` onto
    ``column out``; ``column in`` is -1 on the served group's own rows.
    """
    g, width = done[-1]
    via: dict[int, tuple[int, int]] = {}
    queue = []
    for col in range(g, g + width):
        via[row_of_col[col]] = (-1, col)
        queue.append(row_of_col[col])
    for row in queue:
        for h, h_width in done[:-1]:
            cols = range(h, h + h_width)
            col_in = next((col for col in cols if row_of_col[col] == row), -1)
            if col_in < 0 or out[col_in] <= eps:
                continue
            for col_out in cols:
                nxt = row_of_col[col_out]
                if nxt in via:
                    continue
                via[nxt] = (col_in, col_out)
                if residual[nxt] > eps:
                    return nxt, via
                queue.append(nxt)
    return -1, via


def _extract_allocations(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    offset: int,
    values: np.ndarray,
) -> Shares:
    """Split the class columns first-in first-out into the per-job allocation.

    ``offset`` is the index of the first ``x`` column (1 when the objective
    variable precedes them).  One cumulative sum runs over the ``x`` columns
    in column order; member ``r`` (0-based, release order) of a class
    receives the stretch of it from ``r * work`` to ``(r + 1) * work`` past
    the class's start, clipped to the work done inside its own window, so
    no piece ever lands outside a member's window even where the LP meets
    a chain row only within its feasibility tolerance (the last member also
    takes any excess).  Pieces below :data:`_ALLOCATION_EPS` relative to
    the job's remaining work are dropped; the rest become the
    :class:`Shares` entries in job order, then column order.  When every class has one member, each
    column is one piece of its class's job.
    """
    n_x = skeleton.key_t.size
    vals = np.maximum(np.asarray(values)[offset:offset + n_x], 0.0)
    if skeleton.member_id.size == skeleton.class_pos.size:
        key_k = skeleton.key_k
        work = problem.remaining_works()[skeleton.class_pos]
        kept = np.nonzero(vals > _ALLOCATION_EPS * np.maximum(1.0, work[key_k]))[0]
        kept = kept[np.argsort(skeleton.member_pos[key_k[kept]], kind="stable")]
        return Shares.frozen(
            skeleton.key_t[kept], skeleton.key_c[kept], skeleton.member_id[key_k[kept]], vals[kept]
        )
    done = np.zeros(n_x + 1)
    np.cumsum(vals, out=done[1:])
    member_class = skeleton.member_class
    work = problem.remaining_works()[skeleton.class_pos][member_class]
    rank = np.arange(member_class.size) - skeleton.member_start[member_class]
    base = done[skeleton.col_start[member_class]]
    due = base + (rank + 1) * work
    due[skeleton.member_start[1:] - 1] = math.inf
    # Member r owns [breaks[2r], breaks[2r + 1]] of the cumulative work.
    breaks = np.empty(2 * member_class.size)
    window_end = done[skeleton.member_hi]
    breaks[0::2] = np.minimum(np.maximum(base + rank * work, done[skeleton.member_lo]), window_end)
    breaks[1::2] = np.maximum(breaks[0::2], np.minimum(due, window_end))
    points = np.sort(np.concatenate([done, breaks]))
    seg_lo = points[:-1]
    seg_hi = points[1:]
    owner = np.searchsorted(breaks, seg_lo, side="right")
    col = np.minimum(np.searchsorted(done, seg_lo, side="right") - 1, n_x - 1)
    piece = seg_hi - seg_lo
    # A column one member owns whole keeps the LP's value.
    whole = (seg_lo == done[col]) & (seg_hi == done[col + 1])
    piece[whole] = vals[col[whole]]
    inside = np.nonzero(owner & 1)[0]
    member = (owner[inside] - 1) >> 1
    kept = piece[inside] > _ALLOCATION_EPS * np.maximum(1.0, work[member])
    member = member[kept]
    col = col[inside][kept]
    order = np.lexsort((col, skeleton.member_pos[member]))
    col = col[order]
    return Shares.frozen(
        skeleton.key_t[col],
        skeleton.key_c[col],
        skeleton.member_id[member[order]],
        piece[inside][kept][order],
    )
