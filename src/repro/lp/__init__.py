"""Linear-programming machinery for max-stretch optimization.

This subpackage implements the off-line polynomial algorithm of Section 4.3.1
of the paper and the sum-stretch-like relaxation (System (2)) used by the
on-line heuristics:

* :mod:`repro.lp.problem` -- the data model handed to the LP layer: jobs with
  earliest start dates, remaining works and deadline functions affine in the
  objective, and *resources* (capability classes of machines), all built
  from one per-instance ``JobTable``.
* :mod:`repro.lp.milestones` -- enumeration of the objective values at which
  the relative order of release dates and deadlines changes.
* :mod:`repro.lp.maxstretch` -- System (1): the parametric LP on one
  milestone interval, assembled as an ``LPSpec`` from a constraint
  skeleton with one column set per job class (equal resources, flow
  factor and remaining work) whose optimum is split first-in first-out
  into per-job work, and the milestone search producing the optimal
  maximum weighted flow (max-stretch).
* :mod:`repro.lp.relaxation` -- System (2): re-optimization of a
  sum-stretch-like objective under the constraint that the optimal
  max-stretch is preserved, on the same class skeleton.
* :mod:`repro.lp.incremental` -- the :class:`~repro.lp.incremental.
  ReplanContext` carried across on-line replans: cached capability classes
  and job table, warm-started milestone search and constraint-skeleton
  reuse.
* :mod:`repro.lp.aggregation` -- materialization of interval/resource work
  allocations (the :class:`~repro.lp.maxstretch.Shares` arrays) into plan
  lanes, one timeline per capability class.
* :mod:`repro.lp.backends` -- the solver backend: persistent HiGHS, over
  the bindings scipy vendors, which carries the dual-simplex basis across
  milestone probes and replans (basis transplants onto each freshly built
  model); each backend carries the LP counters of the run using it
  (``LPProbeStats``).  The HiGHS module, and scipy with it, is imported by
  the first ``make_backend`` call, not by importing this package.
"""

from repro.lp.problem import (
    Affine,
    LPJob,
    MaxStretchProblem,
    Resource,
    problem_from_instance,
)
from repro.lp.milestones import enumerate_milestones
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    MaxStretchSolution,
    minimize_max_weighted_flow,
)
from repro.lp.relaxation import reoptimize_allocation
from repro.lp.incremental import ReplanContext
from repro.lp.aggregation import materialize_solution
from repro.lp.backends import LPResult, SolverBackend, make_backend

__all__ = [
    "Affine",
    "Resource",
    "LPJob",
    "MaxStretchProblem",
    "problem_from_instance",
    "enumerate_milestones",
    "MaxStretchSolution",
    "ConstraintSkeleton",
    "minimize_max_weighted_flow",
    "reoptimize_allocation",
    "ReplanContext",
    "materialize_solution",
    "LPResult",
    "SolverBackend",
    "make_backend",
]
