"""The off-line optimal max-stretch algorithm (Section 4.3.1).

This scheduler knows the whole instance (release dates included) in advance.
At initialization it:

1. builds the max weighted flow problem with stretch weights,
2. runs the milestone binary search of :mod:`repro.lp.maxstretch` to obtain
   the optimal max-stretch :math:`S^*` and an interval/resource allocation
   achieving it,
3. picks one allocation among the many achieving :math:`S^*` -- System (1)
   is indifferent among them, and the one a solver returns depends on its
   pivoting -- by re-solving at :math:`S^*` with a hashed generic cost per
   column (``reoptimize_allocation(..., generic=True)``), so the plan is a
   function of the instance, not of the solver's pivoting,
4. materializes the allocation into a plan, one lane per capability class
   (earliest deadline first inside each interval, which is always feasible),
   and then simply follows the plan.

The achieved max-stretch is optimal; the sum-stretch is whatever falls out,
since the generic cost favours neither early nor late completions (Table 1
of the paper reports ~1.67x the best observed sum-stretch).  Passing
``reoptimize_sum=True`` applies the System (2) re-optimization to the
off-line plan as well, which is a natural extension the paper discusses but
does not evaluate under the name "Offline".
"""

from __future__ import annotations

from repro.core.instance import Instance
from repro.lp.aggregation import edf_order, materialize_solution, swrpt_terminal_order
from repro.lp.backends import SolverBackend, make_backend
from repro.lp.maxstretch import MilestoneSearchReport, minimize_max_weighted_flow
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.base import PlanBasedScheduler

__all__ = ["OfflineScheduler"]


class OfflineScheduler(PlanBasedScheduler):
    """Optimal (off-line) max-stretch scheduler.

    Parameters
    ----------
    reoptimize_sum:
        When True, the System (2) relaxation is applied on top of the optimal
        max-stretch before materializing the plan (off-line analogue of the
        on-line heuristic's step 3).
    solver_backend:
        LP solver backend: ``None``, ``"auto"`` or ``"highs"`` for a fresh
        persistent HiGHS backend per run, or a
        :class:`~repro.lp.backends.SolverBackend` instance (how tests inject
        a reference solver).  Anything else raises
        :class:`~repro.core.errors.SolverError` at reset.
    """

    name = "Offline"

    #: The whole-run plan is computed at reset assuming a reliable platform;
    #: pairing it with a fault timeline would silently execute on downed
    #: machines, so the engine refuses the combination.
    fault_aware = False

    def __init__(
        self,
        *,
        reoptimize_sum: bool = False,
        solver_backend: "str | SolverBackend | None" = None,
    ):
        super().__init__()
        self.reoptimize_sum = reoptimize_sum
        self.solver_backend = solver_backend
        if reoptimize_sum:
            self.name = "Offline+Sum"
        #: Optimal max-stretch computed at reset (None before reset).
        self.optimal_max_stretch: float | None = None

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self.lp_stats = None
        if len(instance.jobs) == 0:
            self.optimal_max_stretch = 0.0
            return
        backend = make_backend(self.solver_backend)
        # Caller-supplied instances may carry state (and counters) from a
        # previous run.
        backend.close()
        self.lp_stats = backend.stats
        problem = problem_from_instance(instance)
        skeletons: dict = {}  # lets System (2) find the winning probe's model
        report = MilestoneSearchReport()
        solution = minimize_max_weighted_flow(
            problem, backend=backend, skeleton_cache=skeletons, report=report
        )
        self.optimal_max_stretch = solution.objective
        if self.reoptimize_sum:
            solution = reoptimize_allocation(
                problem, solution.objective, backend=backend,
                skeleton_cache=skeletons, live=report.live,
            )
            order_rule = swrpt_terminal_order
        else:
            # One of System (1)'s optima, picked by the problem alone; the
            # deadlines stay at S* to 1e-12, so the plan's max-stretch is S*.
            solution = reoptimize_allocation(
                problem, solution.objective, backend=backend, skeleton_cache=skeletons,
                live=report.live, generic=True,
            )
            order_rule = edf_order
        self.set_lanes(materialize_solution(solution, instance, order_rule=order_rule))
