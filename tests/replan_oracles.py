"""Reference twins of the on-line replan path, kept as test oracles.

Production has one replan path: :class:`~repro.lp.incremental.ReplanContext`
with the certificate-guided milestone search.  The two slower twins it was
proven against live here, verbatim, so the equalities they proved stay
checkable:

* :func:`search_gallop` -- the bidirectional gallop + bisection milestone
  search.  It has the signature of ``maxstretch._search_certificate``; swap
  it in for a whole search with
  ``monkeypatch.setattr(maxstretch, "_search_certificate", search_gallop)``.
* :class:`FromScratchOnlineLP` -- the on-line LP heuristic rebuilding every
  System (1) / System (2) LP at each release date, without the context's
  caches, warm starts or carried basis.

On the stateless scipy backend both return results bit-identical to
production (``tests/test_lp_incremental.py``,
``tests/test_lp_certificates.py``).  On persistent HiGHS the from-scratch
twin starts every replan from a cold basis and may land on an alternate
System (2) vertex, so it is only a reference on scipy.
"""

from __future__ import annotations

from typing import MutableMapping, Sequence

from repro.core.instance import Instance
from repro.lp import maxstretch
from repro.lp.backends import SolverBackend, make_backend
from repro.lp.maxstretch import (
    ConstraintSkeleton,
    MaxStretchSolution,
    MilestoneSearchReport,
    minimize_max_weighted_flow,
)
from repro.lp.problem import MaxStretchProblem, problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.simulation.state import SchedulerState

__all__ = ["search_gallop", "FromScratchOnlineLP"]


def search_gallop(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """The legacy bidirectional gallop + bisection (reference strategy).

    Gallops outward from ``start_idx`` -- downward while feasible, upward
    while infeasible, with doubling steps -- then binary-searches the
    bracket found.  Solves strictly more LPs than the certificate search
    (every candidate is settled by an actual solve); kept as the oracle the
    certificate search is equality-gated against in tests and benchmarks.
    """
    last = len(boundaries) - 2
    solved = 0

    def probe(i: int) -> MaxStretchSolution | None:
        nonlocal solved
        solved += 1
        return maxstretch.solve_on_objective_range(
            problem,
            boundaries[i],
            boundaries[i + 1],
            skeleton_cache=skeleton_cache,
            backend=backend,
        )

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        backend.stats.searches.append((solved, 0))
        return best

    best: MaxStretchSolution | None = None
    lo = 0
    hi = -1
    solution = probe(start_idx)
    if solution is not None:
        # Gallop downward until an infeasible interval bounds the bracket
        # (a feasible probe at index 0 means the optimum lives there and the
        # bracket stays empty).
        best = solution
        floor = start_idx
        step = 1
        idx = start_idx - 1
        while idx >= 0:
            solution = probe(idx)
            if solution is None:
                lo, hi = idx + 1, floor - 1
                break
            best = solution
            floor = idx
            if idx == 0:
                break
            idx = max(idx - step, 0)
            step *= 2
    else:
        # Gallop upward until a feasible interval is found.
        prev = start_idx
        step = 1
        idx = start_idx + 1
        while idx <= last:
            solution = probe(idx)
            if solution is not None:
                best = solution
                lo, hi = prev + 1, idx - 1
                break
            prev = idx
            if idx == last:
                break
            idx = min(idx + step, last)
            step *= 2
        if best is None:
            return finish(None)

    # Refine inside the bracket (lo..hi are untested indices below the first
    # known-feasible one).
    while lo <= hi:
        mid = (lo + hi) // 2
        solution = probe(mid)
        if solution is not None:
            best = solution
            hi = mid - 1
        else:
            lo = mid + 1
    return finish(best)


class FromScratchOnlineLP(OnlineLPScheduler):
    """The on-line LP heuristic rebuilding everything at every resolution.

    Each replan builds the problem with ``problem_from_instance`` and runs a
    cold milestone search and System (2) on a backend of its own, as the
    paper's heuristic does.  The inherited context is still built (and fed
    arrivals and outages) but no replan reads it.  Degraded replans
    (machine outages) are the production ones: they rebuild over the
    surviving machines by design.
    """

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        # Persistent solver state never leaks across runs: freshly named
        # backends start empty, and a caller-supplied instance is
        # emptied here (mirroring the ReplanContext lifetime).
        self._backend = make_backend(self.solver_backend)
        self._backend.close()
        self.lp_stats = self._backend.stats

    def _replan(self, state: SchedulerState) -> None:
        instance = state.instance
        now = state.time
        remaining = state.remaining_map()
        if state.down:
            self._replan_degraded(state, now, remaining)
            return
        if not remaining:
            self.set_plan([])
            return

        # Step 2: best achievable max-stretch given the decisions already made.
        problem = problem_from_instance(instance, now=now, remaining=remaining)
        best = minimize_max_weighted_flow(problem, backend=self._backend)
        self.last_objective = best.objective
        self.n_resolutions += 1

        if self.variant == "online-nonopt":
            solution = best
        else:
            # Step 3: System (2) re-optimization at fixed max-stretch.
            solution = reoptimize_allocation(problem, best.objective, backend=self._backend)

        # Step 4: build the executable plan.
        self._install_plan(solution, instance, now)
