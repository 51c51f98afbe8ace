"""Scheduling strategies.

All eleven strategies evaluated in Section 5 of the paper are implemented,
plus the classical heuristics used in the theory sections:

======================  ==============================================================
``Offline``             Optimal max-stretch via System (1) (Section 4.3.1).
``Online``              On-line heuristic: System (1) + System (2) at each release,
                        SWRPT ordering of terminal jobs inside each interval.
``Online-EDF``          Same LP machinery, per-processor list scheduling ordered by
                        the interval in which each share completes.
``Online-EGDF``         Same LP machinery, single global priority list and the greedy
                        restricted-availability rule of Section 3.
``Online (non-opt.)``   The on-line heuristic without the System (2) re-optimization
                        (used in Figure 3).
``Bender98``            Offline-optimal recomputation at each arrival + EDF with
                        deadlines expanded by sqrt(Delta) [2].
``Bender02``            Pseudo-stretch priority heuristic [3].
``SWRPT``               Shortest weighted remaining processing time.
``SRPT``                Shortest remaining processing time.
``SPT``                 Shortest processing time.
``SWPT``                Smith's ratio rule (identical ordering to SPT for stretch).
``FCFS``                First come first served (optimal for max-flow).
``MCT``                 Minimum completion time, non-divisible, non-preemptive
                        (the production GriPPS policy).
``MCT-Div``             MCT exploiting divisibility (still non-preemptive).
======================  ==============================================================

The on-line LP heuristics additionally accept a *replan policy*
(:mod:`repro.schedulers.policies`) deciding when the LP resolutions run --
``on-arrival`` (paper-faithful), ``batched:D`` or ``threshold:K``; every
resolution goes through the warm-started
:class:`~repro.lp.incremental.ReplanContext`.
"""

from repro.schedulers.base import (
    PlanBasedScheduler,
    PlanSegment,
    PriorityScheduler,
    Scheduler,
)
from repro.schedulers.priority import (
    EDFScheduler,
    FCFSScheduler,
    SPTScheduler,
    SRPTScheduler,
    SWPTScheduler,
    SWRPTScheduler,
)
from repro.schedulers.bender02 import Bender02Scheduler
from repro.schedulers.bender98 import Bender98Scheduler
from repro.schedulers.mct import MCTDivScheduler, MCTScheduler
from repro.schedulers.offline import OfflineScheduler
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.schedulers.policies import (
    BatchedPolicy,
    OnArrivalPolicy,
    ReplanDecision,
    ReplanPolicy,
    ThresholdPolicy,
    available_policies,
    parse_policy,
)
from repro.schedulers.registry import (
    available_schedulers,
    make_scheduler,
    paper_schedulers,
    register_scheduler,
)

__all__ = [
    "Scheduler",
    "PriorityScheduler",
    "PlanBasedScheduler",
    "PlanSegment",
    "FCFSScheduler",
    "SRPTScheduler",
    "SPTScheduler",
    "SWPTScheduler",
    "SWRPTScheduler",
    "EDFScheduler",
    "Bender02Scheduler",
    "Bender98Scheduler",
    "MCTScheduler",
    "MCTDivScheduler",
    "OfflineScheduler",
    "OnlineLPScheduler",
    "ReplanPolicy",
    "ReplanDecision",
    "OnArrivalPolicy",
    "BatchedPolicy",
    "ThresholdPolicy",
    "parse_policy",
    "available_policies",
    "make_scheduler",
    "register_scheduler",
    "available_schedulers",
    "paper_schedulers",
]
