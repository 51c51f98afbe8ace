"""Result object returned by the simulation engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import metrics as metrics_mod
from repro.core.instance import Instance
from repro.core.metrics import MetricsReport
from repro.core.schedule import Schedule
from repro.lp.backends import LPProbeStats
from repro.simulation.events import SimulationEvent

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything produced by one simulation run.

    Attributes
    ----------
    instance:
        The instance that was simulated.
    scheduler_name:
        Name of the scheduling strategy.
    schedule:
        The realized schedule (per-machine work slices).
    completions:
        ``job_id -> completion time``.
    scheduler_time:
        Wall-clock seconds spent inside the scheduler callbacks (the
        "scheduling overhead" of Section 5.3).
    n_decisions:
        Number of assignments requested from the scheduler.
    events:
        Optional trace of arrivals/completions/decisions.
    lp_probes:
        LP probe statistics collected over the run (solve count and time,
        plus the probe-elimination histogram of the certificate-guided
        milestone search); all zeros for LP-free schedulers.
    parked:
        ``job_id -> remaining work`` of jobs stranded by a fault timeline
        (every eligible machine down with no recovery coming).  Empty on
        fault-free runs.  Parked jobs enter the metric report with an
        infinite completion date, so the max-stretch of such a run is the
        starvation bound ``inf`` rather than a crash.
    """

    instance: Instance
    scheduler_name: str
    schedule: Schedule
    completions: dict[int, float]
    scheduler_time: float = 0.0
    n_decisions: int = 0
    events: tuple[SimulationEvent, ...] = ()
    lp_probes: LPProbeStats = field(default_factory=LPProbeStats)
    parked: dict[int, float] = field(default_factory=dict)

    _report: MetricsReport | None = field(default=None, repr=False, compare=False)

    # -- metrics -----------------------------------------------------------------
    def report(self) -> MetricsReport:
        """The full metric report (cached).

        Parked jobs (fault injection) are scored with an infinite completion
        date: their flow and stretch are ``inf``, which is exactly the
        starvation bound the Theorem 1 analysis reports for a job that never
        runs.
        """
        if self._report is None:
            self._report = metrics_mod.evaluate(self.instance, self._scored_completions())
        return self._report

    def metrics_row(self) -> dict[str, float]:
        """The five campaign metrics keyed like ``RunRecord``'s columns.

        The single source of the metric-name -> value mapping used by the
        campaign runner's record construction.
        """
        report = self.report()
        return {
            "max_stretch": report.max_stretch,
            "sum_stretch": report.sum_stretch,
            "max_flow": report.max_flow,
            "sum_flow": report.sum_flow,
            "makespan": report.makespan,
        }

    @property
    def max_stretch(self) -> float:
        return self.report().max_stretch

    @property
    def sum_stretch(self) -> float:
        return self.report().sum_stretch

    @property
    def max_flow(self) -> float:
        return self.report().max_flow

    @property
    def sum_flow(self) -> float:
        return self.report().sum_flow

    @property
    def makespan(self) -> float:
        return self.report().makespan

    def _scored_completions(self) -> dict[int, float]:
        """Completions with parked jobs mapped to ``inf`` (metric inputs)."""
        if not self.parked:
            return self.completions
        scored = dict(self.completions)
        scored.update({job_id: math.inf for job_id in self.parked})
        return scored

    def stretches(self) -> dict[int, float]:
        """Per-job stretch values."""
        return metrics_mod.stretches(self.instance, self._scored_completions())

    def flows(self) -> dict[int, float]:
        """Per-job flow times."""
        return metrics_mod.flow_times(self.instance, self._scored_completions())

    # -- presentation -----------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary."""
        rep = self.report()
        return (
            f"{self.scheduler_name}: max-stretch={rep.max_stretch:.4f} "
            f"sum-stretch={rep.sum_stretch:.4f} max-flow={rep.max_flow:.3f}s "
            f"makespan={rep.makespan:.3f}s "
            f"(scheduler time {self.scheduler_time * 1e3:.2f} ms, "
            f"{self.n_decisions} decisions)"
        )

    def trace_lines(self) -> list[str]:
        """The formatted event trace (empty when tracing was disabled)."""
        return [str(e) for e in self.events]
