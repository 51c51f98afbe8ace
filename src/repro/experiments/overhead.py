"""Scheduling-overhead comparison (Section 5.3, last paragraph).

The paper reports the wall-clock time spent *inside the scheduler* for a
15-minute workload on 3-cluster platforms: under 0.28 s for the on-line
heuristics, 0.54 s for the off-line algorithm, 0.23 s for Bender02 and
19.76 s for Bender98 (which solves a full off-line optimal problem at every
release date).  This module reproduces the comparison: it runs each strategy
on the same instances and reports the average scheduler time and the number
of scheduling decisions.  Absolute times differ from the paper (pure Python
and the HiGHS LP solver versus the authors' C implementation) but the ordering
and the orders of magnitude between strategies are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.lp.backends.base import nearest_rank
from repro.lp.bank import SolverStateBank
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.utils.seeding import derive_seed
from repro.workload.generator import generate_instance

__all__ = [
    "OverheadRecord",
    "scheduling_overhead",
    "DEFAULT_OVERHEAD_SCHEDULERS",
    "OVERHEAD_TABLE_HEADERS",
]

#: Strategies compared in the paper's overhead experiment.
DEFAULT_OVERHEAD_SCHEDULERS: tuple[str, ...] = (
    "online",
    "online-edf",
    "online-egdf",
    "offline",
    "bender02",
    "bender98",
)


#: Table headers matching :meth:`OverheadRecord.cells` (shared by the CLI
#: ``overhead`` sub-command and ``benchmarks/bench_overhead.py``).
OVERHEAD_TABLE_HEADERS: tuple[str, ...] = (
    "Scheduler",
    "mean sched time (s)",
    "max sched time (s)",
    "mean decisions",
    "LP solved",
    "LP skipped",
    "basis reused",
    "downgrades",
    "bank hits",
    "primal reused",
    "p50 replan (s)",
    "p95 replan (s)",
    "instances",
)


@dataclass(frozen=True)
class OverheadRecord:
    """Average scheduling cost of one strategy over the overhead experiment.

    ``mean_lp_solved`` / ``mean_lp_skipped`` / ``mean_basis_reused`` carry
    the per-run probe-elimination histogram of the certificate-guided
    milestone search (all zero for LP-free strategies): LP probes actually
    solved, milestone candidates eliminated without a solve, and solved
    probes served from warm persistent-solver state.  ``mean_downgrades``
    counts probes the warm solve failed and a cold HiGHS model answered
    (:attr:`~repro.lp.backends.LPProbeStats.n_downgrades`).  ``mean_bank_hits`` /
    ``mean_primal_reused`` count warm lookups in the cross-run solver-state
    bank and whole LP solutions answered from a carried primal (both zero
    unless a bank is threaded in via ``state_bank=True``).
    ``p50_replan_latency`` / ``p95_replan_latency`` are nearest-rank
    percentiles of the per-replan wall-clock (arrival to refreshed plan),
    pooled over the strategy's runs.
    """

    scheduler: str
    mean_scheduler_time: float
    max_scheduler_time: float
    mean_decisions: float
    n_instances: int
    mean_lp_solved: float = 0.0
    mean_lp_skipped: float = 0.0
    mean_basis_reused: float = 0.0
    mean_downgrades: float = 0.0
    mean_bank_hits: float = 0.0
    mean_primal_reused: float = 0.0
    p50_replan_latency: float = 0.0
    p95_replan_latency: float = 0.0

    def cells(self) -> list[object]:
        return [
            self.scheduler,
            self.mean_scheduler_time,
            self.max_scheduler_time,
            self.mean_decisions,
            self.mean_lp_solved,
            self.mean_lp_skipped,
            self.mean_basis_reused,
            self.mean_downgrades,
            self.mean_bank_hits,
            self.mean_primal_reused,
            self.p50_replan_latency,
            self.p95_replan_latency,
            self.n_instances,
        ]


def scheduling_overhead(
    *,
    scheduler_keys: Sequence[str] = DEFAULT_OVERHEAD_SCHEDULERS,
    scheduler_options: Mapping[str, Mapping[str, object]] | None = None,
    n_clusters: int = 3,
    n_databanks: int = 3,
    availability: float = 0.6,
    density: float = 1.0,
    window: float = 60.0,
    max_jobs: int | None = 40,
    replicates: int = 3,
    base_seed: int = 53,
    replan_policy: str = "on-arrival",
    state_bank: bool = False,
) -> list[OverheadRecord]:
    """Measure the scheduler-side wall-clock cost of each strategy.

    Defaults mirror the paper's setup (3-cluster platforms) with a reduced
    submission window so that Bender98 remains tractable; the window and job
    cap are configurable for larger runs.  ``replan_policy`` selects the
    replan cadence of the on-line LP heuristics, so the overhead tables can
    compare cadences.

    ``state_bank=True`` threads one live :class:`SolverStateBank` per
    replicate across all strategies of that replicate -- the same
    affinity the campaign runner realizes per (config, replicate) group --
    so the table's "bank hits" / "primal reused" columns show the
    cross-run reuse effect.  The default ``False`` keeps the historical
    bank-less measurement.
    """
    config = ExperimentConfig(
        name="overhead",
        n_clusters=n_clusters,
        n_databanks=n_databanks,
        availability=availability,
        density=density,
        window=window,
        max_jobs=max_jobs,
        replan_policy=replan_policy,
    )
    times: dict[str, list[float]] = {key: [] for key in scheduler_keys}
    decisions: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    lp_solved: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    lp_skipped: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    lp_reused: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    downgrades: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    bank_hits: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    primal_reused: dict[str, list[int]] = {key: [] for key in scheduler_keys}
    replan_latencies: dict[str, list[float]] = {key: [] for key in scheduler_keys}
    names: dict[str, str] = {}
    for replicate in range(replicates):
        seed = derive_seed(base_seed, "overhead", replicate)
        instance = generate_instance(
            config.platform_spec(), config.workload_spec(), rng=seed
        )
        bank = SolverStateBank() if state_bank else None
        for key in scheduler_keys:
            options = config.scheduler_options_for(key)
            options.update((scheduler_options or {}).get(key, {}))
            if isinstance(options.get("state_bank"), bool):
                options["state_bank"] = bank if options["state_bank"] else None
            scheduler = make_scheduler(key, **options)
            names.setdefault(key, scheduler.name)
            try:
                result = simulate(instance, scheduler)
            except ReproError:
                continue
            times[key].append(result.scheduler_time)
            decisions[key].append(result.n_decisions)
            lp_solved[key].append(result.lp_probes.n_probes)
            lp_skipped[key].append(result.lp_probes.n_certificate_skipped)
            lp_reused[key].append(result.lp_probes.n_basis_reused)
            downgrades[key].append(result.lp_probes.n_downgrades)
            bank_hits[key].append(result.lp_probes.n_bank_hits)
            primal_reused[key].append(result.lp_probes.n_primal_reuses)
            replan_latencies[key].extend(result.lp_probes.replan_latencies)

    records: list[OverheadRecord] = []
    for key in scheduler_keys:
        if not times[key]:
            continue
        records.append(
            OverheadRecord(
                scheduler=names[key],
                mean_scheduler_time=float(np.mean(times[key])),
                max_scheduler_time=float(np.max(times[key])),
                mean_decisions=float(np.mean(decisions[key])),
                n_instances=len(times[key]),
                mean_lp_solved=float(np.mean(lp_solved[key])),
                mean_lp_skipped=float(np.mean(lp_skipped[key])),
                mean_basis_reused=float(np.mean(lp_reused[key])),
                mean_downgrades=float(np.mean(downgrades[key])),
                mean_bank_hits=float(np.mean(bank_hits[key])),
                mean_primal_reused=float(np.mean(primal_reused[key])),
                p50_replan_latency=nearest_rank(replan_latencies[key], 50),
                p95_replan_latency=nearest_rank(replan_latencies[key], 95),
            )
        )
    return records
