"""``campaign_mixed``: two pooled campaigns back to back, then merge and report."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import api
from repro.experiments.config import ExperimentConfig, paper_configurations
from repro.schedulers.registry import make_scheduler

from benchmarks.e2e import stats
from benchmarks.e2e.common import (
    CANONICAL_SEED,
    Outcome,
    Sizing,
    install_lp_spans,
    lp_layer_metrics,
    op_metrics,
    peak_rss_mb,
    scratch_dir,
    warm_up,
)
from benchmarks.e2e.metrics import TABLE_SCHEDULERS
from benchmarks.e2e.tracer import Tracer

#: Fixed, not derived from ``nproc``: a 2-lane pool is the smallest that
#: exercises lanes, group dispatch and the collector, it fits the 2-core CI
#: box, and a number that changes with the host's core count is no baseline.
N_WORKERS = 2


#: The schedulers that solve LPs: their records' ``scheduler_time`` is the
#: operation latency (the LP-free ones finish in milliseconds, so a median
#: over all ten would sit on the boundary between two populations).
LP_SCHEDULERS = frozenset({"offline", "online", "online-edf", "online-egdf"})


@dataclass(frozen=True)
class Design:
    name: str
    configs: list[ExperimentConfig]
    schedulers: tuple[str, ...]
    base_seed: int


@dataclass(frozen=True)
class CampaignInputs:
    designs: tuple[Design, ...]
    replicates: int

    @property
    def n_records(self) -> int:
        return sum(
            len(d.configs) * len(d.schedulers) * self.replicates for d in self.designs
        )


def prepare(seed: int, sizing: Sizing) -> CampaignInputs:
    # Design A: the fault-free table campaign.  The four on-line variants of
    # a replicate share the state bank (warm ReplanContext), ``offline`` does
    # one cold whole-instance search.  run_campaign draws a fresh random
    # platform per replicate, and the time of a group varies ~60 % with it;
    # A therefore keeps the runner's canonical base seed in every run and
    # ``--seed`` re-draws design B, or the seed-to-seed spread of the whole
    # workload would be mostly this draw.
    design_a = Design(
        "A",
        paper_configurations(
            sites=(3, 10), databanks=(3,), availabilities=(0.6,),
            densities=(1.0, 3.0), window=30.0, max_jobs=30,
        ),
        TABLE_SCHEDULERS,
        base_seed=CANONICAL_SEED,
    )
    # Design B: machine outages force from-scratch degraded replans that
    # bypass the context.  ``offline`` is fault-unaware by design and would
    # only produce NaN records, so it is left out.
    design_b = Design(
        "B",
        paper_configurations(
            sites=(3,), databanks=(3,), availabilities=(0.6,), densities=(1.5,),
            window=30.0, max_jobs=30, fault_mtbf=20.0, fault_mttr=3.0,
        ),
        tuple(key for key in TABLE_SCHEDULERS if key != "offline"),
        base_seed=seed,
    )
    # Warm the LP stack in this process: the pool forks from it.
    warm_up("online", {"solver_backend": "auto"})
    return CampaignInputs((design_a, design_b), sizing.campaign_replicates)


def _run_designs(inputs: CampaignInputs, directory: Path, n_workers: int):
    """Both ``run_campaign`` calls; ``(results per design, journals, seconds)``."""
    results, journals = [], []
    started = time.perf_counter()
    for design in inputs.designs:
        journal = directory / f"design-{design.name}-w{n_workers}.jsonl"
        results.append(
            api.run_campaign(
                design.configs,
                scheduler_keys=design.schedulers,
                replicates=inputs.replicates,
                base_seed=design.base_seed,
                n_workers=n_workers,
                checkpoint=journal,
            )
        )
        journals.append(journal)
    return results, journals, time.perf_counter() - started


def execute(inputs: CampaignInputs, tracer: Tracer | None) -> Outcome:
    with scratch_dir() as directory:
        started = time.perf_counter()
        results, journals, campaign_s = _run_designs(inputs, directory, N_WORKERS)
        t_merge = time.perf_counter()
        merged = [api.merge([journal]) for journal in journals]
        t_report = time.perf_counter()
        for design, report in zip(inputs.designs, merged):
            api.report(report, directory / f"report-{design.name}")
        finished = time.perf_counter()
        wall = finished - started

        records = [record for result in results for record in result]
        problems: list[str] = []
        if len(records) != inputs.n_records:
            problems.append(f"{len(records)} records, expected {inputs.n_records}")
        bad = [
            r for r in records
            if r.failed or not all(
                math.isfinite(v)
                for v in (r.max_stretch, r.sum_stretch, r.max_flow, r.sum_flow, r.makespan)
            )
        ]
        if bad:
            problems.append(
                f"{len(bad)} failed or non-finite records, first "
                f"{bad[0].config}/r{bad[0].replicate}/{bad[0].scheduler}"
            )
        for design, report in zip(inputs.designs, merged):
            if not report.complete:
                problems.append(
                    f"design {design.name}: journal misses {len(report.missing)} records"
                )
        digests = {
            design.name: stats.digest(
                sorted(
                    (r.result_dict() for r in result),
                    key=lambda d: (d["config"], d["replicate"], d["scheduler"]),
                )
            )
            for design, result in zip(inputs.designs, results)
        }

        detail: dict[str, Any] = {
            "records": len(records),
            "replicates": inputs.replicates,
            "n_workers": N_WORKERS,
        }
        end_to_end = {"wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        # Records carry the scheduler's display name; map it back to its key.
        key_of = {make_scheduler(key).name: key for key in TABLE_SCHEDULERS}
        end_to_end.update(
            op_metrics(
                [
                    r.scheduler_time for r in records
                    if key_of[r.scheduler] in LP_SCHEDULERS and not r.failed
                ],
                detail,
                "scheduler time of one LP-scheduler record",
            )
        )
        extras = {"records_per_s": len(records) / campaign_s}

        per_layer: dict[str, float] = {}
        if tracer is not None:
            per_layer = _runner_metrics(results, records, key_of, campaign_s, len(bad))
            per_layer["merge.merge_s"] = t_report - t_merge
            per_layer["merge.report_s"] = finished - t_report
            per_layer.update(_serial_lp_split(inputs, directory, tracer))

    return Outcome(
        attempted=inputs.n_records,
        failed=len(bad) + max(0, inputs.n_records - len(records)),
        end_to_end=end_to_end,
        per_layer=per_layer,
        extras=extras,
        digests=digests,
        detail=detail,
        problems=problems,
    )


def _runner_metrics(results, records, key_of, campaign_s, n_failed) -> dict[str, float]:
    """``runner.*`` from the pooled run's public ``stage_seconds`` and records."""
    stages = {"compute": 0.0, "dispatch": 0.0, "serialize": 0.0, "journal": 0.0}
    for result in results:
        for stage in stages:
            stages[stage] += result.stage_seconds.get(stage, 0.0)
    overhead = stages["dispatch"] + stages["serialize"] + stages["journal"]
    out = {f"runner.{stage}_s": seconds for stage, seconds in stages.items()}
    out["runner.overhead_frac"] = (
        overhead / stages["compute"] if stages["compute"] else 0.0
    )
    out["runner.records_per_s"] = len(records) / campaign_s
    out["runner.failed_records"] = float(n_failed)
    for key in TABLE_SCHEDULERS:
        out[f"runner.compute_s.{key}"] = 0.0
    for record in records:
        if not record.failed:
            out[f"runner.compute_s.{key_of[record.scheduler]}"] += record.scheduler_time
    return out


def _serial_lp_split(
    inputs: CampaignInputs, directory: Path, tracer: Tracer
) -> dict[str, float]:
    """The LP-stack split of the same designs, run in this process.

    Pool workers are other processes and are not wrapped; one worker runs
    the groups in the same canonical order with the same per-worker bank, so
    its spans and LP probe counts stand for the pooled run's.
    """
    # The runner keeps only a RunRecord per run; take what the split needs
    # from each SimulationResult as the engine returns it.
    runs: list[tuple[object, float, int]] = []
    install_lp_spans(
        tracer,
        on_result=lambda r: runs.append((r.lp_probes, r.scheduler_time, r.n_decisions)),
    )
    tracer.run = "serial"
    try:
        _run_designs(inputs, directory, 1)
    finally:
        tracer.restore()
    return lp_layer_metrics(
        tracer.spans,
        [probes for probes, _, _ in runs],
        scheduler_seconds=sum(seconds for _, seconds, _ in runs),
        decisions=sum(decisions for _, _, decisions in runs),
    )
