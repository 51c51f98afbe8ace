"""``online_dense`` and ``heuristics_wide``: batch ``api.simulate`` workloads."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.core.instance import Instance
from repro.workload.generator import PlatformSpec, WorkloadSpec

from benchmarks.e2e import stats
from benchmarks.e2e.common import (
    SMALL_PLATFORM,
    Outcome,
    Sizing,
    install_lp_spans,
    lp_layer_metrics,
    op_metrics,
    peak_rss_mb,
    seeded_instances,
    warm_up,
)
from benchmarks.e2e.tracer import Tracer

#: 20 clusters x 10 processors, 20 databanks: 200 machines, so the engine's
#: per-step work (rates, advance, completions) dominates the heuristics'.
WIDE_PLATFORM = PlatformSpec(
    n_clusters=20, processors_per_cluster=10, n_databanks=20, availability=0.6
)
WIDE_SCHEDULERS: tuple[str, ...] = ("swrpt", "srpt", "spt", "bender02", "mct")


@dataclass(frozen=True)
class SimInputs:
    instances: list[Instance]
    #: ``(scheduler key, options)`` run on every instance, in order.
    schedulers: tuple[tuple[str, dict[str, Any]], ...]
    n_jobs: int
    #: The operation whose latency is reported: ``replan`` (arrival to plan,
    #: from the public ``record_lp_probes()`` collector on each result) or
    #: ``simulate`` (the whole call), for the LP-free schedulers.
    op: str


def prepare_online_dense(seed: int, sizing: Sizing) -> SimInputs:
    # max_jobs pins every instance to exactly 60 jobs: uncapped, the count at
    # density 3.0 varies with the seed and the LP sizes (so the time) with it.
    spec = WorkloadSpec(density=3.0, window=45.0, max_jobs=60)
    options = {"solver_backend": "auto"}
    instances = seeded_instances(SMALL_PLATFORM, spec, seed, sizing.dense_instances)
    warm_up("online", options)
    return SimInputs(instances, (("online", options),), n_jobs=60, op="replan")


def prepare_heuristics_wide(seed: int, sizing: Sizing) -> SimInputs:
    # Pinned to the cap for the same reason (uncapped counts vary 2x here).
    spec = WorkloadSpec(density=1.5, window=2.0, max_jobs=sizing.wide_jobs)
    instances = seeded_instances(WIDE_PLATFORM, spec, seed, sizing.wide_instances)
    warm_up("swrpt", {})
    return SimInputs(
        instances,
        tuple((key, {}) for key in WIDE_SCHEDULERS),
        n_jobs=sizing.wide_jobs,
        op="simulate",
    )


def execute(inputs: SimInputs, tracer: Tracer | None) -> Outcome:
    """Run every scheduler on every instance, check and digest every result."""
    if tracer is not None:
        install_lp_spans(tracer)
    results = []
    call_seconds: list[float] = []
    started = time.perf_counter()
    for index, instance in enumerate(inputs.instances):
        for key, options in inputs.schedulers:
            if tracer is not None:
                tracer.run = f"{index}/{key}"
            t0 = time.perf_counter()
            result = api.simulate(instance, key, scheduler_options=options)
            call_seconds.append(time.perf_counter() - t0)
            results.append((index, key, result))
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.restore()

    problems: list[str] = []
    digests: dict[str, str] = {}
    failed = 0
    for index, key, result in results:
        instance = inputs.instances[index]
        complete = (
            instance.n_jobs == inputs.n_jobs
            and len(result.completions) == instance.n_jobs
            and not result.parked
            and math.isfinite(result.max_stretch)
        )
        if not complete:
            failed += 1
            problems.append(
                f"instance {index} / {key}: {len(result.completions)} of "
                f"{instance.n_jobs} jobs completed (expected {inputs.n_jobs})"
            )
        digests[f"{index}/{key}"] = stats.digest(
            [sorted(result.completions.items()), result.max_stretch]
        )

    detail: dict[str, Any] = {"simulations": len(results)}
    if inputs.op == "replan":
        latencies = [
            latency for _, _, result in results
            for latency in result.lp_probes.replan_latencies
        ]
    else:
        latencies = call_seconds
    end_to_end = {"wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    end_to_end.update(op_metrics(latencies, detail, inputs.op))

    per_layer: dict[str, float] = {}
    if tracer is not None:
        per_layer = lp_layer_metrics(
            tracer.spans,
            [result.lp_probes for _, _, result in results],
            scheduler_seconds=sum(result.scheduler_time for _, _, result in results),
            decisions=sum(result.n_decisions for _, _, result in results),
        )
    return Outcome(
        attempted=len(results),
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        digests=digests,
        detail=detail,
        problems=problems,
    )
