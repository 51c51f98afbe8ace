"""Pieces every workload shares: sizing, outcomes, scratch space, LP-layer metrics."""

from __future__ import annotations

import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro import api
from repro.core.instance import Instance
from repro.core.platform import Platform
from repro.utils.seeding import spawn_children
from repro.workload.databanks import DatabankCatalog
from repro.workload.generator import (
    PlatformSpec,
    WorkloadSpec,
    generate_platform,
    generate_workload,
)

from benchmarks.e2e import stats
from benchmarks.e2e.tracer import Span, Tracer, inclusive_seconds, self_seconds

OUT_DIR = Path(__file__).resolve().parent / "_out"

#: The seed of everything a run does *not* draw from ``--seed``.  The machine
#: park is the deployment, not an input: every run schedules onto the same
#: generated platforms and ``--seed`` draws only the request streams.
#: (Drawing the platform per seed as well makes run time vary ~20 % from seed
#: to seed, which would force every bound above that.)
CANONICAL_SEED = 2006

#: 3 clusters x 10 processors, 3 databanks, availability 0.6: the repo's
#: established dense fixture (bench_lp_scaling / bench_overhead) and the
#: daemon's platform.
SMALL_PLATFORM = PlatformSpec(
    n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6
)


def small_platform() -> tuple[Platform, DatabankCatalog]:
    return generate_platform(SMALL_PLATFORM, rng=CANONICAL_SEED)


def seeded_instances(
    platform_spec: PlatformSpec, workload_spec: WorkloadSpec, seed: int, count: int
) -> list[Instance]:
    """``count`` request streams drawn from ``seed`` over the canonical platform."""
    platform, catalog = generate_platform(platform_spec, rng=CANONICAL_SEED)
    return [
        Instance(generate_workload(platform, catalog, workload_spec, rng=child), platform)
        for child in spawn_children(seed, count)
    ]


def warm_up(scheduler: str, options: dict[str, Any]) -> None:
    """One untimed small simulate so lazy imports and caches are paid in set-up."""
    instance = seeded_instances(
        SMALL_PLATFORM, WorkloadSpec(density=1.0, window=10.0, max_jobs=6), 0, 1
    )[0]
    api.simulate(instance, scheduler, scheduler_options=options)


@dataclass(frozen=True)
class Sizing:
    """How much work one run does, derived from ``--seconds``.

    The amount is fixed up front (not "loop until the clock runs out") so
    that the same seed always does the same work: output digests and the
    program's own counts then repeat exactly, and ``wall_s`` is the time for
    a known amount of work.  The factors were read off a 2-core box so that
    the timed section lasts about ``--seconds``.
    """

    seconds: float
    smoke: bool = False

    @property
    def dense_instances(self) -> int:
        """~1.0 s per 60-job on-line LP simulate (1080 replans at 20 s: p99 holds)."""
        return 2 if self.smoke else max(2, round(0.9 * self.seconds))

    @property
    def wide_instances(self) -> int:
        """~13 s per 600-job instance (five heuristics)."""
        return 1 if self.smoke else max(1, round(self.seconds / 10.0))

    @property
    def wide_jobs(self) -> int:
        """Pinned at 600; only the smoke run shrinks the instance itself."""
        return 120 if self.smoke else 600

    @property
    def campaign_replicates(self) -> int:
        """~2.8 s per replicate of both designs on two workers."""
        return 1 if self.smoke else max(1, round(0.35 * self.seconds))

    def step_seconds(self, step: str) -> float:
        """Offered-load duration of one daemon step.

        The platform is over-subscribed in virtual time (databanks share
        machines, and density is per databank), so the active set -- and with
        it the cost of a replan -- grows with the number of jobs a step has
        offered.  At 20 s r20 and ka20 offer 80 jobs, r40 100 and r80 200,
        which is what pushes r80 past the knee; the drain of r80 (~3 s) and
        the replay check use the rest of the budget.
        """
        if self.smoke:
            return 2.0
        share = {"r20": 0.2, "r40": 0.125, "r80": 0.125, "ka20": 0.2}[step]
        return share * self.seconds


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Workload-specific end-to-end numbers the shared vocabulary cannot
    #: carry (``records_per_s``, ``submit_p50_ms.ka20``, ...); ``metrics.EXTRAS``.
    extras: dict[str, float] = field(default_factory=dict)
    #: Output digests, keyed by what they cover; equal seeds must give equal
    #: digests.
    digests: dict[str, str] = field(default_factory=dict)
    #: Sample counts, percentiles used, per-step request accounting.
    detail: dict[str, Any] = field(default_factory=dict)
    #: Failed output checks, in words.  Empty means the outputs are correct.
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / scale


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A throwaway directory under ``_out/`` (inside the checkout), removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def op_metrics(latencies_s: list[float], detail: dict[str, Any], what: str) -> dict[str, float]:
    """``op_p50_ms`` / ``op_tail_ms`` of an operation-latency sample (seconds in)."""
    summary = stats.latency_summary(latencies_s)
    detail["op"] = {
        "what": what,
        "n": summary["n"],
        "tail_percentile": summary["tail_q"],
    }
    return {"op_p50_ms": summary["p50"] * 1e3, "op_tail_ms": summary["tail"] * 1e3}


# -- the traced pass ---------------------------------------------------------------
def install_lp_spans(tracer: Tracer, on_result=None) -> None:
    """Wrap the engine, scheduler and LP-stack entry points (layers 1-4).

    ``on_result`` receives every ``SimulationResult`` an engine returns.
    """
    from repro.lp import aggregation, maxstretch
    from repro.lp.backends import SolverBackend
    from repro.lp.incremental import ReplanContext
    from repro.schedulers.base import Scheduler
    from repro.schedulers.online_lp import OnlineLPScheduler
    from repro.simulation.engine import SimulationEngine

    tracer.wrap(SimulationEngine, "run", "engine.run", on_return=on_result)
    tracer.wrap_overrides(Scheduler, "assign", "scheduler.assign")
    tracer.wrap(OnlineLPScheduler, "replan", "scheduler.replan")
    tracer.wrap(OnlineLPScheduler, "on_idle", "scheduler.on_idle")
    for method in ("build_problem", "solve_max_stretch", "reoptimize", "publish"):
        tracer.wrap(ReplanContext, method, f"replan_ctx.{method}")
    tracer.wrap_function(aggregation.materialize_solution, "aggregation.materialize")
    tracer.wrap_function(maxstretch.minimize_max_weighted_flow, "search")
    tracer.wrap(SolverBackend, "solve", "backend.solve")


def lp_layer_metrics(
    spans: Iterable[Span],
    probe_stats: Iterable[Any],
    *,
    scheduler_seconds: float,
    decisions: int,
) -> dict[str, float]:
    """Layers 1-4 from the spans plus the public ``LPProbeStats`` counters.

    ``probe_stats`` are the ``record_lp_probes()`` collectors of the runs
    (``SimulationResult.lp_probes``); ``scheduler_seconds`` and ``decisions``
    the summed ``SimulationResult.scheduler_time`` / ``n_decisions``.
    """
    spans = list(spans)
    total = inclusive_seconds(spans)
    own = self_seconds(spans)
    probe_stats = list(probe_stats)

    def counter(attr: str) -> float:
        return float(sum(getattr(s, attr) for s in probe_stats))

    engine_s = total.get("engine.run", 0.0)
    solves = counter("n_probes")
    solve_s = counter("solve_seconds")
    searches = [pair for s in probe_stats for pair in s.searches]
    replans = sum(len(s.replan_latencies) for s in probe_stats)
    hits, misses = counter("n_bank_hits"), counter("n_bank_misses")
    return {
        "engine.self_s": engine_s - scheduler_seconds,
        "engine.decisions": float(decisions),
        "engine.decisions_per_s": decisions / engine_s if engine_s else 0.0,
        "scheduler.callback_s": scheduler_seconds,
        "scheduler.replan_s": total.get("scheduler.replan", 0.0),
        "scheduler.replans": float(replans),
        "scheduler.assign_s": total.get("scheduler.assign", 0.0),
        "replan_ctx.build_problem_s": total.get("replan_ctx.build_problem", 0.0),
        "replan_ctx.solve_max_stretch_s": total.get("replan_ctx.solve_max_stretch", 0.0),
        "replan_ctx.reoptimize_s": total.get("replan_ctx.reoptimize", 0.0),
        "replan_ctx.publish_s": total.get("replan_ctx.publish", 0.0),
        "replan_ctx.other_s": own.get("scheduler.replan", 0.0),
        "aggregation.materialize_s": total.get("aggregation.materialize", 0.0),
        "search.s": counter("search_seconds"),
        "search.assembly_s": counter("assembly_seconds"),
        "search.probes_solved": float(sum(solved for solved, _ in searches)),
        "search.probes_skipped": counter("n_certificate_skipped"),
        "search.solved_per_replan": (
            sum(solved for solved, _ in searches) / len(searches) if searches else 0.0
        ),
        "backend.solve_s": solve_s,
        "backend.solves": solves,
        "backend.solve_ms_mean": solve_s / solves * 1e3 if solves else 0.0,
        "backend.basis_reused": counter("n_basis_reused"),
        "backend.warm_ratio": counter("n_basis_reused") / solves if solves else 0.0,
        "bank.hits": hits,
        "bank.misses": misses,
        "bank.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bank.primal_reuses": counter("n_primal_reuses"),
    }
