"""Section 5.3 -- scheduling-overhead comparison.

The paper reports, for 15-minute workloads on 3-cluster platforms, the time
spent inside the scheduler: under 0.28 s for the on-line heuristics, 0.54 s
for the off-line optimal algorithm, 0.23 s for Bender02 and 19.76 s for
Bender98 (which re-solves a full off-line optimal problem at every release
date).  Absolute values differ here (pure Python + HiGHS vs the authors' C
code) but the ordering -- list heuristics < Bender02 < on-line LP heuristics
~ off-line < Bender98 -- is reproduced, as is the reason for restricting
Bender98 to the smallest platforms.

This file also benchmarks one full simulation per strategy on a fixed
3-cluster instance, which is the per-strategy cost a user of the library
actually pays.
"""

from __future__ import annotations

from repro.experiments.overhead import OVERHEAD_TABLE_HEADERS, scheduling_overhead
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.utils.textable import TextTable
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from _bench_utils import write_artifact
from _bench_utils import bench_scale as _bench_scale


def bench_scheduling_overhead_comparison(benchmark):
    scale = _bench_scale()

    def run():
        return scheduling_overhead(
            scheduler_keys=("online", "online-edf", "online-egdf", "offline",
                            "bender02", "swrpt", "bender98"),
            scheduler_options={"bender98": {"max_jobs_per_resolution": 20}},
            n_clusters=3,
            n_databanks=3,
            availability=0.6,
            density=1.0,
            window=float(scale["window"]),
            max_jobs=int(scale["max_jobs"]),
            replicates=max(1, int(scale["replicates"])),
        )

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable(headers=list(OVERHEAD_TABLE_HEADERS), float_format=".4f")
    for record in records:
        table.add_row(record.cells())
    write_artifact("overhead_section53.txt", table.render())

    by_name = {r.scheduler: r for r in records}
    # Ordering of the paper: the list heuristic is the cheapest, Bender98 the
    # most expensive, and the LP-based strategies sit in between.
    assert by_name["SWRPT"].mean_scheduler_time <= by_name["Online"].mean_scheduler_time
    assert by_name["Bender98"].mean_scheduler_time >= by_name["Online"].mean_scheduler_time
    assert by_name["Bender98"].mean_scheduler_time >= by_name["Offline"].mean_scheduler_time
    assert by_name["Bender02"].mean_scheduler_time <= by_name["Bender98"].mean_scheduler_time


def _fixed_instance():
    scale = _bench_scale()
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(
        density=1.0, window=float(scale["window"]), max_jobs=int(scale["max_jobs"])
    )
    return generate_instance(platform_spec, workload_spec, rng=53)


def bench_lp_solve_fraction(benchmark):
    """LP-solve share of the Online heuristic's scheduler wall-clock.

    The ROADMAP claim motivating the persistent-solver backend layer -- the
    LP solve is the scheduling floor, ~60 % of scheduler time -- is
    regression-checked here instead of staying anecdotal: the run's LP
    counters (``SimulationResult.lp_probes``) measure the pure solver time (model
    build + factorization + simplex) inside a full dense-workload run.  The
    enforced floor is deliberately below the observed ~70 % so a noisy
    runner cannot flake the build; the measured fraction and the per-probe
    cost land in the artifact for trend tracking.
    """
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=3.0, window=45.0, max_jobs=60)
    instance = generate_instance(platform_spec, workload_spec, rng=11)

    def run():
        result = simulate(instance, make_scheduler("online"))
        return result, result.lp_probes

    result, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    fraction = stats.fraction_of(result.scheduler_time)
    write_artifact(
        "lp_fraction.txt",
        f"workload: {instance.n_jobs} jobs, rho=3.0, 3 clusters (Online, HiGHS backend)\n"
        f"scheduler time: {result.scheduler_time:.3f} s\n"
        f"LP solve time:  {stats.solve_seconds:.3f} s over {stats.n_probes} probes "
        f"({stats.per_probe_seconds * 1e3:.2f} ms/probe)\n"
        f"LP fraction of scheduler time: {fraction:.1%}\n",
    )
    assert stats.n_probes > 0
    assert fraction >= 0.35, (
        f"LP solve is only {fraction:.1%} of scheduler time; the 'LP is the "
        f"floor' premise of the backend layer no longer holds"
    )


def bench_simulation_online(benchmark):
    instance = _fixed_instance()
    result = benchmark.pedantic(
        lambda: simulate(instance, make_scheduler("online")), rounds=1, iterations=1
    )
    assert set(result.completions) == set(instance.jobs.ids())


def bench_simulation_offline(benchmark):
    instance = _fixed_instance()
    result = benchmark.pedantic(
        lambda: simulate(instance, make_scheduler("offline")), rounds=1, iterations=1
    )
    assert set(result.completions) == set(instance.jobs.ids())


def bench_simulation_swrpt(benchmark):
    instance = _fixed_instance()
    result = benchmark.pedantic(
        lambda: simulate(instance, make_scheduler("swrpt")), rounds=3, iterations=1
    )
    assert set(result.completions) == set(instance.jobs.ids())


def bench_simulation_mct(benchmark):
    instance = _fixed_instance()
    result = benchmark.pedantic(
        lambda: simulate(instance, make_scheduler("mct")), rounds=3, iterations=1
    )
    assert set(result.completions) == set(instance.jobs.ids())
