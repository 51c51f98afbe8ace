"""Section 5.3 -- scheduling-overhead comparison.

The paper reports, for 15-minute workloads on 3-cluster platforms, the time
spent inside the scheduler: under 0.28 s for the on-line heuristics, 0.54 s
for the off-line optimal algorithm, 0.23 s for Bender02 and 19.76 s for
Bender98 (which re-solves a full off-line optimal problem at every release
date).  Absolute values differ here (pure Python + scipy vs the authors' C
code) but the ordering -- list heuristics < Bender02 < on-line LP heuristics
~ off-line < Bender98 -- is reproduced, as is the reason for restricting
Bender98 to the smallest platforms.

This file also benchmarks one full simulation per strategy on a fixed
3-cluster instance, which is the per-strategy cost a user of the library
actually pays.
"""

from __future__ import annotations

from repro.experiments.overhead import OVERHEAD_TABLE_HEADERS, scheduling_overhead
from repro.lp.backends import record_lp_probes
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.utils.textable import TextTable
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from _bench_utils import update_json_artifact, write_artifact
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
    regression-checked here instead of staying anecdotal: the probe timing
    hooks of :mod:`repro.lp.backends` measure the pure solver time (model
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
        with record_lp_probes() as stats:
            result = simulate(instance, make_scheduler("online"))
        return result, stats

    result, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    fraction = stats.fraction_of(result.scheduler_time)
    write_artifact(
        "lp_fraction.txt",
        f"workload: {instance.n_jobs} jobs, rho=3.0, 3 clusters (Online, scipy backend)\n"
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


#: Timing rounds per replan-latency leg; the best round (by p50) is kept,
#: which symmetrically discards transient noise on shared CI runners
#: without biasing the speculation comparison.
_LATENCY_ROUNDS = 2

#: Extra seeds of the 60-job configuration forming the mini-campaign over
#: which the speculation hit rate is measured (rng=11 is the timing fixture).
_HIT_RATE_SEEDS = (11, 12, 13)


def bench_replan_latency(benchmark):
    """Arrival-to-plan replan latency: what speculative pre-solves buy.

    On the dense 60-job workload (the regime where the ROADMAP identifies
    the replan as the on-line scheduling floor) the Online heuristic runs
    twice:

    * ``baseline``, speculation off -- every arrival solves its LPs on the
      latency path;
    * ``speculation``, speculation on -- idle-gap pre-solves must cut the
      p50 replan wall-clock (arrival to refreshed plan, measured by the
      ``note_replan`` hook) by >= 30 %; over 90 % is the locally observed
      margin, since a speculation hit re-binds a memoized LP solution
      instead of solving on the latency path.

    Completions and S* are asserted bit-identical across the two legs (the
    speculation invariant), the speculation hit rate is measured over a
    3-seed mini-campaign of the same configuration, and the whole payload
    lands in ``BENCH_lp.json`` (uploaded by CI).
    """
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=3.0, window=45.0, max_jobs=60)
    instance = generate_instance(platform_spec, workload_spec, rng=11)
    assert instance.n_jobs >= 50

    def measure(speculate: bool):
        """Best-of-N timed runs of one leg."""
        best = None
        for _ in range(_LATENCY_ROUNDS):
            scheduler = make_scheduler("online", speculate=speculate)
            with record_lp_probes() as stats:
                result = simulate(instance, scheduler)
            assert stats.replan_latencies, "no replans recorded"
            candidate = (result, scheduler.last_objective, stats)
            if best is None or (
                stats.replan_percentile(50) < best[2].replan_percentile(50)
            ):
                best = candidate
        return best

    def run():
        return measure(False), measure(True)

    baseline, speculative = benchmark.pedantic(run, rounds=1, iterations=1)

    # Hard gate 1: the two legs are bit-identical -- a speculation hit
    # re-binds the exact optimum of the same LP (a miss is discarded).
    assert speculative[1] == baseline[1]
    assert speculative[0].completions == baseline[0].completions

    p50 = {
        "baseline": baseline[2].replan_percentile(50),
        "speculation": speculative[2].replan_percentile(50),
    }
    reduction = 1.0 - p50["speculation"] / p50["baseline"]

    # The speculation hit rate over the mini-campaign (3 seeds of the same
    # dense configuration; the on-arrival policy predicts every replan after
    # the first, so the expected rate is 1.0).
    hits = misses = 0
    hit_rates = {}
    for seed in _HIT_RATE_SEEDS:
        campaign_instance = generate_instance(platform_spec, workload_spec, rng=seed)
        with record_lp_probes() as stats:
            simulate(campaign_instance, make_scheduler("online", speculate=True))
        hits += stats.n_spec_hits
        misses += stats.n_spec_misses
        hit_rates[str(seed)] = stats.speculation_hit_rate
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    update_json_artifact(
        "BENCH_lp.json",
        "replan_latency",
        {
            "benchmark": "bench_replan_latency",
            "n_jobs": instance.n_jobs,
            "n_replans": len(baseline[2].replan_latencies),
            "timing_rounds": _LATENCY_ROUNDS,
            "p50_replan_seconds": p50,
            "p95_replan_seconds": {
                "baseline": baseline[2].replan_percentile(95),
                "speculation": speculative[2].replan_percentile(95),
            },
            "p50_reduction_vs_baseline": reduction,
            "speculation_hit_rate": {
                "mini_campaign": hit_rate,
                "per_seed": hit_rates,
                "hits": hits,
                "misses": misses,
            },
        },
    )

    # Hard gate 2: speculation cuts the p50 replan by >= 30 % against
    # speculation off.
    assert reduction >= 0.30, (
        f"speculation only cut the p50 replan wall-clock by "
        f"{reduction:.0%} ({p50['baseline'] * 1e3:.2f} ms -> "
        f"{p50['speculation'] * 1e3:.2f} ms; target >= 30%)"
    )
    assert hits + misses > 0, "no speculative pre-solves were consumed"


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
