"""Campaign engine benchmarks: sharding speedup, state bank, merge throughput.

An enforced property of :func:`repro.experiments.runner.run_campaign`:

* **Sharding is free of result drift and actually scales.**  The sharded
  mini-campaign must produce a record set bit-identical (order-independent,
  timing measurements excluded) to the serial run -- always enforced -- and
  at ``REPRO_BENCH_WORKERS`` (default 4) workers the wall-clock speedup must
  be >= 2x whenever the machine has that many CPUs (the acceptance target;
  on smaller machines the measurement is still recorded, the gate is
  skipped).

A second gate covers the cross-run solver-state bank
(:func:`bench_state_bank_reuse`): on a slice where every replicate's four
on-line LP variants share the realized instance, the banked leg must cut
the median LP solves per record by >= 25 % while staying bitwise
transparent on the tests' stateless linprog reference, and the sharded
bank-on/off comparison on the default backend must pass the two-tier
tolerance gate of ``tests/record_sets.py``.

A third gate covers the group-batched dispatch of PR 8
(:func:`bench_campaign_throughput`): on a heuristic-heavy mini-campaign
(tiny per-task compute, so dispatch/transport overhead dominates) the
grouped 4-worker run must reach >= 2x the serial records/sec whenever the
machine has the CPUs; record sets must be bit-identical across both legs
on every machine.

A fourth measurement covers the distribution layer: merging N shard
journals of a paper-shaped design (162 configurations x 10 schedulers)
back into one validated record set must stay cheap relative to computing
the records -- the merge job is the serial tail of every sharded CI
campaign, so its records/sec throughput is tracked alongside.

All four write into ``benchmarks/_artifacts/BENCH_campaign.json``
(uploaded by CI) so the campaign throughput trajectory -- wall-clock,
records/sec, worker count, merge rate -- is tracked across PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig, paper_configurations
from repro.experiments.io import CampaignCheckpoint
from repro.experiments.merge import merge_journals
from repro.experiments.runner import (
    RunRecord,
    campaign_meta,
    campaign_tasks,
    run_campaign,
)
from repro.experiments.sharding import ShardPlan
from repro.lp.bank import SolverStateBank
from repro.schedulers.registry import ONLINE_LP_SCHEDULERS, make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import generate_instance

from _bench_utils import ARTIFACT_DIR, write_json_artifact

# The bank gate's bitwise leg runs on the tests' one-shot linprog reference
# and compares record sets with the tests' two-tier comparison.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from record_sets import compare_record_sets  # noqa: E402
from scipy_backend import ScipyBackend  # noqa: E402

_ARTIFACT = "BENCH_campaign.json"

#: Schedulers of the mini-campaign: the LP hot path (on-line variants +
#: off-line optimal) plus list heuristics, so task costs are heterogeneous
#: the way the real Table 1 campaign's are.
_SCHEDULERS = ("online", "online-edf", "offline", "swrpt", "srpt", "mct")


def _scale() -> dict[str, int | float]:
    """Mini-campaign scale knobs (shrunk by CI smoke runs via the env)."""
    return {
        "replicates": int(os.environ.get("REPRO_BENCH_CAMPAIGN_REPLICATES", "5")),
        "max_jobs": int(os.environ.get("REPRO_BENCH_CAMPAIGN_MAX_JOBS", "30")),
        "window": float(os.environ.get("REPRO_BENCH_CAMPAIGN_WINDOW", "60")),
        "workers": int(os.environ.get("REPRO_BENCH_WORKERS", "4")),
    }


def _mini_campaign(scale) -> list[ExperimentConfig]:
    """Three heterogeneous configurations spanning the factorial axes."""
    def mk(name, sites, databanks, availability, density):
        return ExperimentConfig(
            name=name, n_clusters=sites, n_databanks=databanks,
            availability=availability, density=density,
            processors_per_cluster=5, window=scale["window"],
            max_jobs=scale["max_jobs"],
        )

    return [
        mk("bench-low", 2, 2, 0.6, 1.0),
        mk("bench-mid", 3, 3, 0.9, 1.5),
        mk("bench-high", 3, 2, 0.3, 2.0),
    ]


def _update_artifact(section: str, payload: dict) -> None:
    """Merge ``section`` into BENCH_campaign.json (benches run independently)."""
    path = ARTIFACT_DIR / _ARTIFACT
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing[section] = payload
    write_json_artifact(_ARTIFACT, existing)


def bench_campaign_sharded_speedup(benchmark):
    """Serial vs sharded mini-campaign: bit-identity always, >= 2x on >= 4 CPUs."""
    scale = _scale()
    configs = _mini_campaign(scale)
    workers = int(scale["workers"])

    def run(n_workers: int):
        start = time.perf_counter()
        results = run_campaign(
            configs,
            scheduler_keys=_SCHEDULERS,
            replicates=int(scale["replicates"]),
            base_seed=2006,
            n_workers=n_workers,
        )
        return results, time.perf_counter() - start

    serial, serial_seconds = benchmark.pedantic(
        lambda: run(1), rounds=1, iterations=1
    )
    sharded, sharded_seconds = run(workers)

    identical = sharded.result_set() == serial.result_set()
    speedup = serial_seconds / sharded_seconds if sharded_seconds > 0 else 0.0
    cpu_count = os.cpu_count() or 1
    enforced = cpu_count >= workers
    payload = {
        "n_configs": len(configs),
        "replicates": scale["replicates"],
        "n_schedulers": len(_SCHEDULERS),
        "n_records": len(serial),
        "worker_count": workers,
        "cpu_count": cpu_count,
        "wall_clock_serial_s": round(serial_seconds, 3),
        "records_per_second_serial": round(len(serial) / serial_seconds, 2),
        "bit_identical": identical,
        "speedup_gate_enforced": enforced,
    }
    if enforced:
        payload.update(
            {
                "status": "measured",
                "wall_clock_sharded_s": round(sharded_seconds, 3),
                "records_per_second_sharded": round(len(sharded) / sharded_seconds, 2),
                "speedup": round(speedup, 3),
            }
        )
    else:
        # A starved runner (fewer CPUs than workers) time-slices the shards,
        # so the measured "speedup" is really oversubscription overhead; a
        # sub-1x number in the committed baseline reads as a sharding
        # regression.  Record the run as explicitly skipped instead -- the
        # bit-identity invariant above is still checked and persisted.
        payload["status"] = "skipped (insufficient cpus)"
    _update_artifact("sharded_speedup", payload)

    # The hard invariant holds on any machine: sharding may never change the
    # record set (timing measurements aside).
    assert identical, "sharded campaign record set differs from the serial run"
    assert not any(r.failed for r in serial), "mini-campaign has failed runs"
    if not enforced:
        pytest.skip(
            f"only {cpu_count} CPU(s); the >= 2x speedup gate needs "
            f">= {workers} (measurement recorded in {_ARTIFACT})"
        )
    assert speedup >= 2.0, (
        f"campaign sharding at {workers} workers only {speedup:.2f}x faster "
        f"({serial_seconds:.1f}s -> {sharded_seconds:.1f}s; target >= 2x)"
    )


def bench_state_bank_reuse(benchmark):
    """The reuse gate behind banking every campaign group.

    A paper-shaped slice where the bank's affinity assumption is exact --
    the four on-line LP variants of every (configuration, replicate) group
    share each realized instance -- run once with a per-group
    :class:`SolverStateBank` and once cold, serially on the tests' one-shot
    linprog reference, a fresh instance per run (so per-record LP-solve
    counts are deterministic and the banked answers are bitwise
    transparent).  Gates, in order:

    * the banked leg must cut the median LP solves per record by >= 25 %,
    * every record must be bitwise identical to its cold twin,
    * a sharded bank-on campaign on the *default* backend must pass the
      two-tier tolerance gate of ``tests/record_sets.py`` when compared to
      the bank-off run (warm HiGHS bases legitimately shift results at
      solver tolerance).
    """
    scale = _scale()
    keys = ("online", "online-edf", "online-egdf", "online-nonopt")
    configs = _mini_campaign(scale)
    tasks = campaign_tasks(configs, keys, int(scale["replicates"]), base_seed=2006)

    def run_serial(with_bank: bool):
        """(per-record LP-solve counts, objective tuples, bank hit stats)."""
        probes, objectives = [], []
        hits = misses = 0
        instances: dict[tuple[str, int], object] = {}
        banks: dict[tuple[str, int], SolverStateBank] = {}
        for task in tasks:
            group = (task.config.name, task.replicate)
            if group not in instances:
                instances[group] = generate_instance(
                    task.config.platform_spec(), task.config.workload_spec(),
                    rng=task.seed,
                )
            options = task.config.scheduler_options_for(task.scheduler_key)
            options["solver_backend"] = ScipyBackend()
            if with_bank:
                options["state_bank"] = banks.setdefault(group, SolverStateBank())
            else:
                options["state_bank"] = None
            result = simulate(
                instances[group], make_scheduler(task.scheduler_key, **options)
            )
            probes.append(result.lp_probes.n_probes)
            hits += result.lp_probes.n_bank_hits
            misses += result.lp_probes.n_bank_misses
            objectives.append(
                (task.triple, result.max_stretch, result.sum_stretch,
                 result.makespan)
            )
        return probes, objectives, hits, misses

    start = time.perf_counter()
    banked_probes, banked_objectives, hits, misses = benchmark.pedantic(
        lambda: run_serial(True), rounds=1, iterations=1
    )
    banked_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cold_probes, cold_objectives, _, _ = run_serial(False)
    cold_seconds = time.perf_counter() - start

    median_banked = statistics.median(banked_probes)
    median_cold = statistics.median(cold_probes)
    reduction = 1.0 - median_banked / median_cold if median_cold else 0.0
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    # Tolerance gate on the shipping default backend, sharded bank-on vs
    # bank-off, over the standard mini-campaign schedulers; the bank-off
    # leg passes ``state_bank=None`` per key.  ``online-nonopt`` stays
    # out of this leg on purpose: it installs a System (1) optimum with its
    # deadlines at S* itself, so a banked-vs-cold HiGHS S* at solver
    # tolerance can shift its tie metrics the most -- at mini-campaign
    # sample counts beyond the per-scheduler tie tolerance without any
    # objective drift (the bitwise scipy assertion above already proves the
    # bank exact for it).
    ab_configs = _mini_campaign(scale)
    campaign_kwargs = dict(
        scheduler_keys=_SCHEDULERS, replicates=int(scale["replicates"]),
        base_seed=2006, n_workers=int(scale["workers"]),
    )
    bank_on = run_campaign(ab_configs, **campaign_kwargs)
    bank_off = run_campaign(
        ab_configs,
        scheduler_options={key: {"state_bank": None} for key in ONLINE_LP_SCHEDULERS},
        **campaign_kwargs,
    )
    report = compare_record_sets(
        bank_on, bank_off, backend_a="bank-on", backend_b="bank-off"
    )

    _update_artifact(
        "state_bank_reuse",
        {
            "n_records": len(tasks),
            "replicates": scale["replicates"],
            "schedulers": list(keys),
            "median_lp_solves_banked": median_banked,
            "median_lp_solves_cold": median_cold,
            "total_lp_solves_banked": sum(banked_probes),
            "total_lp_solves_cold": sum(cold_probes),
            "median_reduction": round(reduction, 3),
            "bank_hit_rate": round(hit_rate, 3),
            "wall_clock_banked_s": round(banked_seconds, 3),
            "wall_clock_cold_s": round(cold_seconds, 3),
            "bank_on_off_equivalent": report.equivalent,
        },
    )

    assert banked_objectives == cold_objectives, (
        "banked scipy records must be bitwise identical to the cold run"
    )
    assert reduction >= 0.25, (
        f"state bank only cut median LP solves per record by "
        f"{reduction:.0%} ({median_cold} -> {median_banked}; target >= 25%)"
    )
    assert report.equivalent, (
        f"bank-on/off A/B gate failed:\n{report.render()}"
    )


#: Schedulers of the throughput mini-campaign: heuristic-only (no LP), so
#: per-task compute is tiny and dispatch/transport overhead dominates -- the
#: regime the group-batched dispatch is built for.
_HEURISTIC_SCHEDULERS = (
    "fcfs", "srpt", "spt", "swpt", "swrpt", "mct", "mct-div", "bender02",
)


def bench_campaign_throughput(benchmark):
    """End-to-end records/sec: serial vs group-batched dispatch at 4 workers.

    A heuristic-heavy mini-campaign (cheap per-task compute, many tasks)
    run two ways:

    * serially (the single-process baseline; compute per record is
      unchanged since PR 7, so this doubles as the PR-7 throughput
      reference),
    * at ``REPRO_BENCH_WORKERS`` workers with group-batched dispatch (one
      round-trip, one record list per (configuration, replicate) group).

    Bit-identity across both legs is asserted on every machine.  The
    >= 2x grouped-vs-serial records/sec gate is enforced whenever the
    machine actually has the CPUs; on starved runners the measurement is
    recorded as explicitly skipped (a time-sliced "speedup" would read as a
    throughput regression in the committed baseline).
    """
    scale = _scale()
    # 8 replicates x 3 configs = 24 (config, replicate) groups: divisible by
    # the default 4 lanes, so the grouped leg is load-balanced and the >= 2x
    # gate is not fighting a straggler lane.
    replicates = int(
        os.environ.get("REPRO_BENCH_THROUGHPUT_REPLICATES", "8")
    )
    throughput_scale = {
        "window": float(os.environ.get("REPRO_BENCH_THROUGHPUT_WINDOW", "20")),
        "max_jobs": int(os.environ.get("REPRO_BENCH_THROUGHPUT_MAX_JOBS", "10")),
    }
    configs = _mini_campaign(throughput_scale)
    workers = int(scale["workers"])

    def run(n_workers: int):
        start = time.perf_counter()
        results = run_campaign(
            configs,
            scheduler_keys=_HEURISTIC_SCHEDULERS,
            replicates=replicates,
            base_seed=2006,
            n_workers=n_workers,
        )
        return results, time.perf_counter() - start

    serial, serial_seconds = benchmark.pedantic(
        lambda: run(1), rounds=1, iterations=1
    )
    grouped, grouped_seconds = run(workers)

    identical = grouped.result_set() == serial.result_set()
    n_records = len(serial)
    serial_rps = n_records / serial_seconds if serial_seconds > 0 else 0.0
    grouped_rps = n_records / grouped_seconds if grouped_seconds > 0 else 0.0
    cpu_count = os.cpu_count() or 1
    enforced = cpu_count >= workers
    payload = {
        "n_configs": len(configs),
        "replicates": replicates,
        "n_schedulers": len(_HEURISTIC_SCHEDULERS),
        "n_records": n_records,
        "worker_count": workers,
        "cpu_count": cpu_count,
        "wall_clock_serial_s": round(serial_seconds, 3),
        "records_per_second_serial": round(serial_rps, 1),
        "stage_seconds_grouped": {
            stage: round(seconds, 4)
            for stage, seconds in sorted(grouped.stage_seconds.items())
        },
        "bit_identical": identical,
        "throughput_gate_enforced": enforced,
    }
    if enforced:
        payload.update(
            {
                "status": "measured",
                "wall_clock_grouped_s": round(grouped_seconds, 3),
                "records_per_second_grouped": round(grouped_rps, 1),
                "grouped_vs_serial": round(grouped_rps / serial_rps, 3)
                if serial_rps > 0
                else 0.0,
            }
        )
    else:
        payload["status"] = "skipped (insufficient cpus)"
    _update_artifact("campaign_throughput", payload)

    # The hard invariant holds on any machine: the worker count may not
    # change the record set.
    assert identical, (
        "group-batched dispatch changed the campaign record set"
    )
    assert not any(r.failed for r in serial), "mini-campaign has failed runs"
    if not enforced:
        pytest.skip(
            f"only {cpu_count} CPU(s); the >= 2x throughput gate needs "
            f">= {workers} (measurement recorded in {_ARTIFACT})"
        )
    assert grouped_rps >= 2.0 * serial_rps, (
        f"group-batched dispatch at {workers} workers reached only "
        f"{grouped_rps:.0f} records/s vs {serial_rps:.0f} serial "
        f"({grouped_rps / serial_rps:.2f}x; target >= 2x)"
    )


def bench_campaign_merge_throughput(benchmark, tmp_path):
    """Merge rate (records/sec) over N shard journals of a paper-shaped design.

    The records are synthesized (deterministic metric values, no
    simulation): the quantity under test is the distribution layer --
    journal parsing, slice validation, exactly-once accounting -- not the
    schedulers.  The design mirrors the real campaign's shape: the full 162
    configurations x 10 schedulers, with a replicate count scaled by
    ``REPRO_BENCH_MERGE_REPLICATES`` (default 5, i.e. ~8 100 records).
    """
    n_shards = int(os.environ.get("REPRO_BENCH_MERGE_SHARDS", "6"))
    replicates = int(os.environ.get("REPRO_BENCH_MERGE_REPLICATES", "5"))
    configs = paper_configurations(window=20.0, max_jobs=10)
    keys = ("offline", "online", "online-edf", "online-egdf", "swrpt",
            "srpt", "spt", "bender02", "mct-div", "mct")
    tasks = campaign_tasks(configs, keys, replicates, base_seed=2006)
    meta = campaign_meta(configs, keys, replicates, base_seed=2006)

    def synthetic_record(task, position):
        value = 1.0 + (position % 977) / 977.0
        return RunRecord(
            config=task.config.name, replicate=task.replicate,
            scheduler=task.scheduler_key, n_jobs=10,
            n_clusters=task.config.n_clusters,
            n_databanks=task.config.n_databanks,
            availability=task.config.availability,
            density=task.config.density,
            max_stretch=value, sum_stretch=value * 3, max_flow=value * 5,
            sum_flow=value * 7, makespan=value * 11,
            scheduler_time=0.0,
        )

    positions = {task.triple: i for i, task in enumerate(tasks)}
    journals = []
    for plan in ShardPlan(1, n_shards).siblings():
        path = tmp_path / f"shard-{plan.index}.jsonl"
        shard_meta = dict(meta)
        shard_meta["shard"] = plan.meta_entry()
        with CampaignCheckpoint(path) as ckpt:
            ckpt.open_append(shard_meta)
            for task in plan.select(tasks):
                ckpt.append(
                    task.scheduler_key,
                    synthetic_record(task, positions[task.triple]),
                )
        journals.append(path)

    start = time.perf_counter()
    report = benchmark.pedantic(
        lambda: merge_journals(journals), rounds=1, iterations=1
    )
    merge_seconds = time.perf_counter() - start

    assert report.complete, "synthetic shard journals must cover the design"
    assert len(report.results) == len(tasks)
    records_per_second = len(tasks) / merge_seconds if merge_seconds > 0 else 0.0
    _update_artifact(
        "merge_throughput",
        {
            "n_shards": n_shards,
            "n_configs": len(configs),
            "n_schedulers": len(keys),
            "replicates": replicates,
            "n_records": len(tasks),
            "wall_clock_merge_s": round(merge_seconds, 3),
            "records_per_second": round(records_per_second, 1),
        },
    )
    # A soft floor only: the merge is pure parsing/accounting and should
    # outpace record *computation* by orders of magnitude even on slow CI.
    assert records_per_second > 100, (
        f"journal merge unexpectedly slow: {records_per_second:.0f} records/s"
    )
