"""Tests for the content-addressed cross-run solver-state bank.

The bank's contract is strictly *accelerator, not oracle*: on the stateless
linprog reference (``tests/scipy_backend.py``) every banked answer is
bitwise identical to the cold solve, so a whole campaign run with the bank
on must produce the exact record set of the bank-off run -- and, through
replicate-affinity lane placement, the exact record set of the serial run
at any worker count.  Warm HiGHS bases shift results only at solver
tolerance, which the two-tier comparison of ``tests/record_sets.py``
covers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.io import CampaignCheckpoint
from repro.experiments.overhead import OVERHEAD_TABLE_HEADERS, scheduling_overhead
from repro.experiments.runner import (
    ExperimentResults,
    _lane_assignments,
    campaign_tasks,
    run_campaign,
)
from repro.lp.bank import (
    BankBucket,
    SolverStateBank,
    instance_content_key,
    problem_signature,
)
from repro.lp.incremental import ReplanContext
from repro.lp.problem import problem_from_instance
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import generate_instance

from helpers import make_uniform_instance, run_lp_on_scipy
from record_sets import compare_record_sets
from scipy_backend import ScipyBackend

ONLINE_KEYS = ("online", "online-edf", "online-egdf", "online-nonopt")

#: Small but LP-heavy design: two configs x two replicates, all four on-line
#: variants sharing each realized instance plus one list scheduler.
CONFIGS = [
    ExperimentConfig(
        name="bank-a", n_clusters=2, n_databanks=2, availability=0.6,
        density=1.0, processors_per_cluster=3, window=18.0, max_jobs=8,
    ),
    ExperimentConfig(
        name="bank-b", n_clusters=3, n_databanks=3, availability=0.9,
        density=1.5, processors_per_cluster=3, window=18.0, max_jobs=8,
    ),
]
KEYS = ONLINE_KEYS + ("swrpt",)
REPLICATES = 2
SEED = 31


def _campaign(
    configs=CONFIGS, *, n_workers=1, state_bank=True, checkpoint=None, resume=False,
) -> ExperimentResults:
    cfgs = [replace(c, state_bank=state_bank) for c in configs]
    return run_campaign(
        cfgs, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
        n_workers=n_workers, checkpoint=checkpoint, resume=resume,
    )


def _instance(config: ExperimentConfig, seed: int = 5):
    return generate_instance(config.platform_spec(), config.workload_spec(), rng=seed)


# -- bank container ------------------------------------------------------------------


class TestSolverStateBank:
    def test_acquire_miss_then_hit_once_warm(self):
        bank = SolverStateBank()
        bucket, hit = bank.acquire("k1")
        assert not hit  # first sight: cold bucket
        bucket2, hit2 = bank.acquire("k1")
        assert bucket2 is bucket
        assert not hit2  # still cold: nothing was stored yet
        bucket.sys1[("sig",)] = object()
        _, hit3 = bank.acquire("k1")
        assert hit3
        assert bank.stats() == {"n_buckets": 1, "n_hits": 1, "n_misses": 2}

    def test_lru_eviction_bounds_resident_buckets(self):
        bank = SolverStateBank(max_buckets=2)
        a, _ = bank.acquire("a")
        bank.acquire("b")
        bank.acquire("c")  # evicts "a"
        assert len(bank) == 2
        fresh, hit = bank.acquire("a")
        assert fresh is not a and not hit

    def test_clear_drops_buckets_and_counters(self):
        bank = SolverStateBank()
        bucket, _ = bank.acquire("k")
        bucket.sys2[("sig", 1.0)] = object()
        bank.acquire("k")
        bank.clear()
        assert len(bank) == 0
        assert bank.stats() == {"n_buckets": 0, "n_hits": 0, "n_misses": 0}

    def test_bucket_trim_bounds_stored_solutions(self):
        bucket = BankBucket()
        for i in range(300):
            bucket.sys1[(i,)] = object()
            bucket.sys2[(i, 1.0)] = object()
            bucket.trim()
        assert len(bucket.sys1) == 128 and len(bucket.sys2) == 128
        assert (299,) in bucket.sys1 and (0,) not in bucket.sys1  # newest survive


# -- content addressing --------------------------------------------------------------


class TestContentKey:
    def test_key_is_stable_across_realizations(self):
        # The same (config, seed) realized twice -- e.g. once per A/B leg,
        # in different processes -- must map to the same bucket.
        assert instance_content_key(_instance(CONFIGS[0])) == instance_content_key(
            _instance(CONFIGS[0])
        )

    def test_key_ignores_solver_knobs(self):
        # Bank and policy flags shape the *run*, not the instance: both legs
        # of a bank on/off comparison share the key.
        knobbed = replace(CONFIGS[0], replan_policy="batched:2", state_bank=False)
        assert instance_content_key(_instance(knobbed)) == instance_content_key(
            _instance(CONFIGS[0])
        )

    def test_key_separates_replicates_and_configs(self):
        keys = {
            instance_content_key(_instance(config, seed))
            for config in CONFIGS
            for seed in (5, 6)
        }
        assert len(keys) == 4

    def test_key_sees_job_and_platform_content(self):
        base = make_uniform_instance([4.0, 2.0], [0.0, 1.0])
        bigger = make_uniform_instance([4.0, 3.0], [0.0, 1.0])
        later = make_uniform_instance([4.0, 2.0], [0.0, 2.0])
        slower = make_uniform_instance([4.0, 2.0], [0.0, 1.0], cycle_times=[2.0])
        keys = {instance_content_key(i) for i in (base, bigger, later, slower)}
        assert len(keys) == 4

    def test_problem_signature_tracks_remaining_work(self):
        instance = make_uniform_instance([4.0, 2.0], [0.0, 1.0])
        full = problem_from_instance(instance, now=1.0)
        partial = problem_from_instance(instance, now=1.0, remaining={0: 3.0, 1: 2.0})
        assert problem_signature(full) != problem_signature(partial)
        assert problem_signature(full) == problem_signature(
            problem_from_instance(instance, now=1.0)
        )


# -- reuse is bitwise transparent ----------------------------------------------------


class TestBankTransparency:
    @pytest.mark.parametrize("variant", ONLINE_KEYS)
    def test_banked_run_bitwise_equals_cold_run_on_scipy(self, variant):
        config = CONFIGS[1]
        instance = _instance(config)
        bank = SolverStateBank()
        results = {}
        for publisher in ONLINE_KEYS:  # warm the bucket with every variant
            if publisher == variant:
                continue
            scheduler = make_scheduler(
                publisher, **{**config.scheduler_options_for(publisher),
                              "solver_backend": ScipyBackend(), "state_bank": bank})
            simulate(instance, scheduler)
        for label, state_bank in (("banked", bank), ("cold", None)):
            options = config.scheduler_options_for(variant)
            options.update(solver_backend=ScipyBackend(), state_bank=state_bank)
            result = simulate(instance, make_scheduler(variant, **options))
            results[label] = result
            if label == "banked":
                assert result.lp_probes.n_bank_hits == 1
                assert result.lp_probes.n_primal_reuses > 0
        banked, cold = results["banked"], results["cold"]
        assert banked.max_stretch == cold.max_stretch
        assert banked.sum_stretch == cold.sum_stretch
        assert banked.makespan == cold.makespan
        assert banked.sum_flow == cold.sum_flow

    def test_bank_cuts_lp_solves_for_consumers(self):
        config = CONFIGS[0]
        instance = _instance(config)
        bank = SolverStateBank()
        probes = {}
        for variant in ONLINE_KEYS:
            options = config.scheduler_options_for(variant)
            options.update(solver_backend=ScipyBackend(), state_bank=bank)
            probes[variant] = simulate(
                instance, make_scheduler(variant, **options)
            ).lp_probes
        publisher = probes[ONLINE_KEYS[0]]
        assert publisher.n_bank_misses == 1 and publisher.n_bank_hits == 0
        for variant in ONLINE_KEYS[1:]:
            consumer = probes[variant]
            assert consumer.n_bank_hits == 1
            assert consumer.n_primal_reuses > 0
            assert consumer.n_probes < publisher.n_probes

    def test_non_bank_values_are_rejected(self):
        # ExperimentConfig's bool must become a bank or None before it gets
        # here; every caller translates it.
        with pytest.raises(TypeError, match="SolverStateBank or None"):
            make_scheduler("online", state_bank=True)
        assert make_scheduler("online", state_bank=None).state_bank is None
        bank = SolverStateBank()
        assert make_scheduler("online", state_bank=bank).state_bank is bank

    def test_overhead_translates_the_config_bool(self):
        # The overhead config keeps ExperimentConfig's default bank toggle
        # (on) while scheduling_overhead defaults to no bank.
        records = scheduling_overhead(
            scheduler_keys=("online",), window=10.0, max_jobs=6, replicates=1
        )
        assert [record.mean_bank_hits for record in records] == [0.0]


# -- campaign invariants -------------------------------------------------------------


class TestCampaignInvariants:
    @pytest.fixture(scope="class")
    def serial_bank_on(self) -> ExperimentResults:
        return _campaign(n_workers=1, state_bank=True)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sharded_bit_identical_to_serial_with_bank(
        self, serial_bank_on, n_workers
    ):
        sharded = _campaign(n_workers=n_workers, state_bank=True)
        assert sharded.result_set() == serial_bank_on.result_set()

    def test_sharded_bit_identical_to_serial_without_bank(self):
        off_serial = _campaign(n_workers=1, state_bank=False)
        off_sharded = _campaign(n_workers=2, state_bank=False)
        assert off_sharded.result_set() == off_serial.result_set()

    def test_bank_bitwise_invisible_on_scipy_backend(self, monkeypatch):
        run_lp_on_scipy(monkeypatch)
        on = _campaign(n_workers=2, state_bank=True)
        off = _campaign(n_workers=2, state_bank=False)
        keep = ("config", "replicate", "scheduler", "max_stretch", "sum_stretch",
                "sum_flow", "max_flow", "makespan")

        def strip(results):
            return [{k: row[k] for k in keep} for row in results.result_set()]

        assert strip(on) == strip(off)

    def test_bank_on_off_passes_ab_gate_on_default_backend(self, serial_bank_on):
        off = _campaign(n_workers=1, state_bank=False)
        report = compare_record_sets(
            serial_bank_on, off, backend_a="bank-on", backend_b="bank-off"
        )
        assert report.equivalent, (
            report.objective_mismatches, report.aggregate_mismatches
        )

    def test_kill_and_resume_with_warm_bank(self, tmp_path, monkeypatch):
        # An interrupted bank-on campaign resumed mid-replicate: restored
        # triples never republish, so resumed consumers may run cold -- the
        # records must still come back exactly once and (on scipy) bitwise
        # equal to the uninterrupted run.
        run_lp_on_scipy(monkeypatch)
        uninterrupted = _campaign(n_workers=1)
        full = tmp_path / "full.jsonl"
        _campaign(n_workers=1, checkpoint=full)
        lines = full.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        # Keep the header, three whole records and a torn fourth line, so
        # the cut lands *inside* the first (config, replicate) group.
        partial.write_text("\n".join(lines[:4]) + "\n" + lines[4][: 10])
        resumed = _campaign(n_workers=2, checkpoint=partial, resume=True)
        assert resumed.result_set() == uninterrupted.result_set()
        done = CampaignCheckpoint(partial).load()
        assert len(done) == len(CONFIGS) * REPLICATES * len(KEYS)  # exactly once


class TestLaneAssignments:
    def test_groups_are_dealt_round_robin_by_first_appearance(self):
        tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        lanes = _lane_assignments(tasks, 2)
        assert len(lanes) == len(tasks)
        by_group = {}
        for task, lane in zip(tasks, lanes):
            by_group.setdefault(task.triple[:2], set()).add(lane)
        # A whole (config, replicate) group lives on one lane...
        assert all(len(lanes_used) == 1 for lanes_used in by_group.values())
        # ...and the four groups alternate between the two lanes.
        ordered = [min(v) for v in by_group.values()]
        assert ordered == [0, 1, 0, 1]

    def test_single_worker_uses_one_lane(self):
        tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        assert set(_lane_assignments(tasks, 1)) == {0}


# -- solver-layer pieces -------------------------------------------------------------


class TestReplanContextBank:
    def test_solves_populate_bucket_and_consumer_reuses(self):
        instance = make_uniform_instance([6.0, 3.0, 2.0], [0.0, 0.5, 1.0])
        bank = SolverStateBank()

        publisher = ReplanContext(instance, solver_backend=ScipyBackend(), state_bank=bank)
        problem = publisher.build_problem(1.0, {0: 5.0, 1: 3.0, 2: 2.0})
        solution = publisher.solve_max_stretch(problem)
        publisher.reoptimize(problem, solution.objective)
        publisher.publish()
        publisher.close()

        bucket, hit = bank.acquire(instance_content_key(instance))
        assert hit and bucket.warm
        assert list(bucket.sys1.values()) == [solution]
        assert len(bucket.sys2) == 1

        consumer = ReplanContext(instance, solver_backend=ScipyBackend(), state_bank=bank)
        problem2 = consumer.build_problem(1.0, {0: 5.0, 1: 3.0, 2: 2.0})
        stats = consumer.backend.stats
        reused = consumer.solve_max_stretch(problem2)
        consumer.reoptimize(problem2, reused.objective)
        consumer.close()
        assert stats.n_probes == 0  # both systems answered from the bank
        assert stats.n_primal_reuses == 2
        assert reused.objective == solution.objective
        assert reused.problem is problem2  # rebound onto the consumer's problem

    def test_publish_without_bank_is_a_noop(self):
        instance = make_uniform_instance([4.0, 2.0], [0.0, 1.0])
        context = ReplanContext(instance, solver_backend=ScipyBackend())
        context.publish()  # must not raise
        context.close()

    def test_a_simulated_run_warms_its_bucket(self):
        config = CONFIGS[0]
        instance = _instance(config)
        bank = SolverStateBank()
        options = config.scheduler_options_for("online")
        options.update(solver_backend=ScipyBackend(), state_bank=bank)
        simulate(instance, make_scheduler("online", **options))
        bucket, hit = bank.acquire(instance_content_key(instance))
        assert hit and bucket.sys1 and bucket.sys2


# -- overhead surface ----------------------------------------------------------------


class TestOverheadColumns:
    def test_bank_columns_populate_with_a_live_bank(self, monkeypatch):
        run_lp_on_scipy(monkeypatch)
        kwargs = dict(
            scheduler_keys=("online", "online-edf"), n_clusters=2, n_databanks=2,
            window=12.0, max_jobs=6, replicates=2,
        )
        cold = scheduling_overhead(state_bank=False, **kwargs)
        warm = scheduling_overhead(state_bank=True, **kwargs)
        assert all(r.mean_bank_hits == 0 and r.mean_primal_reused == 0 for r in cold)
        by_name = {r.scheduler: r for r in warm}
        assert by_name["Online-EDF"].mean_bank_hits == 1.0
        assert by_name["Online-EDF"].mean_primal_reused > 0
        assert len(warm[0].cells()) == len(OVERHEAD_TABLE_HEADERS)
