"""Tests for the campaign execution engine: sharding, checkpoint/resume.

The hard invariant of the engine is that the record set is *bit-identical*
(order-independent, timing measurements excluded) regardless of the number
of workers -- per-run solver state never leaks across the tasks sharing a
worker.  The checkpoint layer must survive a kill at any byte offset and a
resume must recompute exactly the missing (config, replicate, scheduler)
triples, no duplicates, none skipped.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

import repro.experiments.runner as runner_mod
from repro.core.errors import ReproError
from repro.experiments.config import ExperimentConfig, paper_configurations
from repro.experiments.io import (
    CampaignCheckpoint,
    load_records_json,
    save_records_json,
)
from repro.experiments.runner import (
    CampaignProgress,
    ExperimentResults,
    RunRecord,
    campaign_tasks,
    run_campaign,
)

from record_sets import compare_record_sets

#: A design small enough for CI but crossing configs, replicates and both
#: LP and list schedulers (so the worker-resident backend path is exercised).
CONFIGS = [
    ExperimentConfig(
        name="eng-a", n_clusters=2, n_databanks=2, availability=0.6,
        density=1.0, processors_per_cluster=3, window=18.0, max_jobs=8,
    ),
    ExperimentConfig(
        name="eng-b", n_clusters=3, n_databanks=3, availability=0.9,
        density=1.5, processors_per_cluster=3, window=18.0, max_jobs=8,
    ),
]
KEYS = ("online", "offline", "swrpt", "mct")
REPLICATES = 2
SEED = 17


@pytest.fixture(scope="module")
def serial_results() -> ExperimentResults:
    return run_campaign(
        CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED
    )


class TestSharding:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_sharded_bit_identical_to_serial(self, serial_results, n_workers):
        sharded = run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            n_workers=n_workers,
        )
        # Exact equality on every non-timing field, order-independent.
        assert sharded.result_set() == serial_results.result_set()

    def test_records_in_canonical_task_order(self, serial_results):
        triples = [(r.config, r.replicate) for r in serial_results]
        expected = [
            (config.name, replicate)
            for config in CONFIGS
            for replicate in range(REPLICATES)
            for _ in KEYS
        ]
        assert triples == expected

    def test_task_list_is_scheduler_innermost(self):
        tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        assert len(tasks) == len(CONFIGS) * REPLICATES * len(KEYS)
        # The tasks of one realized instance are adjacent and share the seed.
        first = tasks[: len(KEYS)]
        assert {t.triple[:2] for t in first} == {(CONFIGS[0].name, 0)}
        assert len({t.seed for t in first}) == 1
        assert [t.scheduler_key for t in first] == list(KEYS)

    def test_progress_reports_eta_and_counts(self):
        events: list[CampaignProgress] = []
        run_campaign(
            [CONFIGS[0]], scheduler_keys=("swrpt", "mct"), replicates=2,
            base_seed=SEED, progress=events.append,
        )
        assert len(events) == 4
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert events[-1].eta_seconds == 0.0
        assert "[1/4]" in str(events[0])

    def test_each_group_generates_its_instance_once(self, monkeypatch, tmp_path):
        calls: list[int] = []
        generate = runner_mod.generate_instance

        def spy(platform_spec, workload_spec, *, rng):
            calls.append(rng)
            return generate(platform_spec, workload_spec, rng=rng)

        monkeypatch.setattr(runner_mod, "generate_instance", spy)
        journal = tmp_path / "ck.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=journal,
        )
        tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        group_seeds = list(dict.fromkeys(task.seed for task in tasks))
        assert calls == group_seeds
        # Resume from the header and the first two records of the first
        # group: that group reruns as a shorter group, still one instance.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        calls.clear()
        events: list[CampaignProgress] = []
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=journal, resume=True, progress=events.append,
        )
        assert len(events) == len(tasks) - 2
        assert calls == group_seeds

    def test_same_named_configs_never_share_an_instance(self):
        # Two campaigns run in one process may reuse a configuration name
        # with different instance-shaping parameters; each must see the
        # instance of its own platform/workload specs.
        import dataclasses

        small = CONFIGS[0]
        big = dataclasses.replace(small, window=60.0, max_jobs=20)
        first, second = (
            run_campaign([config], scheduler_keys=("mct",), replicates=1, base_seed=SEED)
            for config in (small, big)
        )
        assert first.records[0].config == second.records[0].config
        assert first.records[0].n_jobs != second.records[0].n_jobs


class TestSerialRunState:
    """Every serial ``run_campaign`` owns its worker state.

    Two serial campaigns running at once in one process (two threads) must
    each see their own solver backend and bank: a shared one lets the runs
    exchange banked optima and lets the first to finish close the other's
    backend mid-run.
    """

    @pytest.mark.parametrize("bank", [True, False])
    def test_concurrent_serial_runs_match_a_lone_run(self, bank):
        configs = paper_configurations(
            sites=[3], databanks=[3], availabilities=[0.6], densities=[3.0],
            window=20.0, max_jobs=20, state_bank=bank,
        )

        def run() -> list[dict[str, object]]:
            return run_campaign(
                configs, scheduler_keys=("online", "online-edf"), replicates=2,
                base_seed=7,
            ).result_set()

        expected = run()
        # Interleavings vary from trial to trial; a few trials make a shared
        # state show up reliably.
        for _ in range(3):
            outcomes: list[object] = [None, None]

            def target(slot: int) -> None:
                try:
                    outcomes[slot] = run()
                except BaseException as exc:  # surfaced by the assert below
                    outcomes[slot] = exc

            threads = [threading.Thread(target=target, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outcomes == [expected, expected]


class TestCheckpoint:
    def _run(self, checkpoint=None, resume=False, n_workers=1, progress=None):
        return run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=checkpoint, resume=resume, n_workers=n_workers,
            progress=progress,
        )

    def test_checkpoint_streams_all_records(self, serial_results, tmp_path):
        path = tmp_path / "ck.jsonl"
        results = self._run(checkpoint=path)
        assert results.result_set() == serial_results.result_set()
        done = CampaignCheckpoint(path).load()
        expected = {t.triple for t in campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)}
        assert set(done) == expected  # every triple exactly once

    def test_kill_and_resume_recomputes_only_missing_triples(
        self, serial_results, tmp_path
    ):
        full = tmp_path / "full.jsonl"
        self._run(checkpoint=full)
        lines = full.read_text().splitlines()
        # Simulate a kill mid-write: keep the header + 5 records and a
        # truncated sixth line with no trailing newline.
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:6]) + "\n" + lines[6][: len(lines[6]) // 2])

        recomputed: list[CampaignProgress] = []
        resumed = self._run(checkpoint=partial, resume=True, n_workers=2,
                            progress=recomputed.append)
        # The record set is complete and identical to the uninterrupted run...
        assert resumed.result_set() == serial_results.result_set()
        # ...only the missing triples were recomputed (the truncated line
        # does not count as completed)...
        total = len(CONFIGS) * REPLICATES * len(KEYS)
        assert len(recomputed) == total - 5
        # ...and the journal now holds every triple exactly once.
        done = CampaignCheckpoint(partial).load()
        assert len(done) == total
        entries = []
        for line in partial.read_text().splitlines():
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # the sealed truncated fragment
        triples = [tuple(entry["task"]) for entry in entries if "task" in entry]
        assert len(triples) == len(set(triples)) == total

    def test_existing_checkpoint_without_resume_is_an_error(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        self._run(checkpoint=path)
        with pytest.raises(ReproError, match="resume"):
            self._run(checkpoint=path)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ReproError, match="checkpoint"):
            self._run(resume=True)

    def test_foreign_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        self._run(checkpoint=path)
        with pytest.raises(ReproError, match="different campaign"):
            run_campaign(
                CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES,
                base_seed=SEED + 1, checkpoint=path, resume=True,
            )

    def test_same_names_different_design_is_rejected(self, tmp_path):
        # The header records the full design: same config names with a
        # different window/max_jobs (records computed on different
        # instances) must not be silently mixed in on resume.
        import dataclasses

        path = tmp_path / "ck.jsonl"
        self._run(checkpoint=path)
        rescaled = [
            dataclasses.replace(config, window=12.0, max_jobs=5)
            for config in CONFIGS
        ]
        with pytest.raises(ReproError, match="different campaign"):
            run_campaign(
                rescaled, scheduler_keys=KEYS, replicates=REPLICATES,
                base_seed=SEED, checkpoint=path, resume=True,
            )

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"some": "other json file"}\n')
        with pytest.raises(ReproError, match="not a campaign checkpoint"):
            CampaignCheckpoint(path).load()

    def test_unrelated_existing_file_is_never_truncated(self, tmp_path):
        # A user pointing --checkpoint at some pre-existing non-JSONL file
        # (more than one truncated-header-like line) must get an error, not
        # a silently erased file.
        path = tmp_path / "results.csv"
        content = "config,replicate\nold-a,0\n"
        path.write_text(content)
        ck = CampaignCheckpoint(path)
        assert not ck.effectively_empty()
        with pytest.raises(ReproError):
            self._run(checkpoint=path)
        with pytest.raises(ReproError, match="not a campaign checkpoint"):
            self._run(checkpoint=path, resume=True)
        assert path.read_text() == content

    def test_kill_during_header_write_is_recoverable(
        self, serial_results, tmp_path
    ):
        # A kill landing inside the very first (header) write leaves one
        # truncated, unparseable line: nothing is restorable, so the journal
        # restarts cleanly instead of dead-ending on a header error.
        path = tmp_path / "ck.jsonl"
        path.write_text('{"kind": "repro-campaign-chec')
        ck = CampaignCheckpoint(path)
        assert ck.effectively_empty()
        assert ck.load() == {}
        resumed = self._run(checkpoint=path, resume=True)
        assert resumed.result_set() == serial_results.result_set()
        total = len(CONFIGS) * REPLICATES * len(KEYS)
        assert len(CampaignCheckpoint(path).load()) == total
        # The same recovery works without the resume flag (nothing to lose).
        path2 = tmp_path / "ck2.jsonl"
        path2.write_text('{"kind')
        fresh = self._run(checkpoint=path2)
        assert fresh.result_set() == serial_results.result_set()


class TestGroupDispatch:
    """Group-batched dispatch: stage profile and batched journal writes.

    Group dispatch is the only dispatch, so TestSharding above already
    proves its bit-identity at 1/2/4 workers with the solver bank on (and
    ``test_state_bank.py`` at 2/4 workers, on and off); this class adds the
    bank-off worker sweep, the stage profile and the kill-mid-group
    durability story.
    """

    @pytest.fixture(scope="class")
    def bank_off_configs(self):
        import dataclasses

        return [dataclasses.replace(c, state_bank=False) for c in CONFIGS]

    @pytest.fixture(scope="class")
    def serial_bank_off(self, bank_off_configs) -> ExperimentResults:
        return run_campaign(
            bank_off_configs, scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED,
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bank_off_bit_identical_across_workers(
        self, bank_off_configs, serial_bank_off, n_workers
    ):
        sharded = run_campaign(
            bank_off_configs, scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED, n_workers=n_workers,
        )
        assert sharded.result_set() == serial_bank_off.result_set()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_stage_seconds_cover_the_pipeline(self, tmp_path, n_workers):
        results = run_campaign(
            [CONFIGS[0]], scheduler_keys=("swrpt", "mct"), replicates=2,
            base_seed=SEED, n_workers=n_workers, checkpoint=tmp_path / "ck.jsonl",
        )
        assert list(results.stage_seconds) == ["dispatch", "compute", "journal"]
        assert results.stage_seconds["compute"] > 0.0
        assert results.stage_seconds["journal"] > 0.0

    def test_outstanding_groups_stay_bounded(self, monkeypatch):
        """A lane has at most ``_IN_FLIGHT_PER_WORKER`` groups submitted at a
        time: every ``wait`` walks all outstanding futures, so submitting a
        lane's whole list up front makes the collector quadratic in the
        group count."""
        wait = runner_mod.wait
        sizes: list[int] = []

        def counting_wait(fs, **kwargs):
            sizes.append(len(fs))
            return wait(fs, **kwargs)

        monkeypatch.setattr(runner_mod, "wait", counting_wait)
        replicates = 6 * runner_mod._IN_FLIGHT_PER_WORKER
        results = run_campaign(
            [CONFIGS[0]], scheduler_keys=("mct",), replicates=replicates,
            base_seed=SEED, n_workers=2,
        )
        assert len(results) == replicates
        assert max(sizes) == 2 * runner_mod._IN_FLIGHT_PER_WORKER

    def test_kill_mid_group_resumes_exactly_once(self, serial_results, tmp_path):
        full = tmp_path / "full.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=full, n_workers=2,
        )
        lines = full.read_text().splitlines()
        # Simulate a kill landing inside a group's batched write: the header,
        # the first two records of the first (config, replicate) group, and
        # half of its third record with no trailing newline.
        partial = tmp_path / "partial.jsonl"
        partial.write_text(
            "\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2]
        )

        recomputed: list[CampaignProgress] = []
        resumed = run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=partial, resume=True, n_workers=2,
            progress=recomputed.append,
        )
        # The record set is complete and identical to the uninterrupted
        # run...
        assert resumed.result_set() == serial_results.result_set()
        # ...only the 14 missing triples were recomputed (the interrupted
        # group resumes as a shorter group covering its missing schedulers;
        # the sealed truncated record does not count as completed)...
        total = len(CONFIGS) * REPLICATES * len(KEYS)
        assert len(recomputed) == total - 2
        # ...and the journal now holds every triple exactly once.
        entries = []
        for line in partial.read_text().splitlines():
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # the sealed truncated fragment
        triples = [tuple(entry["task"]) for entry in entries if "task" in entry]
        assert len(triples) == len(set(triples)) == total


class TestJsonNaN:
    FAILED = RunRecord(
        config="c", replicate=0, scheduler="broken", n_jobs=3, n_clusters=1,
        n_databanks=1, availability=0.5, density=1.0, max_stretch=math.nan,
        sum_stretch=math.nan, max_flow=math.nan, sum_flow=math.nan,
        makespan=math.nan, scheduler_time=math.nan, failed=True,
    )
    OK = RunRecord(
        config="c", replicate=0, scheduler="ok", n_jobs=3, n_clusters=1,
        n_databanks=1, availability=0.5, density=1.0, max_stretch=2.0,
        sum_stretch=3.0, max_flow=1.0, sum_flow=1.5, makespan=4.0,
        scheduler_time=0.25,
    )

    def test_failed_records_stay_bit_identical_across_pickle(self):
        # A failed record's NaN metrics survive a worker->parent pickle hop
        # as *new* float objects; NaN only compares equal by identity, so
        # result_set() must normalize them or identically-failed serial and
        # sharded runs would spuriously differ.
        import pickle

        original = ExperimentResults([self.FAILED])
        pickled = ExperimentResults([pickle.loads(pickle.dumps(self.FAILED))])
        assert original.result_set() == pickled.result_set()
        assert original.result_set()[0]["max_stretch"] is None

    def test_failed_records_serialize_as_strict_json(self, tmp_path):
        path = save_records_json([self.OK, self.FAILED], tmp_path / "records.json")
        payload = json.loads(path.read_text())  # bare NaN would raise here
        assert payload[1]["max_stretch"] is None
        assert payload[1]["failed"] is True
        assert payload[0]["max_stretch"] == 2.0
        assert "NaN" not in path.read_text()

    def test_json_round_trip_restores_nan(self, tmp_path):
        path = save_records_json([self.OK, self.FAILED], tmp_path / "records.json")
        loaded = load_records_json(path)
        assert len(loaded) == 2
        restored = {r.scheduler: r for r in loaded}
        assert restored["ok"] == self.OK
        assert restored["broken"].failed
        assert math.isnan(restored["broken"].max_stretch)
        assert math.isnan(restored["broken"].scheduler_time)

    def test_checkpoint_journals_failed_records(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "ck.jsonl")
        ck.open_append({"base_seed": 1})
        ck.append("broken", self.FAILED)
        ck.close()
        done = ck.load(expect_meta={"base_seed": 1})
        record = done[("c", 0, "broken")]
        assert record.failed and math.isnan(record.sum_stretch)


class TestCompareRecordSets:
    """The two-tier comparison the bank on/off gates use (``record_sets.py``)."""

    def test_compare_flags_objective_mismatch(self, serial_results):
        mutated = ExperimentResults(
            [
                RunRecord(**{**r.as_dict(), "max_stretch": r.max_stretch * 1.5})
                for r in serial_results
            ]
        )
        report = compare_record_sets(
            serial_results, mutated, backend_a="scipy", backend_b="mutant"
        )
        assert not report.equivalent
        assert report.objective_mismatches

    def test_compare_flags_nan_on_non_failed_record(self, serial_results):
        # NaN compares false with everything; it must not slip through the
        # gate as "no diff observed".
        records = list(serial_results)
        mutated = [
            RunRecord(**{**records[0].as_dict(), "sum_stretch": math.nan})
        ] + records[1:]
        report = compare_record_sets(
            serial_results, ExperimentResults(mutated),
            backend_a="scipy", backend_b="mutant",
        )
        assert not report.equivalent
        assert any(m[1] == "sum_stretch" for m in report.objective_mismatches)

    def test_compare_flags_failed_mismatch(self, serial_results):
        records = list(serial_results)
        mutated = [
            RunRecord(**{**records[0].as_dict(), "failed": True})
        ] + records[1:]
        report = compare_record_sets(
            serial_results, ExperimentResults(mutated),
            backend_a="scipy", backend_b="mutant",
        )
        assert report.n_failed_mismatch == 1
        assert not report.equivalent

    def test_compare_rejects_mismatched_designs(self, serial_results):
        smaller = ExperimentResults(list(serial_results)[:-1])
        with pytest.raises(ValueError, match="size"):
            compare_record_sets(
                serial_results, smaller, backend_a="a", backend_b="b"
            )
