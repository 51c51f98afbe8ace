"""Tests for the campaign execution engine: sharding, checkpoint/resume, A/B.

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

import pytest

import repro.experiments.runner as runner_mod
from repro.core.errors import ReproError
from repro.experiments.ab import compare_record_sets, run_backend_ab
from repro.experiments.config import ExperimentConfig
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
from repro.lp.backends import resolve_backend_name

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

    def test_worker_instance_cache_generates_each_instance_once(self):
        state = runner_mod._WorkerState()
        tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        for task in tasks:
            state.instance_for(task.config, task.seed)
        assert state.n_instance_builds == len(CONFIGS) * REPLICATES
        assert state.n_instance_hits == len(tasks) - state.n_instance_builds

    def test_instance_cache_never_aliases_same_named_configs(self):
        # Two campaigns run in one process may reuse a configuration name
        # with different instance-shaping parameters; the cache keys on the
        # platform/workload specs, so the second one must not see the first
        # one's instance.
        import dataclasses

        state = runner_mod._WorkerState()
        small = CONFIGS[0]
        big = dataclasses.replace(small, window=60.0, max_jobs=20)
        seed = campaign_tasks([small], KEYS, 1, SEED)[0].seed
        first = state.instance_for(small, seed)
        second = state.instance_for(big, seed)
        assert state.n_instance_builds == 2
        assert second.n_jobs != first.n_jobs


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
    """PR-8 group-batched dispatch: packed transport, stage profile, batching.

    Group dispatch is the only dispatch, so TestSharding above already
    proves its bit-identity at 1/2/4 workers with the solver bank on (and
    ``test_state_bank.py`` at 2/4 workers, on and off); this class adds the
    bank-off worker sweep, the packed-payload round trip, the stage profile
    and the kill-mid-group durability story.
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

    def test_packed_round_trip_is_bit_exact(self):
        records = [TestJsonNaN.OK, TestJsonNaN.FAILED]
        packed = RunRecord.to_packed(records)
        assert len(packed) == 2
        restored = RunRecord.from_packed(packed)
        # Failed NaN metrics survive the columnar hop (compare normalized,
        # exactly like the pool-transport consumer does)...
        assert [r.result_dict() for r in restored] == [
            r.result_dict() for r in records
        ]
        # ...and the non-NaN record round-trips to full dataclass equality.
        assert restored[0] == records[0]
        assert restored[1].failed and math.isnan(restored[1].max_stretch)
        assert math.isnan(restored[1].scheduler_time)

    def test_packed_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            RunRecord.to_packed([])

    def test_stage_seconds_cover_the_pipeline(self):
        events: list[CampaignProgress] = []
        results = run_campaign(
            [CONFIGS[0]], scheduler_keys=("swrpt", "mct"), replicates=2,
            base_seed=SEED, progress=events.append,
        )
        assert set(results.stage_seconds) == {
            "dispatch", "compute", "serialize", "journal",
        }
        assert results.stage_seconds["compute"] > 0.0
        # Progress events carry the running profile (the CLI's live view).
        assert all(e.stage_seconds is not None for e in events)
        assert (
            events[-1].stage_seconds["compute"] == results.stage_seconds["compute"]
        )

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


class TestBackendAB:
    def test_ab_gate_on_mini_campaign(self):
        report, results_a, results_b = run_backend_ab(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED, n_workers=2,
        )
        assert report.backend_a == "scipy"
        assert report.backend_b == resolve_backend_name("auto")
        assert report.n_records == len(results_a) == len(results_b)
        # The tie-free optimized metric agrees per record; the scheduler
        # means of the tie-broken metrics agree within the documented 10%.
        assert report.equivalent, report.render()
        assert "VERDICT: equivalent" in report.render()
        # Non-LP schedulers cannot see the backend knob: their records are
        # bitwise identical, so at least half the record set is.
        assert report.n_identical >= report.n_records // 2

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
