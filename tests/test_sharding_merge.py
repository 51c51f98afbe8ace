"""Tests for the distribution subsystem: shard plans, journal merging, report.

The contract under test is the split-compute/merge invariant: N shard legs
run with ``--shard i/N`` and their merged journals must reproduce the serial
campaign *bit-identically* (order-independent, timing measurements aside),
with the merge layer enforcing exactly-once triple coverage -- duplicates
with identical results are benign and counted, conflicting results are hard
errors, and gaps are reported with the shard that owns them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.core.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import load_records_json
from repro.experiments.merge import (
    design_tasks_from_meta,
    generate_campaign_report,
    merge_journals,
    write_merged_journal,
)
from repro.experiments.runner import campaign_meta, campaign_tasks, run_campaign
from repro.experiments.sharding import ShardPlan, parse_shard_spec
from repro.experiments.tables import table1

CONFIGS = [
    ExperimentConfig(
        name="shard-a", n_clusters=2, n_databanks=2, availability=0.6,
        density=1.0, processors_per_cluster=3, window=15.0, max_jobs=6,
    ),
    ExperimentConfig(
        name="shard-b", n_clusters=2, n_databanks=2, availability=0.9,
        density=1.5, processors_per_cluster=3, window=15.0, max_jobs=6,
    ),
]
KEYS = ("swrpt", "srpt", "mct")
REPLICATES = 3
SEED = 23
N_SHARDS = 3


@pytest.fixture(scope="module")
def serial_results():
    return run_campaign(
        CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED
    )


@pytest.fixture(scope="module")
def shard_journals(tmp_path_factory, serial_results):
    """Journals of the three shard legs (run once, reused by many tests)."""
    root = tmp_path_factory.mktemp("shards")
    paths = []
    for i in range(1, N_SHARDS + 1):
        path = root / f"shard-{i}.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            shard=f"{i}/{N_SHARDS}", checkpoint=path,
        )
        paths.append(path)
    return paths


class TestShardSpec:
    def test_parse_valid_specs(self):
        assert parse_shard_spec("1/1") == (1, 1)
        assert parse_shard_spec("2/5") == (2, 5)
        assert parse_shard_spec(" 3 / 6 ") == (3, 6)

    @pytest.mark.parametrize(
        "spec", ["", "3", "0/3", "4/3", "-1/2", "2/0", "a/b", "1/2/3", "1.5/3"]
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ReproError, match="shard spec"):
            parse_shard_spec(spec)

    def test_plan_parse_coercions(self):
        plan = ShardPlan(2, 5)
        assert ShardPlan.parse(plan) is plan
        assert ShardPlan.parse("2/5") == plan
        assert ShardPlan.parse((2, 5)) == plan
        assert plan.spec == "2/5"

    def test_plan_rejects_bad_indices(self):
        with pytest.raises(ReproError):
            ShardPlan(0, 3)
        with pytest.raises(ReproError):
            ShardPlan(4, 3)

    def test_meta_entry_round_trip(self):
        plan = ShardPlan(3, 7)
        assert ShardPlan.from_meta_entry(plan.meta_entry()) == plan
        with pytest.raises(ReproError, match="malformed shard entry"):
            ShardPlan.from_meta_entry({"index": 1})
        with pytest.raises(ReproError, match="malformed shard entry"):
            ShardPlan.from_meta_entry("1/7")


class TestShardPlanPartition:
    def _tasks(self):
        return campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)

    def test_slices_partition_the_task_list(self):
        tasks = self._tasks()
        slices = [plan.select(tasks) for plan in ShardPlan(1, N_SHARDS).siblings()]
        seen = [task.triple for part in slices for task in part]
        assert sorted(seen) == sorted(task.triple for task in tasks)
        assert len(seen) == len(set(seen))  # disjoint

    def test_slices_preserve_canonical_order(self):
        tasks = self._tasks()
        for plan in ShardPlan(1, N_SHARDS).siblings():
            selected = plan.select(tasks)
            positions = [tasks.index(task) for task in selected]
            assert positions == sorted(positions)

    def test_whole_instances_stay_on_one_shard(self):
        # Splitting a (config, replicate) group would realize the same
        # instance in several jobs; every group must land on exactly one.
        tasks = self._tasks()
        for plan in ShardPlan(1, N_SHARDS).siblings():
            for task in plan.select(tasks):
                group = [
                    t for t in tasks
                    if (t.config.name, t.replicate) == (task.config.name, task.replicate)
                ]
                assert all(t in plan.select(tasks) for t in group)

    def test_round_robin_balances_group_counts(self):
        tasks = self._tasks()
        sizes = [
            len({(t.config.name, t.replicate) for t in plan.select(tasks)})
            for plan in ShardPlan(1, N_SHARDS).siblings()
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_plan_is_deterministic_across_processes(self):
        # The CI matrix computes each leg's slice in a separate process (a
        # separate machine, in reality); the assignment may depend on the
        # design only -- never on hashing, environment or timing.
        tasks = self._tasks()
        local = [sorted(p.selects_triple(tasks)) for p in ShardPlan(1, N_SHARDS).siblings()]
        script = (
            "import json, sys\n"
            "from tests.test_sharding_merge import CONFIGS, KEYS, REPLICATES, SEED, N_SHARDS\n"
            "from repro.experiments.runner import campaign_tasks\n"
            "from repro.experiments.sharding import ShardPlan\n"
            "tasks = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)\n"
            "slices = [sorted(p.selects_triple(tasks))"
            " for p in ShardPlan(1, N_SHARDS).siblings()]\n"
            "json.dump(slices, sys.stdout)\n"
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        env["PYTHONHASHSEED"] = "random"  # a hash-dependent plan must still agree
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout
        remote = [[tuple(t) for t in part] for part in json.loads(output)]
        assert remote == local

    def test_single_shard_is_identity(self):
        tasks = self._tasks()
        assert ShardPlan(1, 1).select(tasks) == list(tasks)

    def test_more_shards_than_groups_leaves_some_empty(self):
        tasks = self._tasks()
        n_groups = len({(t.config.name, t.replicate) for t in tasks})
        plans = ShardPlan(1, n_groups + 2).siblings()
        slices = [plan.select(tasks) for plan in plans]
        assert sum(len(s) for s in slices) == len(tasks)
        assert [] in slices


class TestShardedCampaignMerge:
    def test_merge_is_bit_identical_to_serial(self, serial_results, shard_journals):
        report = merge_journals(shard_journals)
        assert report.complete
        assert report.n_duplicates == 0
        assert len(report.legs) == N_SHARDS
        assert report.results.result_set() == serial_results.result_set()

    def test_merge_report_accounting(self, shard_journals):
        report = merge_journals(shard_journals)
        total = len(CONFIGS) * REPLICATES * len(KEYS)
        assert report.n_expected == total == len(report.results)
        assert [leg.shard.spec for leg in report.legs] == [
            f"{i}/{N_SHARDS}" for i in range(1, N_SHARDS + 1)
        ]
        rendered = report.render()
        assert "coverage: complete" in rendered
        assert f"{total} records expected" in rendered

    def test_merged_journal_round_trips(self, serial_results, shard_journals, tmp_path):
        merged_path = tmp_path / "merged.jsonl"
        write_merged_journal(merge_journals(shard_journals), merged_path)
        again = merge_journals([merged_path])
        assert again.complete
        assert again.legs[0].shard is None  # the merge strips the shard identity
        assert again.results.result_set() == serial_results.result_set()

    def test_merged_journal_resumes_as_nothing_to_do(
        self, serial_results, shard_journals, tmp_path
    ):
        # A resume pointed at the merged journal restores every triple:
        # the merged file is indistinguishable from a serial run's journal.
        merged_path = tmp_path / "merged.jsonl"
        write_merged_journal(merge_journals(shard_journals), merged_path)
        events = []
        resumed = run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=merged_path, resume=True, progress=events.append,
        )
        assert events == []  # nothing recomputed
        assert resumed.result_set() == serial_results.result_set()

    def test_write_merged_journal_never_overwrites(self, shard_journals, tmp_path):
        target = tmp_path / "existing.jsonl"
        target.write_text("precious data\n")
        with pytest.raises(ReproError, match="refusing to overwrite"):
            write_merged_journal(merge_journals(shard_journals), target)
        assert target.read_text() == "precious data\n"

    def test_shard_journal_resume_is_slice_scoped(self, shard_journals, tmp_path):
        # Resuming shard 1's journal under shard 2's plan must be rejected:
        # the header records the shard identity as part of the campaign.
        with pytest.raises(ReproError, match="different campaign"):
            run_campaign(
                CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES,
                base_seed=SEED, shard=f"2/{N_SHARDS}",
                checkpoint=shard_journals[0], resume=True,
            )

    def test_serial_journal_merges_alone(self, serial_results, tmp_path):
        path = tmp_path / "serial.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            checkpoint=path,
        )
        report = merge_journals([path])
        assert report.complete
        assert report.results.result_set() == serial_results.result_set()


def _rewrite_line(path, out_path, match_text, transform):
    """Copy a journal, transforming the (single) line containing match_text."""
    lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if match_text in line]
    assert hits, f"no line matches {match_text!r}"
    lines[hits[0]] = transform(lines[hits[0]])
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


class TestMergeValidation:
    def test_no_journals_is_an_error(self):
        with pytest.raises(ReproError, match="at least one"):
            merge_journals([])

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="missing or empty"):
            merge_journals([tmp_path / "nope.jsonl"])

    def test_non_checkpoint_file_is_an_error(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(ReproError, match="not a campaign checkpoint"):
            merge_journals([path])

    def test_foreign_campaign_is_rejected(self, shard_journals, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED + 1, shard=f"2/{N_SHARDS}", checkpoint=foreign,
        )
        with pytest.raises(ReproError, match="differs from"):
            merge_journals([shard_journals[0], foreign])

    def test_mismatched_shard_counts_are_rejected(self, shard_journals, tmp_path):
        other = tmp_path / "other-partition.jsonl"
        run_campaign(
            CONFIGS, scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            shard=f"1/{N_SHARDS + 1}", checkpoint=other,
        )
        with pytest.raises(ReproError, match="partition"):
            merge_journals([shard_journals[0], other])

    def test_identical_duplicate_is_benign_and_counted(
        self, serial_results, shard_journals, tmp_path
    ):
        # Re-journal one record verbatim (an overlapping re-run of a leg).
        duplicated = tmp_path / "dup.jsonl"
        lines = shard_journals[0].read_text().splitlines()
        duplicated.write_text("\n".join(lines + [lines[1]]) + "\n")
        report = merge_journals([duplicated, *shard_journals[1:]])
        assert report.complete
        assert report.n_duplicates == 1
        assert report.results.result_set() == serial_results.result_set()

    def test_conflicting_duplicate_is_a_hard_error(self, shard_journals, tmp_path):
        # Same triple, different record: corrupt by perturbing one metric.
        corrupt = tmp_path / "corrupt.jsonl"
        lines = shard_journals[0].read_text().splitlines()
        entry = json.loads(lines[1])
        entry["record"]["max_stretch"] = (entry["record"]["max_stretch"] or 0) + 1.0
        corrupt.write_text("\n".join(lines + [json.dumps(entry)]) + "\n")
        with pytest.raises(ReproError, match="merge conflict"):
            merge_journals([corrupt, *shard_journals[1:]])

    def test_out_of_slice_record_is_rejected(self, shard_journals, tmp_path):
        # Relabel shard 1's journal as shard 2's: its records are no longer
        # in the claimed slice, i.e. the plan that produced it mismatches.
        relabeled = _rewrite_line(
            shard_journals[0],
            tmp_path / "relabeled.jsonl",
            '"kind"',
            lambda line: line.replace(
                '"shard": {"index": 1', '"shard": {"index": 2'
            ),
        )
        with pytest.raises(ReproError, match="does not own"):
            merge_journals([relabeled])

    def test_gap_report_names_the_owning_shard(self, shard_journals):
        report = merge_journals([shard_journals[0], shard_journals[2]])
        assert not report.complete
        missing_triples = ShardPlan(2, N_SHARDS).selects_triple(
            campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        )
        assert set(report.missing) == missing_triples
        assert report.missing_by_shard == {f"2/{N_SHARDS}": len(missing_triples)}
        rendered = report.render()
        assert "INCOMPLETE" in rendered
        assert f"--shard 2/{N_SHARDS} --resume" in rendered

    def test_summary_dict_shape(self, shard_journals):
        summary = merge_journals(shard_journals).summary()
        assert summary["complete"] is True
        assert summary["n_journals"] == N_SHARDS
        assert summary["shards"] == [f"{i}/{N_SHARDS}" for i in range(1, N_SHARDS + 1)]
        json.dumps(summary)  # machine-readable means JSON-serializable

    def test_design_tasks_from_meta_matches_campaign_tasks(self):
        meta = campaign_meta(CONFIGS, KEYS, REPLICATES, SEED)
        rebuilt = design_tasks_from_meta(meta)
        original = campaign_tasks(CONFIGS, KEYS, REPLICATES, SEED)
        assert [t.triple for t in rebuilt] == [t.triple for t in original]
        assert [t.seed for t in rebuilt] == [t.seed for t in original]

    def test_malformed_meta_is_rejected(self):
        with pytest.raises(ReproError, match="design"):
            design_tasks_from_meta({"base_seed": 1})


#: A journal header as campaigns wrote it while the replan path, speculative
#: pre-solving and the solver backend were configuration toggles
#: (``incremental_lp``, ``speculation``, ``solver_backend`` at its default
#: ``"auto"``, resolved to ``["highs"]``), for LEGACY_CONFIG below.
LEGACY_HEADER = (
    '{"kind": "repro-campaign-checkpoint", "version": 1, "meta": {"base_seed": 17, '
    '"replicates": 1, "scheduler_keys": ["online", "swrpt"], "configs": [{"name": '
    '"legacy", "n_clusters": 2, "n_databanks": 2, "availability": 0.6, "density": '
    '1.0, "processors_per_cluster": 3, "window": 12.0, "max_jobs": 5, '
    '"replan_policy": "on-arrival", "incremental_lp": true, "solver_backend": '
    '"auto", "state_bank": true, "speculation": false, "fault_mtbf": null, '
    '"fault_mttr": null, "fault_horizon": null, "fault_machine_fraction": 1.0, '
    '"fault_loss_model": "resume", "fault_checkpoint_fraction": 0.0}], '
    '"resolved_backends": ["highs"], "scheduler_options": null}}'
)
LEGACY_CONFIG = ExperimentConfig(
    name="legacy", n_clusters=2, n_databanks=2, availability=0.6, density=1.0,
    processors_per_cluster=3, window=12.0, max_jobs=5,
)


class TestLegacyReplanKey:
    def _resume(self, path):
        return run_campaign(
            [LEGACY_CONFIG], scheduler_keys=("online", "swrpt"), replicates=1,
            base_seed=17, checkpoint=path, resume=True,
        )

    def test_header_bytes_are_unchanged(self):
        # The run options moved into RunOptions; the header they write must
        # not move with them, or no older journal would resume.
        meta = campaign_meta([LEGACY_CONFIG], ("online", "swrpt"), 1, 17)
        header = json.dumps({"kind": "repro-campaign-checkpoint", "version": 1,
                             "meta": meta})
        assert header == LEGACY_HEADER
        knobbed = replace(LEGACY_CONFIG, replan_policy="batched:2", state_bank=False)
        assert json.dumps(knobbed.as_dict()).startswith(
            '{"name": "legacy", "n_clusters": 2, "n_databanks": 2, "availability": '
            '0.6, "density": 1.0, "processors_per_cluster": 3, "window": 12.0, '
            '"max_jobs": 5, "replan_policy": "batched:2", "incremental_lp": true, '
            '"solver_backend": "auto", "state_bank": false, "speculation": false, '
        )

    def test_legacy_journal_resumes_and_merges(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(LEGACY_HEADER + "\n")
        results = self._resume(path)
        assert len(results) == 2
        merged = merge_journals([path])
        assert merged.complete
        assert merged.results.result_set() == results.result_set()

    def test_from_scratch_journal_is_rejected(self, tmp_path):
        path = tmp_path / "scratch.jsonl"
        path.write_text(
            LEGACY_HEADER.replace('"incremental_lp": true', '"incremental_lp": false')
            + "\n"
        )
        with pytest.raises(ReproError, match="different campaign"):
            self._resume(path)
        with pytest.raises(ReproError, match="from-scratch LP replan path"):
            merge_journals([path])

    def test_explicit_highs_journal_resumes_and_merges(self, tmp_path):
        # A journal started with --solver-backend highs ran today's engine:
        # it resumes, and merges, like a default one.
        path = tmp_path / "highs.jsonl"
        path.write_text(
            LEGACY_HEADER.replace('"solver_backend": "auto"', '"solver_backend": "highs"')
            + "\n"
        )
        results = self._resume(path)
        assert len(results) == 2
        assert path.read_text().count('"solver_backend": "highs"') == 1
        merged = merge_journals([path])
        assert merged.complete
        assert merged.results.result_set() == results.result_set()

    def test_scipy_journal_is_rejected(self, tmp_path):
        # A journal that pinned the removed one-shot scipy backend neither
        # resumes (its header differs) nor merges.
        path = tmp_path / "scipy.jsonl"
        path.write_text(
            LEGACY_HEADER.replace('"solver_backend": "auto"', '"solver_backend": "scipy"')
            .replace('["highs"]', '["scipy"]')
            + "\n"
        )
        with pytest.raises(ReproError, match="different campaign"):
            self._resume(path)
        with pytest.raises(ReproError, match="solver backend that no longer exists"):
            merge_journals([path])

    def test_speculation_true_journal_merges(self, tmp_path):
        # Speculation never changed a record: such journals still merge,
        # while resuming one is refused by the header-equality check.
        path = tmp_path / "legacy.jsonl"
        path.write_text(LEGACY_HEADER + "\n")
        results = self._resume(path)
        text = path.read_text()
        assert text.count('"speculation": false') == 1
        path.write_text(text.replace('"speculation": false', '"speculation": true'))
        merged = merge_journals([path])
        assert merged.complete
        assert merged.results.result_set() == results.result_set()
        with pytest.raises(ReproError, match="different campaign"):
            self._resume(path)


class TestReportStage:
    def test_report_regenerates_table1_from_merged_run(
        self, serial_results, shard_journals, tmp_path
    ):
        # The acceptance bar: Table 1 regenerated from the sharded+merged
        # journals renders identically to the table of the serial run.
        report = merge_journals(shard_journals)
        summary = generate_campaign_report(
            report.results, tmp_path / "out",
            meta=report.meta, coverage=report.summary(),
        )
        written = (tmp_path / "out" / "TABLE_01.txt").read_text()
        assert written == table1(serial_results).render() + "\n"
        assert summary["coverage"]["complete"] is True
        assert summary["n_records"] == len(serial_results)

    def test_report_artifacts_and_summary_shape(self, shard_journals, tmp_path):
        report = merge_journals(shard_journals)
        summary = generate_campaign_report(
            report.results, tmp_path / "out",
            meta=report.meta, coverage=report.summary(),
        )
        out = tmp_path / "out"
        for name in (
            "TABLE_01.txt", "TABLES_02_16.txt", "records.json",
            "CAMPAIGN_summary.json",
        ):
            assert (out / name).exists(), name
        on_disk = json.loads((out / "CAMPAIGN_summary.json").read_text())
        assert on_disk == json.loads(json.dumps(summary))
        assert on_disk["design"]["n_configs"] == len(CONFIGS)
        assert {row["scheduler"] for row in on_disk["table1"]} == {
            "SWRPT", "SRPT", "MCT"
        }
        assert set(on_disk["breakdowns"]) == {
            "sites", "density", "databases", "availability",
        }
        loaded = load_records_json(out / "records.json")
        assert loaded.result_set() == report.results.result_set()

    def test_report_without_meta_or_coverage(self, serial_results, tmp_path):
        summary = generate_campaign_report(serial_results, tmp_path / "out")
        assert summary["design"] is None
        assert summary["coverage"] is None
        assert (tmp_path / "out" / "TABLE_01.txt").exists()
