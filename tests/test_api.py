"""Tests of the stable ``repro.api`` facade and its top-level re-exports."""

from __future__ import annotations

import json
import urllib.request

import pytest

import repro
from repro import api
from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.experiments.config import small_configurations
from repro.schedulers.registry import make_scheduler


def tiny_instance() -> Instance:
    platform = Platform.uniform([1.0, 0.5], databanks=["db"])
    jobs = [
        Job(0, release=0.0, size=4.0, databank="db"),
        Job(1, release=1.0, size=1.0, databank="db"),
    ]
    return Instance(jobs, platform)


class TestReExports:
    def test_facade_is_the_top_level_surface(self):
        for name in ("simulate", "run_campaign", "merge", "report", "serve",
                     "CampaignReport", "ExperimentConfig", "ExperimentResults",
                     "MergeReport", "api"):
            assert hasattr(repro, name), name
        assert repro.simulate is api.simulate
        assert repro.serve is api.serve

    def test_run_campaign_is_the_runners(self):
        from repro.experiments import runner

        assert api.run_campaign is runner.run_campaign

    def test_facade_functions_carry_reference_docstrings(self):
        for fn in (api.simulate, api.run_campaign, api.merge, api.report,
                   api.serve):
            assert fn.__doc__ and "Returns" in fn.__doc__


class TestSimulate:
    def test_accepts_registry_key(self):
        result = api.simulate(tiny_instance(), "srpt")
        assert sorted(result.completions) == [0, 1]

    def test_accepts_scheduler_instance(self):
        result = api.simulate(tiny_instance(), make_scheduler("srpt"))
        assert result.scheduler_name == "SRPT"

    def test_key_and_options(self):
        result = api.simulate(
            tiny_instance(), "online", scheduler_options={"policy": "batched:1"}
        )
        assert sorted(result.completions) == [0, 1]

    def test_options_with_instance_is_an_error(self):
        with pytest.raises(TypeError, match="registry key"):
            api.simulate(
                tiny_instance(), make_scheduler("srpt"),
                scheduler_options={"policy": "on-arrival"},
            )

    def test_matches_engine_simulate_exactly(self):
        from repro.simulation.engine import simulate as engine_simulate

        via_api = api.simulate(tiny_instance(), "swrpt")
        via_engine = engine_simulate(tiny_instance(), make_scheduler("swrpt"))
        assert via_api.completions == via_engine.completions


class TestCampaignPipeline:
    def test_run_merge_report_round_trip(self, tmp_path):
        configs = [small_configurations(window=30.0, max_jobs=6)[0]]
        journal = tmp_path / "run.jsonl"
        results = api.run_campaign(
            configs, scheduler_keys=["fcfs", "srpt"], replicates=1,
            checkpoint=journal,
        )
        assert len(results) == 2
        merged = api.merge([journal], output=tmp_path / "merged.jsonl")
        assert merged.complete
        assert (tmp_path / "merged.jsonl").exists()
        outcome = api.report(tmp_path / "merged.jsonl", tmp_path / "report")
        assert (tmp_path / "report" / "CAMPAIGN_summary.json").exists()
        assert outcome.summary["n_records"] == 2
        assert outcome.output_dir == tmp_path / "report"

    def test_report_accepts_a_merge_report(self, tmp_path):
        configs = [small_configurations(window=30.0, max_jobs=6)[0]]
        journal = tmp_path / "run.jsonl"
        api.run_campaign(configs, scheduler_keys=["fcfs"], replicates=1,
                         checkpoint=journal)
        merged = api.merge([journal])
        outcome = api.report(merged, tmp_path / "report")
        assert outcome.merged is merged

    def test_report_refuses_gaps(self, tmp_path):
        configs = [small_configurations(window=30.0, max_jobs=6)[0]]
        journal = tmp_path / "run.jsonl"
        api.run_campaign(configs, scheduler_keys=["fcfs", "srpt"], replicates=2,
                         shard="1/2", checkpoint=journal)
        with pytest.raises(ReproError, match="does not cover the full design"):
            api.report(journal, tmp_path / "report")
        outcome = api.report(journal, tmp_path / "report", allow_gaps=True)
        assert not outcome.merged.complete


class TestServe:
    def test_serve_boots_and_drains(self, tmp_path):
        platform = Platform.uniform([1.0, 1.0], databanks=["db"])
        journal = tmp_path / "svc.jsonl"
        server = api.serve(
            platform, scheduler="srpt", journal=journal, time_scale=0.0
        )
        try:
            body = json.dumps({"size": 2.0, "databank": "db"}).encode()
            request = urllib.request.Request(
                f"{server.url}/submit", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert json.loads(response.read())["job_id"] == 0
            request = urllib.request.Request(
                f"{server.url}/drain", data=b"", method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert json.loads(response.read())["n_jobs"] == 1
        finally:
            server.shutdown()
        from repro.service import read_trace, verify_replay

        assert verify_replay(read_trace(journal)).identical

    def test_serve_rejects_clairvoyant_scheduler(self):
        platform = Platform.uniform([1.0], databanks=["db"])
        with pytest.raises(ReproError, match="not service-safe"):
            api.serve(platform, scheduler="offline")
