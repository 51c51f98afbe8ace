"""Tests for the experiment runner, statistics, tables, figures, overhead and IO."""

from __future__ import annotations

import math

import pytest

from repro.experiments.config import ExperimentConfig, figure3_configurations
from repro.experiments.figures import figure3a, figure3b, run_figure3_sweep
from repro.experiments.io import load_records_csv, save_records_csv, save_records_json
from repro.experiments.overhead import scheduling_overhead
from repro.experiments.runner import ExperimentResults, RunRecord, run_campaign
from repro.experiments.statistics import compute_degradations, summarize
from repro.experiments.tables import (
    table1,
    tables_by_availability,
    tables_by_databases,
    tables_by_density,
    tables_by_sites,
)

FAST_SCHEDULERS = ("swrpt", "srpt", "mct")


@pytest.fixture(scope="module")
def tiny_campaign() -> ExperimentResults:
    """A very small campaign shared by several tests (module-scoped for speed)."""
    configs = [
        ExperimentConfig(
            name="tiny-a",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=0.75,
            processors_per_cluster=3,
            window=30.0,
            max_jobs=10,
        ),
        ExperimentConfig(
            name="tiny-b",
            n_clusters=3,
            n_databanks=3,
            availability=0.9,
            density=1.5,
            processors_per_cluster=3,
            window=30.0,
            max_jobs=10,
        ),
    ]
    return run_campaign(configs, scheduler_keys=FAST_SCHEDULERS, replicates=2, base_seed=99)


class TestRunner:
    def test_record_count(self, tiny_campaign):
        # 2 configs x 2 replicates x 3 schedulers.
        assert len(tiny_campaign) == 12

    def test_records_have_metrics(self, tiny_campaign):
        for record in tiny_campaign:
            assert record.n_jobs > 0
            assert record.max_stretch >= 1.0 - 1e-9
            assert record.sum_stretch >= record.max_stretch - 1e-9
            assert not record.failed

    def test_filtering(self, tiny_campaign):
        assert len(tiny_campaign.by_sites(2)) == 6
        assert len(tiny_campaign.by_density(1.5)) == 6
        assert len(tiny_campaign.by_databases(3)) == 6
        assert len(tiny_campaign.by_availability(0.9)) == 6
        assert tiny_campaign.schedulers() == ["SWRPT", "SRPT", "MCT"]
        assert len(tiny_campaign.instances()) == 4

    def test_reproducibility(self):
        config = ExperimentConfig(
            name="repro-check",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=1.0,
            processors_per_cluster=2,
            window=20.0,
            max_jobs=8,
        )
        a = run_campaign([config], scheduler_keys=("swrpt",), replicates=2, base_seed=5)
        b = run_campaign([config], scheduler_keys=("swrpt",), replicates=2, base_seed=5)
        for ra, rb in zip(a, b):
            assert ra.max_stretch == pytest.approx(rb.max_stretch)
            assert ra.n_jobs == rb.n_jobs

    def test_parallel_matches_serial(self):
        config = ExperimentConfig(
            name="parallel-check",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=1.0,
            processors_per_cluster=2,
            window=20.0,
            max_jobs=8,
        )
        serial = run_campaign([config], scheduler_keys=("swrpt",), replicates=2, n_workers=1)
        parallel = run_campaign([config], scheduler_keys=("swrpt",), replicates=2, n_workers=2)
        def key(r):
            return (r.config, r.replicate, r.scheduler)

        for rs, rp in zip(sorted(serial, key=key), sorted(parallel, key=key)):
            assert rs.max_stretch == pytest.approx(rp.max_stretch)

    def test_progress_callback(self):
        config = ExperimentConfig(
            name="progress",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=1.0,
            processors_per_cluster=2,
            window=15.0,
            max_jobs=5,
        )
        messages: list[str] = []
        run_campaign(
            [config], scheduler_keys=("swrpt",), replicates=2, progress=messages.append
        )
        assert len(messages) == 2


class TestStatistics:
    def test_degradations_normalized_by_best(self, tiny_campaign):
        degradations = compute_degradations(tiny_campaign)
        by_instance: dict[tuple[str, int], list[float]] = {}
        for record in degradations:
            assert record.max_stretch_degradation >= 1.0 - 1e-9
            assert record.sum_stretch_degradation >= 1.0 - 1e-9
            by_instance.setdefault((record.config, record.replicate), []).append(
                record.max_stretch_degradation
            )
        # The best heuristic on each instance scores exactly 1.
        for values in by_instance.values():
            assert min(values) == pytest.approx(1.0)

    def test_summarize_rows(self, tiny_campaign):
        rows = summarize(compute_degradations(tiny_campaign))
        assert {row.scheduler for row in rows} == {"SWRPT", "SRPT", "MCT"}
        for row in rows:
            assert row.max_stretch_max >= row.max_stretch_mean >= 1.0 - 1e-9
            assert row.sum_stretch_max >= row.sum_stretch_mean >= 1.0 - 1e-9
            assert row.n_instances == 4

    def test_summarize_respects_order(self, tiny_campaign):
        rows = summarize(
            compute_degradations(tiny_campaign), scheduler_order=("MCT", "SRPT", "SWRPT")
        )
        assert [row.scheduler for row in rows] == ["MCT", "SRPT", "SWRPT"]

    def test_failed_records_excluded(self):
        records = [
            RunRecord(
                config="c", replicate=0, scheduler="ok", n_jobs=1, n_clusters=1,
                n_databanks=1, availability=0.5, density=1.0, max_stretch=2.0,
                sum_stretch=2.0, max_flow=1.0, sum_flow=1.0, makespan=1.0,
                scheduler_time=0.0,
            ),
            RunRecord(
                config="c", replicate=0, scheduler="broken", n_jobs=1, n_clusters=1,
                n_databanks=1, availability=0.5, density=1.0, max_stretch=math.nan,
                sum_stretch=math.nan, max_flow=math.nan, sum_flow=math.nan,
                makespan=math.nan, scheduler_time=math.nan, failed=True,
            ),
        ]
        degradations = compute_degradations(ExperimentResults(records))
        assert [d.scheduler for d in degradations] == ["ok"]


class TestTables:
    def test_table1_contains_all_schedulers(self, tiny_campaign):
        text = table1(tiny_campaign).render()
        for name in ("SWRPT", "SRPT", "MCT"):
            assert name in text
        assert "Table 1" in text

    def test_breakdown_tables(self, tiny_campaign):
        assert set(tables_by_sites(tiny_campaign)) == {2, 3}
        assert set(tables_by_density(tiny_campaign)) == {0.75, 1.5}
        assert set(tables_by_databases(tiny_campaign)) == {2, 3}
        assert set(tables_by_availability(tiny_campaign)) == {0.6, 0.9}
        for table in tables_by_density(tiny_campaign).values():
            assert "MaxS mean" in table.render()


class TestIO:
    def test_csv_round_trip(self, tiny_campaign, tmp_path):
        path = save_records_csv(tiny_campaign, tmp_path / "records.csv")
        loaded = load_records_csv(path)
        assert len(loaded) == len(tiny_campaign)
        def key(r):
            return (r.config, r.replicate, r.scheduler)

        for original, restored in zip(
            sorted(tiny_campaign, key=key), sorted(loaded, key=key)
        ):
            assert restored.max_stretch == pytest.approx(original.max_stretch)
            assert restored.n_jobs == original.n_jobs
            assert restored.failed == original.failed

    def test_json_export(self, tiny_campaign, tmp_path):
        path = save_records_json(tiny_campaign, tmp_path / "records.json")
        assert path.exists()
        import json

        payload = json.loads(path.read_text())
        assert len(payload) == len(tiny_campaign)
        assert {"config", "scheduler", "max_stretch"} <= set(payload[0])


class TestFigure3AndOverhead:
    def test_figure3_sweep_small(self):
        configs = figure3_configurations(
            densities=(0.5, 2.0), n_clusters=2, n_databanks=2, window=15.0, max_jobs=6
        )
        points = run_figure3_sweep(configs, replicates=1, base_seed=7)
        assert len(points) == 2
        for point in points:
            assert point.optimized_max_stretch_degradation >= -1e-6
            assert point.n_instances == 1
        series_a = figure3a(points)
        series_b = figure3b(points)
        assert len(series_a) == len(series_b) == 2
        assert series_a[0][0] == 0.5

    def test_overhead_comparison(self):
        records = scheduling_overhead(
            scheduler_keys=("swrpt", "offline", "bender02"),
            n_clusters=2,
            n_databanks=2,
            window=15.0,
            max_jobs=6,
            replicates=1,
        )
        names = {r.scheduler for r in records}
        assert names == {"SWRPT", "Offline", "Bender02"}
        for record in records:
            assert record.mean_scheduler_time >= 0.0
            assert record.mean_decisions > 0
        offline = next(r for r in records if r.scheduler == "Offline")
        swrpt = next(r for r in records if r.scheduler == "SWRPT")
        # The LP-based off-line solver costs far more scheduler time than a
        # simple list heuristic (the Section 5.3 ordering).
        assert offline.mean_scheduler_time > swrpt.mean_scheduler_time
