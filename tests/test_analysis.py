"""Tests for ``tests/analysis.py`` (post-simulation analysis helpers)."""

from __future__ import annotations

import pytest

from analysis import (
    backlog_timeline,
    compare_results,
    jain_fairness_index,
    per_databank_stretch,
    stretch_distribution,
)
from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate


@pytest.fixture
def instance() -> Instance:
    platform = Platform(
        [
            Machine(0, 1.0, 0, frozenset({"a"})),
            Machine(1, 0.5, 1, frozenset({"a", "b"})),
        ]
    )
    jobs = [
        Job(0, release=0.0, size=9.0, databank="a"),
        Job(1, release=1.0, size=2.0, databank="b"),
        Job(2, release=2.0, size=1.0, databank="b"),
        Job(3, release=3.0, size=4.0, databank="a"),
    ]
    return Instance(jobs, platform)


class TestJainFairness:
    def test_equal_values_give_one(self):
        assert jain_fairness_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_dominant_value_gives_one_over_n(self):
        values = [1000.0, 1e-9, 1e-9, 1e-9]
        assert jain_fairness_index(values) == pytest.approx(0.25, rel=1e-3)

    def test_accepts_mapping(self):
        assert jain_fairness_index({0: 1.0, 1: 1.0}) == pytest.approx(1.0)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ModelError):
            jain_fairness_index([])
        with pytest.raises(ModelError):
            jain_fairness_index([1.0, 0.0])

    def test_bounds(self):
        values = [1.0, 2.0, 5.0, 9.0]
        index = jain_fairness_index(values)
        assert 1.0 / len(values) <= index <= 1.0


class TestStretchDistribution:
    def test_summary_consistency(self, instance):
        result = simulate(instance, make_scheduler("swrpt"))
        dist = stretch_distribution(instance, result.completions)
        assert dist.n_jobs == instance.n_jobs
        assert dist.minimum >= 1.0 - 1e-9
        assert dist.minimum <= dist.median <= dist.p90 <= dist.p95 <= dist.maximum
        assert dist.minimum <= dist.mean <= dist.maximum
        assert 0.0 < dist.fairness <= 1.0
        assert dist.maximum == pytest.approx(result.max_stretch)

    def test_as_dict_keys(self, instance):
        result = simulate(instance, make_scheduler("srpt"))
        data = stretch_distribution(instance, result.completions).as_dict()
        assert {"mean", "median", "p95", "max", "fairness"} <= set(data)

    def test_fairer_scheduler_has_higher_fairness_on_starvation_instance(self):
        from repro.workload.adversarial import starvation_instance

        instance = starvation_instance(4.0, 48)
        srpt = simulate(instance, make_scheduler("srpt"))
        fcfs = simulate(instance, make_scheduler("fcfs"))
        srpt_dist = stretch_distribution(instance, srpt.completions)
        fcfs_dist = stretch_distribution(instance, fcfs.completions)
        # SRPT starves the large job: one job's stretch dwarfs the others and
        # its max is far above FCFS's; FCFS spreads the pain more evenly in
        # the max sense (every unit job is slowed the same way).
        assert srpt_dist.maximum > fcfs_dist.maximum


class TestBacklogTimeline:
    def test_backlog_starts_and_ends_near_zero(self, instance):
        result = simulate(instance, make_scheduler("swrpt"))
        timeline = backlog_timeline(result, resolution=50)
        assert len(timeline) == 50
        times = [t for t, _ in timeline]
        assert times == sorted(times)
        # At the end of the schedule everything is processed.
        assert timeline[-1][1] == pytest.approx(0.0, abs=1e-6)
        # All backlog values are non-negative and bounded by the total work.
        total = sum(j.size for j in instance.jobs)
        for _, backlog in timeline:
            assert -1e-9 <= backlog <= total + 1e-9

    def test_backlog_peaks_after_burst(self):
        platform = Platform.single_machine(1.0, databanks=["db"])
        jobs = [Job(i, release=0.0, size=5.0, databank="db") for i in range(3)]
        result = simulate(Instance(jobs, platform), make_scheduler("fcfs"))
        timeline = backlog_timeline(result, resolution=30)
        backlogs = [b for _, b in timeline]
        assert max(backlogs) == pytest.approx(15.0, rel=0.1)

    def test_resolution_validated(self, instance):
        result = simulate(instance, make_scheduler("srpt"))
        with pytest.raises(ModelError):
            backlog_timeline(result, resolution=1)


class TestPerDatabankAndComparison:
    def test_per_databank_breakdown(self, instance):
        result = simulate(instance, make_scheduler("swrpt"))
        breakdown = per_databank_stretch(instance, result.completions)
        assert set(breakdown) == {"a", "b"}
        assert breakdown["a"].n_jobs == 2
        assert breakdown["b"].n_jobs == 2
        overall_max = result.max_stretch
        assert max(d.maximum for d in breakdown.values()) == pytest.approx(overall_max)

    def test_compare_results_table(self, instance):
        results = [
            simulate(instance, make_scheduler(key)) for key in ("mct", "swrpt", "online")
        ]
        table = compare_results(results)
        text = table.render()
        assert "MCT" in text and "SWRPT" in text and "Online" in text
        assert "fairness" in text

    def test_compare_results_rejects_mixed_instances(self, instance):
        other = Instance(
            [Job(0, release=0.0, size=1.0, databank="a")], instance.platform
        )
        results = [
            simulate(instance, make_scheduler("swrpt")),
            simulate(other, make_scheduler("swrpt")),
        ]
        with pytest.raises(ModelError):
            compare_results(results)

    def test_compare_results_requires_results(self):
        with pytest.raises(ModelError):
            compare_results([])
