"""Tests for the experiment configuration module."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.experiments.config import (
    PAPER_AVAILABILITIES,
    PAPER_DATABANKS,
    PAPER_DENSITIES,
    PAPER_SITES,
    ExperimentConfig,
    figure3_configurations,
    paper_configurations,
    small_configurations,
)


class TestExperimentConfig:
    def make(self, **overrides) -> ExperimentConfig:
        defaults = dict(
            name="test",
            n_clusters=3,
            n_databanks=3,
            availability=0.6,
            density=1.0,
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_specs_derived(self):
        config = self.make(window=120.0, max_jobs=30)
        platform_spec = config.platform_spec()
        workload_spec = config.workload_spec()
        assert platform_spec.n_clusters == 3
        assert platform_spec.availability == 0.6
        assert workload_spec.density == 1.0
        assert workload_spec.window == 120.0
        assert workload_spec.max_jobs == 30

    def test_scaled_copy(self):
        config = self.make(window=900.0)
        scaled = config.scaled(window=30.0, max_jobs=10)
        assert scaled.window == 30.0
        assert scaled.max_jobs == 10
        assert scaled.name == config.name
        assert config.window == 900.0  # original untouched

    def test_as_dict_round_trip(self):
        config = self.make()
        data = config.as_dict()
        assert data["n_clusters"] == 3
        assert data["density"] == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            self.make(n_clusters=0)
        with pytest.raises(ModelError):
            self.make(availability=1.5)
        with pytest.raises(ModelError):
            self.make(density=0.0)

    def test_solver_backend_is_a_journal_constant(self):
        # Every LP runs on HiGHS; the key stays, constant, so journals that
        # recorded the old default still resume.
        assert self.make().as_dict()["solver_backend"] == "auto"
        assert not hasattr(self.make(), "solver_backend")

    def test_run_options_reach_lp_schedulers(self):
        config = self.make()
        online = config.scheduler_options_for("online")
        assert online == {"policy": "on-arrival"}
        assert config.scheduler_options_for("offline") == {}
        assert config.scheduler_options_for("swrpt") == {}


class TestPaperDesign:
    def test_full_factorial_size(self):
        configs = paper_configurations()
        assert len(configs) == 162
        assert len({c.name for c in configs}) == 162

    def test_factor_levels(self):
        configs = paper_configurations()
        assert {c.n_clusters for c in configs} == set(PAPER_SITES)
        assert {c.n_databanks for c in configs} == set(PAPER_DATABANKS)
        assert {c.availability for c in configs} == set(PAPER_AVAILABILITIES)
        assert {c.density for c in configs} == set(PAPER_DENSITIES)

    def test_scaling_options_propagate(self):
        configs = paper_configurations(window=30.0, max_jobs=10)
        assert all(c.window == 30.0 and c.max_jobs == 10 for c in configs)

    def test_subset_design(self):
        configs = paper_configurations(sites=(3,), densities=(1.0, 2.0))
        assert len(configs) == 1 * 3 * 3 * 2

    def test_figure3_configurations(self):
        configs = figure3_configurations(densities=(0.5, 1.0, 2.0))
        assert len(configs) == 3
        assert all(c.n_clusters == 3 for c in configs)
        assert [c.density for c in configs] == [0.5, 1.0, 2.0]

    def test_small_configurations(self):
        configs = small_configurations()
        assert len(configs) >= 2
        assert all(c.max_jobs is not None for c in configs)
