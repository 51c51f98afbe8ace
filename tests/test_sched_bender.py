"""Tests for the Bender98 and Bender02 heuristics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedulers.bender02 import Bender02Scheduler
from repro.schedulers.bender98 import Bender98Scheduler
from repro.schedulers.offline import OfflineScheduler
from repro.simulation.engine import simulate
from repro.simulation.state import SchedulerState

from helpers import make_uniform_instance


class TestBender02:
    def test_pseudo_stretch_formula(self):
        instance = make_uniform_instance(sizes=[1.0, 16.0], releases=[0.0, 0.0])
        scheduler = Bender02Scheduler()
        scheduler.reset(instance)
        state = SchedulerState(instance)
        state.release(instance.job(0))
        state.release(instance.job(1))
        state.time = 8.0
        delta = 16.0
        small = state.active[0]
        large = state.active[1]
        # Priority keys sort ascending: each is the negated pseudo-stretch.
        keys = -scheduler.priority_keys(state, [small, large])
        # Small job (relative size 1 <= sqrt(16)=4): age / sqrt(delta).
        assert keys[0] == pytest.approx(8.0 / math.sqrt(delta))
        # Large job (relative size 16 > 4): age / delta.
        assert keys[1] == pytest.approx(8.0 / delta)

    def test_higher_pseudo_stretch_scheduled_first(self):
        # Both jobs waiting equally long: the small job has the larger
        # pseudo-stretch and must be served first.
        instance = make_uniform_instance(sizes=[1.0, 16.0], releases=[0.0, 0.0])
        result = simulate(instance, Bender02Scheduler())
        assert result.completions[0] < result.completions[1]

    def test_observed_delta_mode(self):
        instance = make_uniform_instance(sizes=[2.0, 8.0], releases=[0.0, 1.0])
        result = simulate(instance, Bender02Scheduler(delta_mode="observed"))
        assert set(result.completions) == {0, 1}

    def test_invalid_delta_mode(self):
        with pytest.raises(ValueError):
            Bender02Scheduler(delta_mode="whatever")

    def test_schedule_valid_on_restricted_platform(self, restricted_instance):
        result = simulate(restricted_instance, Bender02Scheduler())
        result.schedule.validate(restricted_instance)

    def test_worse_than_lp_heuristics_for_max_stretch(self, restricted_instance):
        """Table 1: Bender02 is far from optimal for max-stretch."""
        offline = simulate(restricted_instance, OfflineScheduler())
        bender = simulate(restricted_instance, Bender02Scheduler())
        assert bender.max_stretch >= offline.max_stretch - 1e-9


class TestBender98:
    def test_deadlines_follow_expanded_optimum(self):
        instance = make_uniform_instance(sizes=[4.0, 1.0], releases=[0.0, 1.0])
        scheduler = Bender98Scheduler()
        result = simulate(instance, scheduler)
        result.schedule.validate(instance)
        # One off-line resolution per arrival.
        assert scheduler.n_resolutions == 2

    def test_expansion_factor_default_sqrt_delta(self):
        instance = make_uniform_instance(sizes=[4.0, 1.0], releases=[0.0, 1.0])
        scheduler = Bender98Scheduler()
        scheduler.reset(instance)
        assert scheduler._expansion == pytest.approx(math.sqrt(4.0))

    def test_explicit_expansion_factor(self):
        instance = make_uniform_instance(sizes=[4.0, 1.0], releases=[0.0, 1.0])
        scheduler = Bender98Scheduler(expansion=1.0)
        scheduler.reset(instance)
        assert scheduler._expansion == 1.0

    def test_resolution_cap(self):
        rng = np.random.default_rng(0)
        sizes = list(rng.uniform(0.5, 3.0, size=6))
        releases = list(np.cumsum(rng.exponential(0.5, size=6)))
        instance = make_uniform_instance(sizes, releases)
        scheduler = Bender98Scheduler(max_jobs_per_resolution=3)
        result = simulate(instance, scheduler)
        assert set(result.completions) == set(instance.jobs.ids())

    def test_reasonable_max_stretch_but_not_optimal_in_general(self, restricted_instance):
        offline = simulate(restricted_instance, OfflineScheduler())
        bender = simulate(restricted_instance, Bender98Scheduler())
        bender.schedule.validate(restricted_instance)
        assert bender.max_stretch >= offline.max_stretch - 1e-9
        # With the sqrt(Delta) expansion it should still avoid catastrophic
        # starvation (well below the MCT-style blow-ups).
        assert bender.max_stretch <= 10 * offline.max_stretch

    def test_overhead_grows_with_arrivals(self):
        """Bender98 solves one off-line problem per release date (its known weakness)."""
        rng = np.random.default_rng(1)
        sizes = list(rng.uniform(0.5, 3.0, size=8))
        releases = list(np.cumsum(rng.exponential(0.5, size=8)))
        instance = make_uniform_instance(sizes, releases)
        scheduler = Bender98Scheduler()
        simulate(instance, scheduler)
        assert scheduler.n_resolutions == 8
