"""Tests for the classical priority heuristics (FCFS, SRPT, SPT, SWPT, SWRPT, EDF)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.schedulers.base import greedy_assignment
from repro.schedulers.priority import (
    EDFScheduler,
    FCFSScheduler,
    SPTScheduler,
    SRPTScheduler,
    SWPTScheduler,
    SWRPTScheduler,
)
from repro.simulation.engine import simulate
from repro.simulation.state import SchedulerState

from helpers import make_uniform_instance


def random_uniprocessor_instance(seed: int, n_jobs: int = 8) -> Instance:
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.5, 5.0, size=n_jobs)
    releases = np.cumsum(rng.exponential(1.0, size=n_jobs))
    return make_uniform_instance(list(sizes), list(releases))


class TestFCFS:
    def test_serves_in_release_order(self, uniprocessor_instance):
        result = simulate(uniprocessor_instance, FCFSScheduler())
        completions = result.completions
        assert completions[0] < completions[1] < completions[2]

    def test_fcfs_optimal_for_max_flow(self):
        """FCFS minimizes the max-flow among all tested heuristics [2]."""
        for seed in range(4):
            instance = random_uniprocessor_instance(seed)
            fcfs = simulate(instance, FCFSScheduler()).max_flow
            for scheduler in (SRPTScheduler(), SWRPTScheduler(), SPTScheduler()):
                other = simulate(instance, scheduler).max_flow
                assert fcfs <= other + 1e-9


class TestSRPT:
    def test_srpt_optimal_for_sum_flow(self):
        """SRPT minimizes the sum-flow among all tested heuristics [1]."""
        for seed in range(4):
            instance = random_uniprocessor_instance(seed)
            srpt = simulate(instance, SRPTScheduler()).sum_flow
            for scheduler in (FCFSScheduler(), SWRPTScheduler(), SPTScheduler(), SWPTScheduler()):
                other = simulate(instance, scheduler).sum_flow
                assert srpt <= other + 1e-6

    def test_preempts_long_job_for_short_one(self):
        instance = make_uniform_instance(sizes=[10.0, 1.0], releases=[0.0, 1.0])
        result = simulate(instance, SRPTScheduler())
        # The unit job preempts the long one and completes at t=2.
        assert result.completions[1] == pytest.approx(2.0)
        assert result.completions[0] == pytest.approx(11.0)

    def test_srpt_2_competitive_for_sum_stretch_in_practice(self):
        """[13]: SRPT is 2-competitive for sum-stretch; check against the best observed."""
        for seed in range(4):
            instance = random_uniprocessor_instance(seed)
            results = {
                name: simulate(instance, scheduler).sum_stretch
                for name, scheduler in [
                    ("srpt", SRPTScheduler()),
                    ("swrpt", SWRPTScheduler()),
                    ("spt", SPTScheduler()),
                    ("fcfs", FCFSScheduler()),
                ]
            }
            best = min(results.values())
            assert results["srpt"] <= 2.0 * best + 1e-9


class TestSWRPT:
    def test_ties_with_srpt_on_equal_sizes(self):
        instance = make_uniform_instance(sizes=[2.0, 2.0, 2.0], releases=[0.0, 0.5, 1.0])
        srpt = simulate(instance, SRPTScheduler()).completions
        swrpt = simulate(instance, SWRPTScheduler()).completions
        for job_id in srpt:
            assert srpt[job_id] == pytest.approx(swrpt[job_id])

    def test_swrpt_does_not_preempt_nearly_finished_job(self):
        # Job 0 (size 4) is nearly finished when job 1 (size 2) arrives:
        # remaining 0.5 -> key 4*0.5 = 2 < 2*2 = 4, so job 0 keeps the machine.
        instance = make_uniform_instance(sizes=[4.0, 2.0], releases=[0.0, 3.5])
        result = simulate(instance, SWRPTScheduler())
        assert result.completions[0] == pytest.approx(4.0)
        # SRPT would also keep it here; build a sharper contrast with SPT:
        spt = simulate(instance, SPTScheduler())
        assert spt.completions[0] == pytest.approx(6.0)  # SPT preempts for the smaller job

    def test_swrpt_uses_weight_when_given(self):
        platform = Platform.uniform([1.0], databanks=["db"])
        jobs = [
            Job(0, release=0.0, size=4.0, databank="db", weight=100.0),
            Job(1, release=1.0, size=1.0, databank="db", weight=0.001),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, SWRPTScheduler())
        # Job 0 has enormous weight -> its weighted remaining time is tiny ->
        # it keeps the machine and finishes first.
        assert result.completions[0] < result.completions[1]


class TestSPTAndSWPT:
    def test_spt_and_swpt_identical_for_stretch_weights(self):
        for seed in range(3):
            instance = random_uniprocessor_instance(seed)
            spt = simulate(instance, SPTScheduler()).completions
            swpt = simulate(instance, SWPTScheduler()).completions
            for job_id in spt:
                assert spt[job_id] == pytest.approx(swpt[job_id])

    def test_spt_ignores_remaining_time(self):
        # SPT may preempt an almost-complete long job, unlike SRPT/SWRPT.
        instance = make_uniform_instance(sizes=[4.0, 2.0], releases=[0.0, 3.9])
        spt = simulate(instance, SPTScheduler())
        srpt = simulate(instance, SRPTScheduler())
        assert spt.completions[0] > srpt.completions[0]


class TestEDF:
    def test_edf_with_mapping(self):
        instance = make_uniform_instance(sizes=[2.0, 2.0], releases=[0.0, 0.0])
        scheduler = EDFScheduler({0: 10.0, 1: 2.0})
        result = simulate(instance, scheduler)
        # Job 1 has the earlier deadline: served first.
        assert result.completions[1] < result.completions[0]

    def test_edf_with_callable(self):
        instance = make_uniform_instance(sizes=[2.0, 2.0], releases=[0.0, 0.0])
        scheduler = EDFScheduler(lambda job_id: 1.0 if job_id == 0 else 5.0)
        result = simulate(instance, scheduler)
        assert result.completions[0] < result.completions[1]

    def test_edf_without_deadlines_behaves_like_fcfs(self):
        instance = make_uniform_instance(sizes=[3.0, 1.0], releases=[0.0, 0.5])
        edf = simulate(instance, EDFScheduler())
        fcfs = simulate(instance, FCFSScheduler())
        for job_id in edf.completions:
            assert edf.completions[job_id] == pytest.approx(fcfs.completions[job_id])

    def test_set_deadlines_overrides(self):
        scheduler = EDFScheduler({0: 5.0})
        scheduler.set_deadlines({0: 1.0, 1: 2.0})
        assert scheduler.deadline_of(0) == 1.0
        assert scheduler.deadline_of(1) == 2.0
        assert scheduler.deadline_of(7) == float("inf")


class TestGreedyDistributionRule:
    def test_top_priority_job_gets_all_machines(self):
        """Section 3 rule: the most urgent job grabs every available eligible machine."""
        platform = Platform.uniform([1.0, 1.0, 1.0], databanks=["db"])
        jobs = [
            Job(0, release=0.0, size=9.0, databank="db"),
            Job(1, release=0.0, size=3.0, databank="db"),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, SRPTScheduler())
        # Job 1 (smaller) takes all three machines: done at t=1; then job 0 at 1+3=4.
        assert result.completions[1] == pytest.approx(1.0)
        assert result.completions[0] == pytest.approx(4.0)

    def test_lower_priority_job_uses_leftover_machines(self):
        platform = Platform(
            [
                Machine(0, 1.0, 0, frozenset({"a"})),
                Machine(1, 1.0, 1, frozenset({"b"})),
            ]
        )
        jobs = [
            Job(0, release=0.0, size=1.0, databank="a"),
            Job(1, release=0.0, size=5.0, databank="b"),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, SRPTScheduler())
        # Even though job 0 has priority, job 1 runs concurrently on machine 1.
        assert result.completions[0] == pytest.approx(1.0)
        assert result.completions[1] == pytest.approx(5.0)


def per_job_greedy_loop(state: SchedulerState, runtimes) -> dict[int, int]:
    """The rule as it was written before it skipped served databanks."""
    instance = state.instance
    available = state.available_ids()
    mapping: dict[int, int] = {}
    for runtime in runtimes:
        if not available:
            break
        eligible = [
            m
            for m in instance.platform.ids()
            if instance.machine(m).hosts(runtime.job.databank) and m in available
        ]
        for machine_id in eligible:
            mapping[machine_id] = runtime.job_id
            available.discard(machine_id)
    return mapping


BANKS = ("a", "b", "c")


@settings(max_examples=200, deadline=None)
@given(
    hosted=st.lists(st.sets(st.sampled_from(BANKS)), min_size=1, max_size=8),
    wanted=st.lists(st.sampled_from(BANKS + (None,)), min_size=1, max_size=12),
    down=st.sets(st.integers(0, 7)),
    data=st.data(),
)
def test_greedy_rule_equals_the_per_job_loop(hosted, wanted, down, data):
    """Same mapping *and* same key order, with ``None`` jobs and machines down."""
    platform = Platform(Machine(i, 1.0 + i, i, frozenset(b)) for i, b in enumerate(hosted))
    jobs = [Job(i, release=0.0, size=1.0, databank=bank) for i, bank in enumerate(wanted)]
    state = SchedulerState(Instance(jobs, platform, require_feasible=False))
    for job in jobs:
        state.release(job)
    state.down = {m for m in down if m < len(hosted)}
    order = data.draw(st.permutations(state.active_jobs()))
    expected = per_job_greedy_loop(state, order)
    assert list(greedy_assignment(state, order).mapping.items()) == list(expected.items())
