"""Property-based tests (hypothesis) on the core invariants.

These tests generate random instances and random schedules of execution and
assert the structural invariants that every component of the library must
preserve:

* every simulation produces a valid, complete schedule whose completion times
  match the engine's bookkeeping;
* stretch values are always >= 1;
* the off-line LP optimum lower-bounds every heuristic;
* Lemma 1 transformations preserve or improve completion times;
* degradations are always >= 1 and the best heuristic scores exactly 1.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.metrics import normalize_by_best, stretches
from repro.core.platform import Machine, Platform
from repro.core.transform import (
    divisible_schedule_to_uniprocessor,
    equivalent_uniprocessor_instance,
    uniprocessor_schedule_to_divisible,
)
from repro.lp.maxstretch import minimize_max_weighted_flow
from repro.lp.problem import problem_from_instance
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from helpers import work_for_job

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

job_sizes = st.floats(min_value=0.2, max_value=20.0, allow_nan=False, allow_infinity=False)
gaps = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False)
cycle_times = st.floats(min_value=0.2, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def uniform_instances(draw, max_jobs: int = 6, max_machines: int = 3) -> Instance:
    """Random uniform instances (every machine hosts the single databank)."""
    n_machines = draw(st.integers(min_value=1, max_value=max_machines))
    speeds = draw(st.lists(cycle_times, min_size=n_machines, max_size=n_machines))
    platform = Platform.uniform(speeds, databanks=["db"])
    n_jobs = draw(st.integers(min_value=1, max_value=max_jobs))
    sizes = draw(st.lists(job_sizes, min_size=n_jobs, max_size=n_jobs))
    deltas = draw(st.lists(gaps, min_size=n_jobs, max_size=n_jobs))
    releases = np.cumsum(deltas)
    jobs = [
        Job(i, release=float(r), size=float(s), databank="db")
        for i, (s, r) in enumerate(zip(sizes, releases))
    ]
    return Instance(jobs, platform)


@st.composite
def restricted_instances(draw, max_jobs: int = 6) -> Instance:
    """Random instances with two databanks and partial replication."""
    cycle_a = draw(cycle_times)
    cycle_b = draw(cycle_times)
    cycle_c = draw(cycle_times)
    platform = Platform(
        [
            Machine(0, cycle_a, 0, frozenset({"a"})),
            Machine(1, cycle_b, 1, frozenset({"a", "b"})),
            Machine(2, cycle_c, 2, frozenset({"b"})),
        ]
    )
    n_jobs = draw(st.integers(min_value=1, max_value=max_jobs))
    sizes = draw(st.lists(job_sizes, min_size=n_jobs, max_size=n_jobs))
    deltas = draw(st.lists(gaps, min_size=n_jobs, max_size=n_jobs))
    banks = draw(st.lists(st.sampled_from(["a", "b"]), min_size=n_jobs, max_size=n_jobs))
    releases = np.cumsum(deltas)
    jobs = [
        Job(i, release=float(r), size=float(s), databank=bank)
        for i, (s, r, bank) in enumerate(zip(sizes, releases, banks))
    ]
    return Instance(jobs, platform)


FAST_KEYS = ["fcfs", "srpt", "swrpt", "spt", "bender02", "mct", "mct-div"]


# ---------------------------------------------------------------------------
# Simulation invariants
# ---------------------------------------------------------------------------


class TestSimulationInvariants:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=restricted_instances(), key=st.sampled_from(FAST_KEYS))
    def test_schedules_valid_and_complete(self, instance, key):
        result = simulate(instance, make_scheduler(key))
        assert result.schedule.violations(instance) == []
        assert set(result.completions) == set(instance.jobs.ids())
        # Completion times derived from the schedule match the engine's.
        schedule_completions = result.schedule.completion_times()
        for job_id, completion in result.completions.items():
            assert schedule_completions[job_id] == pytest.approx(completion, rel=1e-6, abs=1e-6)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=restricted_instances(), key=st.sampled_from(FAST_KEYS))
    def test_stretches_at_least_one(self, instance, key):
        result = simulate(instance, make_scheduler(key))
        for value in result.stretches().values():
            assert value >= 1.0 - 1e-6

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances())
    def test_fcfs_max_flow_no_worse_than_srpt_et_al(self, instance):
        fcfs = simulate(instance, make_scheduler("fcfs")).max_flow
        for key in ("srpt", "swrpt", "spt"):
            assert fcfs <= simulate(instance, make_scheduler(key)).max_flow + 1e-6

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances())
    def test_srpt_sum_flow_no_worse_than_others(self, instance):
        srpt = simulate(instance, make_scheduler("srpt")).sum_flow
        for key in ("fcfs", "swrpt", "spt"):
            assert srpt <= simulate(instance, make_scheduler(key)).sum_flow + 1e-5


# ---------------------------------------------------------------------------
# LP invariants
# ---------------------------------------------------------------------------


class TestLPInvariants:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=restricted_instances(max_jobs=5))
    def test_offline_optimum_lower_bounds_heuristics(self, instance):
        optimum = minimize_max_weighted_flow(problem_from_instance(instance)).objective
        assert optimum >= 1.0 - 1e-6  # a stretch below 1 is impossible
        for key in ("srpt", "swrpt", "mct"):
            result = simulate(instance, make_scheduler(key))
            assert result.max_stretch >= optimum - 1e-6

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=restricted_instances(max_jobs=5))
    def test_lp_allocation_is_complete(self, instance):
        problem = problem_from_instance(instance)
        solution = minimize_max_weighted_flow(problem)
        for job in problem.jobs:
            assert work_for_job(solution, job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-5
            )



#: The plan-following on-line LP variants (Online-EGDF's global list does not
#: follow the LP's allocation, so its promise does not bind it).
PLAN_FOLLOWING_LP_KEYS = ["online", "online-edf", "online-nonopt"]


def _record_promises(scheduler) -> list[tuple[float, float]]:
    """``(S*, deadline bound installed)`` of each of ``scheduler``'s LP replans.

    Wraps the instance's ``_install_plan``, which ``_replan`` calls right
    after setting ``last_objective`` (S*); the installed solution's
    ``objective`` is S* x (1 + the inflation that replan's System (2) solve
    used).
    """
    promises: list[tuple[float, float]] = []
    install = scheduler._install_plan

    def install_and_record(solution, instance, now):
        promises.append((scheduler.last_objective, solution.objective))
        install(solution, instance, now)

    scheduler._install_plan = install_and_record
    return promises


def assert_run_keeps_its_lp_promise(instance: Instance, key: str) -> None:
    """``offline`` ends at its S*; a plan-following on-line variant within its largest."""
    scheduler = make_scheduler(key)
    if key == "offline":
        result = simulate(instance, scheduler)
        optimum = scheduler.optimal_max_stretch
        assert result.max_stretch == pytest.approx(optimum, rel=1e-9, abs=0.0)
        return
    promises = _record_promises(scheduler)
    result = simulate(instance, scheduler)
    assert promises
    for optimum, bound in promises:
        # System (2)'s inflation: 1e-7 (1e-12 generic), tenfold per retry up to 1e-3.
        assert optimum < bound <= optimum * (1.0 + 1e-3)
    assert result.max_stretch <= max(bound for _, bound in promises) + 1e-12


class TestLPPromises:
    """A plan-based LP run ends within the max-stretch its LPs promised."""

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instance=restricted_instances(),
        key=st.sampled_from(["offline", *PLAN_FOLLOWING_LP_KEYS]),
    )
    def test_run_keeps_its_lp_promise(self, instance, key):
        assert_run_keeps_its_lp_promise(instance, key)

    @pytest.mark.parametrize("key", ["offline", *PLAN_FOLLOWING_LP_KEYS])
    def test_online_dense_shaped_run_keeps_its_lp_promise(self, key):
        instance = generate_instance(
            PlatformSpec(n_clusters=3, processors_per_cluster=10, n_databanks=3, availability=0.6),
            WorkloadSpec(density=3.0, window=45.0, max_jobs=60),
            rng=11,
        )
        assert len(instance.jobs) == 60
        assert_run_keeps_its_lp_promise(instance, key)


# ---------------------------------------------------------------------------
# Lemma 1 invariants
# ---------------------------------------------------------------------------


class TestLemma1Invariants:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances(), key=st.sampled_from(["srpt", "swrpt", "fcfs"]))
    def test_forward_transformation_never_increases_completions(self, instance, key):
        result = simulate(instance, make_scheduler(key))
        equivalent = equivalent_uniprocessor_instance(instance)
        projected = divisible_schedule_to_uniprocessor(result.schedule, instance)
        assert projected.violations(equivalent) == []
        for job in instance.jobs:
            assert projected.completion_time(job.job_id) <= result.completions[job.job_id] + 1e-6

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances(), key=st.sampled_from(["srpt", "swrpt"]))
    def test_reverse_transformation_preserves_completions(self, instance, key):
        equivalent = equivalent_uniprocessor_instance(instance)
        uni = simulate(equivalent, make_scheduler(key))
        lifted = uniprocessor_schedule_to_divisible(uni.schedule, instance)
        assert lifted.violations(instance) == []
        for job in instance.jobs:
            assert lifted.completion_time(job.job_id) == pytest.approx(
                uni.completions[job.job_id], rel=1e-9, abs=1e-9
            )

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances(), key=st.sampled_from(["srpt", "swrpt", "fcfs"]))
    def test_priority_heuristics_equal_their_uniprocessor_analogue(self, instance, key):
        """On uniform platforms the greedy rule reproduces the uni-processor schedule."""
        multi = simulate(instance, make_scheduler(key))
        equivalent = equivalent_uniprocessor_instance(instance)
        uni = simulate(equivalent, make_scheduler(key))
        for job in instance.jobs:
            assert multi.completions[job.job_id] == pytest.approx(
                uni.completions[job.job_id], rel=1e-6, abs=1e-6
            )


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------


class TestMetricInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.floats(min_value=0.1, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_normalize_by_best_properties(self, values):
        normalized = normalize_by_best(values)
        assert min(normalized.values()) == pytest.approx(1.0)
        for name in values:
            assert normalized[name] >= 1.0 - 1e-12

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=uniform_instances())
    def test_stretch_lower_bound_from_completions(self, instance):
        """Any completion profile that respects physics has stretches >= 1."""
        result = simulate(instance, make_scheduler("srpt"))
        values = stretches(instance, result.completions)
        assert all(v >= 1.0 - 1e-9 for v in values.values())
