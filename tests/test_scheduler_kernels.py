"""Bit-equality of the heuristic-scheduler kernels with their oracles.

Mirror of ``tests/test_replan_kernels.py`` for :mod:`repro.schedulers.kernels`:
each kernel that replaced a pure-python loop is checked against that loop,
kept verbatim in ``tests/kernel_oracles.py``, on randomized inputs drawn
from hypothesis seeds -- with deliberate exact ties and tolerance-band
near-ties injected so the fallback branch actually fires.  Equality is
exact (``==`` on every element, same shapes, same tuple layout).  Water
filling *is* its historical loop, so it is checked against the equation it
must solve instead.  A last test checks
the contract at the integration level: whole runs of every heuristic
scheduler with every oracle patched in reproduce the unpatched completions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import SCHEDULER_ORACLES, assert_bit_equal, patch_in_oracles
from repro.schedulers import kernels
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: The heuristic (LP-free) schedulers whose event loops call these kernels,
#: each with the oracle-backed kernel its run must reach.  ``mct-div`` only
#: calls the two loop kernels that have no oracle.
HEURISTIC_KEYS = {
    "fcfs": "rank_by_priority",
    "srpt": "rank_by_priority",
    "spt": "rank_by_priority",
    "swpt": "rank_by_priority",
    "swrpt": "rank_by_priority",
    "mct": "mct_argmin_completion",
    "mct-div": None,
    "bender02": "pseudo_stretch_priorities",
    "bender98": "expand_deadlines",
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _case_mct_argmin_completion(rng):
    n = int(rng.integers(0, 25))
    # Half the cases live at a tenth of the time scale: only completions
    # under ~8 have an ulp below the 1e-15 band, so only there can two
    # machines be inside the band without being exactly tied.
    scale = float(rng.choice([1.0, 0.1]))
    available = rng.uniform(0.0, 30.0 * scale, size=n)
    cycle_times = rng.uniform(0.05, 4.0, size=n)
    if n > 2 and rng.random() < 0.7:
        # Duplicate (available, cycle_time) pairs produce exact completion
        # ties, and 1e-16 jitter produces tolerance-band near-ties: both
        # force the kernel off its unique-winner fast path onto the
        # sequential champion chain.
        take = rng.integers(0, n, size=n // 2)
        jitter = 1.0 + rng.uniform(-1e-16, 1e-16, size=take.size)
        available = np.concatenate([available, available[take]])
        cycle_times = np.concatenate([cycle_times, cycle_times[take] * jitter])
    now = float(rng.uniform(0.0, 30.0 * scale))
    size = float(rng.uniform(0.1, 10.0)) * scale
    if n > 0 and rng.random() < 0.5:
        # Near-copies of the winner, shuffled in: only a tie *at the minimum*
        # decides between the argmin and the champion chain, and only a
        # near-copy placed before the winner makes the two disagree.
        best = int(np.argmin(np.maximum(available, now) + size * cycle_times))
        jitter = 1.0 + rng.choice([0.0, 2e-16, -2e-16], size=int(rng.integers(1, 4)))
        available = np.concatenate([available, np.full(jitter.size, available[best])])
        cycle_times = np.concatenate([cycle_times, cycle_times[best] * jitter])
        order = rng.permutation(available.size)
        available, cycle_times = available[order], cycle_times[order]
    return (available, cycle_times, now, size)


def _case_water_filling_completion(rng):
    n = int(rng.integers(1, 20))
    speeds = rng.uniform(0.2, 5.0, size=n)
    availability = rng.uniform(0.0, 20.0, size=n)
    if n > 2 and rng.random() < 0.6:
        # Duplicate availability dates: the earliest-availability order is
        # then tie-broken by position.
        take = rng.integers(0, n, size=n // 2)
        speeds = np.concatenate([speeds, rng.uniform(0.2, 5.0, size=take.size)])
        availability = np.concatenate([availability, availability[take]])
    work = float(rng.uniform(0.01, 50.0))
    return (work, speeds, availability)


def _case_rank_by_priority(rng):
    n = int(rng.integers(0, 40))
    priorities = rng.uniform(0.0, 10.0, size=n)
    if n > 2:
        # Duplicate priorities exercise the job-id tie-break; inf and the
        # 1e18-offset sentinels mimic EDF's "no deadline" keys.
        take = rng.integers(0, n, size=n // 2)
        priorities[take] = priorities[(take + 1) % n]
        priorities[rng.integers(0, n)] = np.inf
        priorities[rng.integers(0, n)] = 1e18 + float(rng.uniform(0.0, 30.0))
    job_ids = rng.permutation(n).astype(np.int64)
    return (priorities, job_ids)


def _case_pseudo_stretch_priorities(rng):
    n = int(rng.integers(0, 40))
    delta = float(rng.uniform(1.0, 50.0))
    ages = rng.uniform(0.0, 20.0, size=n)
    relative_sizes = rng.uniform(1.0, delta, size=n)
    if n > 0:
        # Pin some sizes exactly at sqrt(delta): the <= boundary of the
        # branch selection.
        boundary = rng.random(size=n) < 0.3
        relative_sizes[boundary] = np.sqrt(delta)
    return (ages, relative_sizes, delta)


def _case_expand_deadlines(rng):
    n = int(rng.integers(0, 40))
    releases = np.sort(rng.uniform(0.0, 30.0, size=n))
    flow_factors = rng.uniform(0.1, 10.0, size=n)
    scale = float(rng.uniform(0.5, 20.0))
    return (releases, flow_factors, scale)


_CASE_BUILDERS = {
    "mct_argmin_completion": _case_mct_argmin_completion,
    "water_filling_completion": _case_water_filling_completion,
    "rank_by_priority": _case_rank_by_priority,
    "pseudo_stretch_priorities": _case_pseudo_stretch_priorities,
    "expand_deadlines": _case_expand_deadlines,
}


def test_every_kernel_has_an_oracle_or_a_property():
    # A new kernel cannot land without its equality (or property) coverage.
    public = set(kernels.__all__)
    assert set(_CASE_BUILDERS) == public
    assert set(SCHEDULER_ORACLES) == public - {"water_filling_completion"}


@pytest.mark.parametrize("name", sorted(SCHEDULER_ORACLES))
@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_kernel_bit_equal_to_oracle(name, seed):
    args = _CASE_BUILDERS[name](_rng(seed))
    assert_bit_equal(getattr(kernels, name)(*args), SCHEDULER_ORACLES[name](*args))


def _completions(available, cycle_times, now, size):
    return np.maximum(available, now) + size * cycle_times


def test_tolerance_band_cases_reach_the_sequential_champion_scan():
    # The vectorized branch can only return the argmin.  Inside the 1e-15
    # band the champion chain keeps the *first* machine of the band instead,
    # so a result that is not the argmin can only have come out of the
    # sequential fallback.  The builder must produce band ties often, such
    # divergent ones among them, and unique winners too.
    banded = divergent = unique = 0
    for seed in range(300):
        args = _case_mct_argmin_completion(_rng(seed))
        completions = _completions(*args)
        if completions.size == 0:
            continue
        index, value = kernels.mct_argmin_completion(*args)
        if np.count_nonzero(completions <= completions.min() + 1e-15) > 1:
            banded += 1
            assert value <= completions.min() + 1e-15
            if index != int(np.argmin(completions)):
                divergent += 1
                assert value > completions.min()
        else:
            unique += 1
            assert (index, value) == (int(np.argmin(completions)), completions.min())
    assert banded >= 100 and unique >= 50 and divergent >= 5, (banded, unique, divergent)


def test_champion_scan_keeps_the_incumbent_inside_the_band():
    # Machine 1 completes 4e-16 earlier than machine 0: not by more than
    # 1e-15, so the historical scan keeps machine 0; a plain argmin says 1.
    available = np.zeros(2)
    cycle_times = np.array([1.0 + 4e-16, 1.0])
    assert int(np.argmin(_completions(available, cycle_times, 0.0, 1.0))) == 1
    assert kernels.mct_argmin_completion(available, cycle_times, 0.0, 1.0) == (
        0,
        1.0 + 4e-16,
    )


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_water_filling_solves_its_equation(seed):
    work, speeds, availability = _case_water_filling_completion(_rng(seed))
    done = kernels.water_filling_completion(work, speeds, availability)
    assert isinstance(done, float) and done > availability.min()
    # sum_i speeds[i] * max(0, T - availability[i]) == work
    filled = float(np.sum(speeds * np.maximum(0.0, done - availability)))
    assert filled == pytest.approx(work, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, factor=st.floats(min_value=1.0, max_value=4.0))
def test_water_filling_is_monotone_in_work(seed, factor):
    work, speeds, availability = _case_water_filling_completion(_rng(seed))
    done = kernels.water_filling_completion(work, speeds, availability)
    more = kernels.water_filling_completion(work * factor, speeds, availability)
    # More work never completes earlier (a rounding of slack: the two sweeps
    # may stop on different machines, hence associate differently).
    assert more >= done - 1e-12 * max(1.0, abs(done))


def test_empty_machine_set_rejected():
    with pytest.raises(ValueError, match="at least one machine"):
        kernels.water_filling_completion(
            1.0, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        )


@pytest.mark.parametrize("key", list(HEURISTIC_KEYS))
def test_whole_run_bit_identical_with_oracles_patched_in(key, monkeypatch):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=2.0, window=25.0, max_jobs=15)
    instance = generate_instance(platform_spec, workload_spec, rng=33)

    def run():
        options = {"max_jobs_per_resolution": 8} if key == "bender98" else {}
        return simulate(instance, make_scheduler(key, **options)).completions

    candidate = run()
    calls = patch_in_oracles(monkeypatch, kernels, SCHEDULER_ORACLES)
    reference = run()
    if HEURISTIC_KEYS[key] is not None:
        assert calls[HEURISTIC_KEYS[key]] > 0, calls
    assert candidate == reference
