"""Bit-equality of the replan kernels (:mod:`repro.lp.kernels`) with their oracles.

Each kernel that replaced a pure-python loop is checked against that loop,
kept verbatim in ``tests/kernel_oracles.py``, on randomized inputs drawn
from hypothesis seeds -- with near-duplicate clusters and exact duplicate
pairs injected so the merge and dedup paths actually fire.  Equality is
exact (``==`` on every element, same shapes, same tuple layout), matching
the module's bit-identity contract.  ``scatter_capacity_sys1`` *is* its
historical body, so it is checked against the matrix it must build
instead.  A last test checks the contract at the integration level: whole
``online`` and ``offline`` runs with every oracle patched in reproduce the
final S* and the completions of the unpatched runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import LP_ORACLES, assert_bit_equal, patch_in_oracles
from repro.lp import kernels
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _case_merge_close_milestones(rng):
    n = int(rng.integers(1, 40))
    values = np.sort(rng.uniform(0.0, 50.0, size=n))
    # Inject near-duplicate clusters so the merge path actually fires.
    if n > 3 and rng.random() < 0.7:
        dup = values[rng.integers(0, n, size=max(1, n // 4))]
        jitter = dup * (1.0 + rng.uniform(-1e-13, 1e-13, size=dup.size))
        values = np.sort(np.concatenate([values, dup, jitter]))
    tol = float(rng.choice([1e-12, 1e-9, 1e-6]))
    return (values, tol)


def _case_order_affine_boundaries(rng):
    n = int(rng.integers(0, 30))
    consts = rng.uniform(0.0, 20.0, size=n)
    coefs = rng.uniform(0.0, 5.0, size=n)
    if n > 2:
        # Exact duplicate pairs and probe-value ties exercise the dedup and
        # the tie-breaking components of the sort key.
        take = rng.integers(0, n, size=n // 2)
        consts = np.concatenate([consts, consts[take]])
        coefs = np.concatenate([coefs, coefs[take]])
    probe = float(rng.uniform(0.5, 10.0))
    return (consts, coefs, probe)


def _case_active_jobs_delta(rng):
    n = int(rng.integers(1, 50))
    releases = np.sort(rng.uniform(0.0, 30.0, size=n))
    factors = rng.uniform(0.1, 4.0, size=n)
    rem = rng.uniform(0.0, 10.0, size=n)
    rem[rng.random(size=n) < 0.4] = 0.0  # completed jobs drop out
    now = float(rng.uniform(0.0, 30.0))
    has_now = bool(rng.random() < 0.8)
    return (releases, factors, rem, now if has_now else None)


def _case_scatter_capacity_sys1(rng):
    n_rows = int(rng.integers(1, 12))
    n_entries = int(rng.integers(0, 60))
    entry_rows = rng.integers(0, n_rows, size=n_entries).astype(np.int64)
    entry_cols = rng.integers(0, 80, size=n_entries).astype(np.int64)
    len_const = rng.uniform(0.0, 5.0, size=n_rows)
    len_coef = rng.uniform(0.0, 2.0, size=n_rows)
    len_coef[rng.random(size=n_rows) < 0.3] = 0.0  # fixed-length intervals
    speeds = rng.uniform(0.5, 8.0, size=n_rows)
    offset = int(rng.integers(0, 10))
    f_var = int(rng.integers(100, 200))
    return (entry_rows, entry_cols, len_const, len_coef, speeds, offset, f_var)


_CASE_BUILDERS = {
    "merge_close_milestones": _case_merge_close_milestones,
    "order_affine_boundaries": _case_order_affine_boundaries,
    "active_jobs_delta": _case_active_jobs_delta,
    "scatter_capacity_sys1": _case_scatter_capacity_sys1,
}


def test_every_kernel_has_an_oracle_or_a_property():
    # A new kernel cannot land without its equality (or property) coverage.
    public = set(kernels.__all__) - {"active_tier"}
    assert set(_CASE_BUILDERS) == public
    assert set(LP_ORACLES) == public - {"scatter_capacity_sys1"}


@pytest.mark.parametrize("name", sorted(LP_ORACLES))
@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_kernel_bit_equal_to_oracle(name, seed):
    args = _CASE_BUILDERS[name](_rng(seed))
    assert_bit_equal(getattr(kernels, name)(*args), LP_ORACLES[name](*args))


def test_near_duplicate_cases_reach_the_sequential_merge():
    # The vectorized branch returns the input untouched, so an output
    # shorter than its input can only have come out of the sequential
    # fallback loop.  The builder must reach both branches, often.
    merged = untouched = 0
    for seed in range(200):
        values, tol = _case_merge_close_milestones(_rng(seed))
        out = kernels.merge_close_milestones(values, tol)
        if len(out) < values.size:
            merged += 1
        else:
            assert out == values.tolist()
            untouched += 1
    assert merged >= 50 and untouched >= 20, (merged, untouched)


def test_merge_compares_against_the_last_kept_value():
    # A drifting cluster: each value is within tol of its predecessor, but
    # the third is not within tol of the last *kept* one (the first).  An
    # adjacent-difference filter would drop it; the sequential loop keeps it.
    values = np.array([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, 5.0])
    assert kernels.merge_close_milestones(values, 1e-9) == [1.0, 1.0 + 1.2e-9, 5.0]


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_scatter_capacity_sys1_builds_the_capacity_block(seed):
    args = _case_scatter_capacity_sys1(_rng(seed))
    entry_rows, entry_cols, len_const, len_coef, speeds, offset, f_var = args
    rows, cols, vals, rhs = kernels.scatter_capacity_sys1(*args)

    assert rows.shape == cols.shape == vals.shape
    assert rows.dtype == cols.dtype == np.int64 and vals.dtype == np.float64
    shape = (speeds.size, f_var + 1)
    dense = np.zeros(shape)
    np.add.at(dense, (rows, cols), vals)

    expected = np.zeros(shape)
    np.add.at(expected, (entry_rows, entry_cols + offset), 1.0)
    expected[:, f_var] = -speeds * len_coef
    assert np.array_equal(dense, expected)
    # Structural zeros of the F column are not stored.
    assert vals.size == entry_cols.size + np.count_nonzero(speeds * len_coef)
    assert np.array_equal(rhs, speeds * len_const)


def test_whole_run_bit_identical_with_oracles_patched_in(monkeypatch):
    platform_spec = PlatformSpec(
        n_clusters=2, processors_per_cluster=4, n_databanks=2, availability=0.6
    )
    workload_spec = WorkloadSpec(density=2.0, window=25.0, max_jobs=12)
    instance = generate_instance(platform_spec, workload_spec, rng=21)

    def run():
        # ``online`` replans through the job-table delta and the boundary
        # ordering; only ``offline``'s whole-run search enumerates milestones
        # on an instance this small.
        online, offline = make_scheduler("online"), make_scheduler("offline")
        return (
            simulate(instance, online).completions,
            online.last_objective,
            simulate(instance, offline).completions,
            offline.optimal_max_stretch,
        )

    candidate = run()
    calls = patch_in_oracles(monkeypatch, kernels, LP_ORACLES)
    reference = run()
    assert all(calls.values()), calls
    assert candidate == reference
