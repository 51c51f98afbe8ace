"""System (1) probes split their columns into shares only when read.

A replan installs System (2)'s allocation, so a probe's
:class:`~repro.lp.maxstretch.MaxStretchSolution` keeps the probe's
columns and skeleton and calls ``_extract_allocations`` on the first read
of ``shares``.  What it then builds must equal the eager extraction made
when the probe was solved; nothing in a replan may read it; the laziness
must survive ``dataclasses.replace``; and the bank keeps built shares,
not the columns and skeleton they come from.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.lp.maxstretch as maxstretch
import repro.lp.relaxation as relaxation
from repro.api import simulate
from repro.lp.bank import SolverStateBank
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import Shares
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

from helpers import assert_same_shares


def _instance(seed: int):
    return generate_instance(
        PlatformSpec(n_clusters=3, processors_per_cluster=4, n_databanks=3),
        WorkloadSpec(density=2.0, window=30.0, max_jobs=24),
        rng=seed,
    )


def record_probes(monkeypatch) -> list:
    """Every feasible System (1) probe, with the eager extraction made when solved."""
    probes = []
    solve = maxstretch.solve_on_objective_range

    def spy(problem, *args, **kwargs):
        solution = solve(problem, *args, **kwargs)
        if solution is not None and not isinstance(solution.allocation, Shares):
            skeleton, values = solution.allocation
            eager = maxstretch._extract_allocations(problem, skeleton, 1, values.copy())
            probes.append((solution, eager))
        return solution

    monkeypatch.setattr(maxstretch, "solve_on_objective_range", spy)
    return probes


@pytest.mark.parametrize("seed", [3, 11])
def test_lazy_probe_shares_equal_the_eager_extraction(monkeypatch, seed):
    probes = record_probes(monkeypatch)
    scheduler = OnlineLPScheduler("online")
    simulate(_instance(seed), scheduler)
    assert len(probes) >= scheduler.n_resolutions > 0
    # Nothing read a probe's shares during the run.
    assert not any(isinstance(solution.allocation, Shares) for solution, _ in probes)
    for solution, eager in probes:
        lazy = solution.shares
        assert solution.allocation is lazy  # built once, then kept
        assert all(not column.flags.writeable for column in lazy)
        assert_same_shares(solution, replace(solution, shares=eager))


def test_a_replan_extracts_once_for_system_2(monkeypatch):
    calls = []
    extract = maxstretch._extract_allocations

    def counting(problem, skeleton, offset, values):
        calls.append(offset)
        return extract(problem, skeleton, offset, values)

    # The lazy property looks the name up in maxstretch, System (2) in relaxation.
    monkeypatch.setattr(maxstretch, "_extract_allocations", counting)
    monkeypatch.setattr(relaxation, "_extract_allocations", counting)
    scheduler = OnlineLPScheduler("online")
    result = simulate(_instance(7), scheduler)
    replans = len(result.lp_probes.replan_latencies)
    assert replans == scheduler.n_resolutions > 10
    # One extraction per replan, each of System (2)'s columns (no F column).
    assert calls == [0] * replans


def test_rebinding_carries_the_probe_columns_unread(monkeypatch):
    probes = record_probes(monkeypatch)
    context = ReplanContext(_instance(3))
    remaining = {job.job_id: job.size for job in context.instance.jobs}
    best = context.solve_max_stretch(context.build_problem(0.0, remaining))
    solution, eager = probes[-1]
    assert solution is best
    rebound = ReplanContext._rebind(best, context.build_problem(0.0, remaining))
    assert rebound is not best and rebound.allocation is best.allocation
    assert_same_shares(rebound, replace(best, shares=eager))  # reads the copy's only
    assert not isinstance(best.allocation, Shares)
    context.close()


def test_the_bank_keeps_built_shares(monkeypatch):
    probes = record_probes(monkeypatch)
    bank = SolverStateBank()
    simulate(_instance(3), OnlineLPScheduler("online", state_bank=bank))
    bucket = bank._bucket
    assert bucket.sys1
    for banked in bucket.sys1.values():
        assert isinstance(banked.allocation, Shares)
    by_id = {id(solution): eager for solution, eager in probes}
    for banked in bucket.sys1.values():
        assert_same_shares(banked, replace(banked, shares=by_id[id(banked)]))
