"""The benchmark's vocabulary: workload, step and metric names with their units.

``BENCHMARK.json`` at the repo root lists the same names (``test_harness.py``
checks the two agree); the bounds live only there.
"""

from __future__ import annotations

WORKLOADS: tuple[str, ...] = (
    "online_dense",
    "heuristics_wide",
    "campaign_mixed",
    "daemon_openloop",
)

#: Daemon steps: name -> (submissions per second, keep-alive connection?).
DAEMON_STEPS: dict[str, tuple[float, bool]] = {
    "r20": (20.0, False),
    "r40": (40.0, False),
    "r80": (80.0, False),
    "ka20": (20.0, True),
}

#: Schedulers of the campaign design (the paper's Table 1 set minus Bender98).
TABLE_SCHEDULERS: tuple[str, ...] = (
    "offline", "online", "online-edf", "online-egdf",
    "swrpt", "srpt", "spt", "bender02", "mct-div", "mct",
)

LOWER, HIGHER = "lower", "higher"

#: End-to-end metrics: name -> (unit, better).  Every workload reports every
#: one of them; what each measures per workload is tabulated in README.md.
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", LOWER),
    "op_p50_ms": ("ms", LOWER),
    "op_tail_ms": ("ms", LOWER),
    "peak_rss_mb": ("MB", LOWER),
    "setup_s": ("s", LOWER),
}

#: Workload-specific end-to-end numbers the shared vocabulary cannot carry:
#: name -> (unit, better, bound).  ``BENCHMARK.json`` can only list metrics
#: that every workload reports, so their bounds live here; ``compare`` gives
#: each a verdict the same way.  Bound 0: any worsening is a regression.
EXTRAS: dict[str, tuple[str, str, float]] = {
    "records_per_s": ("1/s", HIGHER, 0.25),
    "submit_p50_ms.r40": ("ms", LOWER, 0.15),
    "submit_p95_ms.r40": ("ms", LOWER, 0.25),
    "submit_p50_ms.ka20": ("ms", LOWER, 0.15),
    "burst_settle_s.r80": ("s", LOWER, 0.25),
    "max_rate_ok": ("1/s", HIGHER, 0.0),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    table: dict[str, tuple[str, str]] = {
        # simulation/engine.py
        "engine.self_s": ("s", LOWER),
        "engine.decisions": ("count", LOWER),
        "engine.decisions_per_s": ("1/s", HIGHER),
        # schedulers/base.py, online_lp.py
        "scheduler.callback_s": ("s", LOWER),
        "scheduler.replan_s": ("s", LOWER),
        "scheduler.replans": ("count", LOWER),
        "scheduler.assign_s": ("s", LOWER),
        # lp/incremental.py, lp/aggregation.py
        "replan_ctx.build_problem_s": ("s", LOWER),
        "replan_ctx.solve_max_stretch_s": ("s", LOWER),
        "replan_ctx.reoptimize_s": ("s", LOWER),
        "replan_ctx.publish_s": ("s", LOWER),
        "replan_ctx.other_s": ("s", LOWER),
        "aggregation.materialize_s": ("s", LOWER),
        # lp/maxstretch.py
        "search.s": ("s", LOWER),
        "search.assembly_s": ("s", LOWER),
        "search.probes_solved": ("count", LOWER),
        "search.probes_skipped": ("count", HIGHER),
        "search.solved_per_replan": ("count", LOWER),
        # lp/backends
        "backend.solve_s": ("s", LOWER),
        "backend.solves": ("count", LOWER),
        "backend.solve_ms_mean": ("ms", LOWER),
        "backend.basis_reused": ("count", HIGHER),
        "backend.warm_ratio": ("share", HIGHER),
        # lp/bank.py
        "bank.hits": ("count", HIGHER),
        "bank.misses": ("count", LOWER),
        "bank.hit_ratio": ("share", HIGHER),
        "bank.primal_reuses": ("count", HIGHER),
        # experiments/runner.py, io.py
        "runner.records_per_s": ("1/s", HIGHER),
        "runner.compute_s": ("s", LOWER),
        "runner.dispatch_s": ("s", LOWER),
        "runner.serialize_s": ("s", LOWER),
        "runner.journal_s": ("s", LOWER),
        "runner.overhead_frac": ("share", LOWER),
        "runner.failed_records": ("count", LOWER),
    }
    for key in TABLE_SCHEDULERS:
        table[f"runner.compute_s.{key}"] = ("s", LOWER)
    # experiments/merge.py
    table["merge.merge_s"] = ("s", LOWER)
    table["merge.report_s"] = ("s", LOWER)
    # service/
    for step in DAEMON_STEPS:
        table[f"http.submit_p50_ms.{step}"] = ("ms", LOWER)
        table[f"http.submit_p95_ms.{step}"] = ("ms", LOWER)
        table[f"http.generator_late_p99_ms.{step}"] = ("ms", LOWER)
        table[f"daemon.replan_p50_ms.{step}"] = ("ms", LOWER)
        table[f"daemon.replan_p99_ms.{step}"] = ("ms", LOWER)
        table[f"daemon.engine_lag_s.{step}"] = ("s", LOWER)
        table[f"daemon.pending_max.{step}"] = ("count", LOWER)
        table[f"daemon.drain_s.{step}"] = ("s", LOWER)
        table[f"daemon.accepted.{step}"] = ("count", HIGHER)
    table["daemon.max_rate_ok"] = ("1/s", HIGHER)
    table["daemon.submit_call_ms_p50"] = ("ms", LOWER)
    table["http.overhead_ms_p50"] = ("ms", LOWER)
    table["ingest.parse_ms_p50"] = ("ms", LOWER)
    table["trace.append_ms_p50"] = ("ms", LOWER)
    table["daemon.telemetry_ms_p50"] = ("ms", LOWER)
    return table


#: Per-layer metrics (traced pass): name -> (unit, better).  A layer a
#: workload never enters reads 0 there.
PER_LAYER: dict[str, tuple[str, str]] = _per_layer()


def metric_payload(values: dict[str, float], table: dict[str, tuple[str, str]]) -> dict:
    """The contract's ``metrics`` object: every name of ``table``, value + unit."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in table.items()
    }
