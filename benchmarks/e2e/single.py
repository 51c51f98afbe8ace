"""One run of one workload: what ``BENCHMARK.json``'s command executes.

``<command> --workload W --seed N --seconds S --trace 0|1`` prepares the
inputs from the seed (timed: that is set-up), runs the workload once, checks
its outputs and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it (prefixed ``DETAIL``) carries what ``run`` aggregates: digests,
sample counts, the workload-specific extras.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Callable

from benchmarks.e2e import campaign_workload, daemon_workload, sim_workloads
from benchmarks.e2e.common import OUT_DIR, Outcome, Sizing
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, WORKLOADS, metric_payload
from benchmarks.e2e.tracer import Tracer

DETAIL_PREFIX = "DETAIL "

PREPARE: dict[str, Callable[[int, Sizing], Any]] = {
    "online_dense": sim_workloads.prepare_online_dense,
    "heuristics_wide": sim_workloads.prepare_heuristics_wide,
    "campaign_mixed": campaign_workload.prepare,
    "daemon_openloop": daemon_workload.prepare,
}

EXECUTE: dict[str, Callable[[Any, "Tracer | None"], Outcome]] = {
    "online_dense": sim_workloads.execute,
    "heuristics_wide": sim_workloads.execute,
    "campaign_mixed": campaign_workload.execute,
    "daemon_openloop": daemon_workload.execute,
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench.py", description="Run one benchmark workload once."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; not comparable")
    return parser.parse_args(argv)


def main(argv: list[str], process_started: float) -> int:
    """``process_started``: ``time.perf_counter()`` taken before any import of repro."""
    args = parse_args(argv)
    sizing = Sizing(args.seconds, smoke=args.smoke)
    inputs = PREPARE[args.workload](args.seed, sizing)
    setup_s = time.perf_counter() - process_started

    tracer = Tracer() if args.trace else None
    outcome = EXECUTE[args.workload](inputs, tracer)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    outcome.end_to_end["setup_s"] = setup_s

    _print_report(args, outcome)
    values, table = (
        (outcome.per_layer, PER_LAYER) if args.trace else (outcome.end_to_end, END_TO_END)
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metric_payload(values, table),
            }
        )
    )
    # The verdict travels in ``correct``; a printed result is a finished run.
    return 0


def _print_report(args: argparse.Namespace, outcome: Outcome) -> None:
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}{'  SMOKE' if args.smoke else ''}"
    )
    for title, values, table in (
        ("end to end", outcome.end_to_end, END_TO_END),
        ("per layer", outcome.per_layer, PER_LAYER),
    ):
        if not values:
            continue
        print(f"  {title}:")
        entered = {name: unit for name, (unit, _) in table.items() if values.get(name)}
        for name, unit in entered.items():
            print(f"    {name:36s} {values[name]:14.6g} {unit}")
        if len(entered) < len(table):
            print(f"    ({len(table) - len(entered)} more read 0 on this workload)")
    if outcome.extras:
        print("  workload-specific:")
        for name, value in outcome.extras.items():
            print(f"    {name:36s} {value:14.6g}")
    print(
        f"  operations: {outcome.attempted} attempted, {outcome.failed} failed; "
        f"outputs {'correct' if outcome.correct else 'WRONG'}"
    )
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        DETAIL_PREFIX
        + json.dumps(
            {
                "end_to_end": outcome.end_to_end,
                "per_layer": outcome.per_layer,
                "extras": outcome.extras,
                "digests": outcome.digests,
                "detail": outcome.detail,
                "problems": outcome.problems,
            }
        )
    )
