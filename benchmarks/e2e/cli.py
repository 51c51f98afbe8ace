"""``python -m benchmarks.e2e run | compare``: the benchmark's one command.

``run`` executes every workload in fresh subprocesses of the single-run
entry point (``bench.py``): ``--repeats`` untraced passes give the
end-to-end numbers, one traced pass gives the per-layer numbers, and the
difference between the two is reported as tracing overhead.  ``compare``
gives each (metric, workload) pair of two result files a verdict against
the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e import stats
from benchmarks.e2e.common import OUT_DIR
from benchmarks.e2e.metrics import END_TO_END, EXTRAS, HIGHER, PER_LAYER, WORKLOADS
from benchmarks.e2e.single import DETAIL_PREFIX

ROOT = Path(__file__).resolve().parents[2]
BENCH_SCRIPT = Path(__file__).resolve().parent / "bench.py"
SCHEMA = 1
#: Set-up differences below this are ignored by ``compare`` (interpreter
#: start-up jitter on a sub-second quantity).
SETUP_IGNORE_S = 0.05

VERDICTS = ("better", "within", "worse", "unresolved")


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment -------------------------------------------------------------------
def environment() -> dict[str, Any]:
    """What the numbers were measured on (stamped into every result file)."""
    import numpy
    import scipy

    from repro.lp import kernels
    from repro.lp.backends import highs_source, resolve_backend_name

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    resolved = resolve_backend_name("auto")
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend.resolved": resolved,
        "backend.highs_source": highs_source() if resolved == "highs" else None,
        "highspy_installed": importlib.util.find_spec("highspy") is not None,
        "kernel_tier": kernels.active_tier(),
        "switch_interval_s": sys.getswitchinterval(),
    }


# -- run ---------------------------------------------------------------------------
def _single(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One fresh-subprocess run; the contract line and the DETAIL line, merged."""
    command = [
        sys.executable, str(BENCH_SCRIPT), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}"
        )
    run = json.loads(lines[-1])
    run.update(json.loads(lines[-2][len(DETAIL_PREFIX):]))
    return run


def summarize(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = stats.quartiles(values)
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def aggregate(untraced: list[dict], traced: "dict | None") -> dict[str, Any]:
    """One workload's result entry from its untraced passes and its traced pass."""
    end_to_end = {
        name: {
            "unit": unit,
            "better": better,
            **summarize([run["end_to_end"][name] for run in untraced]),
        }
        for name, (unit, better) in END_TO_END.items()
    }
    attempted = sum(run["attempted"] for run in untraced)
    failed = sum(run["failed"] for run in untraced)
    out: dict[str, Any] = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "extras": {
            name: {
                "unit": EXTRAS[name][0],
                "better": EXTRAS[name][1],
                **summarize([run["extras"][name] for run in untraced]),
            }
            for name in untraced[0]["extras"]
        },
        "digests": untraced[0]["digests"],
        "digests_stable": all(run["digests"] == untraced[0]["digests"] for run in untraced),
        "correct": all(run["correct"] for run in untraced),
        "problems": sorted({p for run in untraced for p in run["problems"]}),
        "detail": untraced[0]["detail"],
    }
    if traced is not None:
        out["per_layer"] = {
            name: {"value": traced["per_layer"].get(name, 0.0), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
        out["trace_overhead_frac"] = (
            traced["end_to_end"]["wall_s"] / end_to_end["wall_s"]["median"] - 1.0
        )
        out["correct"] = out["correct"] and traced["correct"]
        out["problems"] = sorted(set(out["problems"]) | set(traced["problems"]))
        out["digests_stable"] = (
            out["digests_stable"] and traced["digests"] == out["digests"]
        )
    return out


def print_workload(name: str, result: dict[str, Any]) -> None:
    print(f"\n== {name} ==")
    for metric, entry in {**result["end_to_end"], **result["extras"]}.items():
        print(
            f"  {metric:36s} {entry['median']:12.6g} {entry['unit']:6s} "
            f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={len(entry['values'])}]"
        )
    print(f"  {'ops_failed_frac':36s} {result['ops_failed_frac']:12.6g} share  "
          f"({result['failed']} of {result['attempted']})")
    if "trace_overhead_frac" in result:
        print(f"  {'trace_overhead_frac':36s} {result['trace_overhead_frac']:12.6g} share")
    op = result["detail"].get("op")
    if op:
        print(f"  op = {op['what']}: n={op['n']}, tail at p{op['tail_percentile']:g}")
    for step, info in result["detail"].get("steps", {}).items():
        print(
            f"  step {step}: sent {info['sent']}, succeeded {info['succeeded']}, "
            f"failed {info['failed']}, generator late p99 "
            f"{info['generator_late_p99_ms']:.2f} ms, submit p95 "
            f"{info['submit_p95_ms']:.2f} ms, engine ends {info['engine_lag_share']:.0%} "
            f"of the step behind: {'meets' if info['meets_limits'] else 'misses'} the limits"
        )
    for metric, entry in result.get("per_layer", {}).items():
        if entry["value"]:
            print(f"    {metric:34s} {entry['value']:12.6g} {entry['unit']}")
    print(
        f"  outputs {'correct' if result['correct'] else 'WRONG'}; digests "
        f"{'identical across passes' if result['digests_stable'] else 'DIFFER across passes'}"
    )
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def command_run(args: argparse.Namespace) -> int:
    seconds = float(load_contract()["run_seconds"])
    repeats = 1 if args.smoke else args.repeats
    result: dict[str, Any] = {
        "schema": SCHEMA,
        "comparable": not args.smoke,
        "environment": environment(),
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    # Passes of one workload are spread over the whole run (workloads
    # round-robin within each repeat), so a slow spell of the host lands on
    # one pass of each workload instead of on every pass of one.
    untraced: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for _ in range(repeats):
        for workload in WORKLOADS:
            untraced[workload].append(_single(workload, args.seed, seconds, 0, args.smoke))
    for workload in WORKLOADS:
        traced = None if args.smoke else _single(workload, args.seed, seconds, 1, False)
        result["workloads"][workload] = aggregate(untraced[workload], traced)
        print_workload(workload, result["workloads"][workload])
    out = Path(args.out) if args.out else OUT_DIR / time.strftime("result-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"\nresult written to {out}")
    ok = all(w["correct"] and w["digests_stable"] for w in result["workloads"].values())
    return 0 if ok else 1


# -- compare -----------------------------------------------------------------------
def verdict(
    base: list[float], new: list[float], better: str, bound: float, ignore_below: float = 0.0
) -> tuple[str, float]:
    """Verdict on ``new`` against ``base`` and the relative worsening of its median.

    ``unresolved`` when the run-to-run spread of either side exceeds the
    bound, unless the two sets of runs do not overlap at all; otherwise
    ``worse`` when the median worsened by more than ``bound``, ``better``
    when it improved by more than the base's own spread, else ``within``.
    A bound of 0 (``max_rate_ok``, a step function) judges the medians alone.
    """
    sign = -1.0 if better == HIGHER else 1.0
    base_median, new_median = stats.quartiles(base)[1], stats.quartiles(new)[1]
    # A base of 0 (max_rate_ok when even r20 misses) leaves the change absolute.
    worsening = sign * (new_median - base_median) / (abs(base_median) or 1.0)
    if abs(new_median - base_median) < ignore_below:
        return "within", worsening
    if bound and max(stats.spread(base), stats.spread(new)) > bound:
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "better", worsening
        if min(sign * v for v in new) > max(sign * v for v in base) and worsening > bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -stats.spread(base):
        return "better", worsening
    return "within", worsening


def compare_results(
    base: dict[str, Any], new: dict[str, Any], contract: dict[str, Any]
) -> list[dict[str, Any]]:
    """One row per (metric, workload): the contract's metrics, the workload's
    extras (bounds from ``metrics.EXTRAS``) and ``ops_failed_frac``."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
    rows = []
    for workload in WORKLOADS:
        a, b = base["workloads"][workload], new["workloads"][workload]
        gated = [("end_to_end", metric, *bounds[metric]) for metric in bounds] + [
            ("extras", metric, EXTRAS[metric][2], EXTRAS[metric][1])
            for metric in a["extras"]
            if metric in b["extras"]
        ]
        for kind, metric, bound, better in gated:
            label, worsening = verdict(
                a[kind][metric]["values"],
                b[kind][metric]["values"],
                better,
                bound,
                ignore_below=SETUP_IGNORE_S if metric == "setup_s" else 0.0,
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "base": a[kind][metric]["median"],
                    "new": b[kind][metric]["median"],
                    "worsening": worsening,
                    "bound": bound,
                    "verdict": label,
                }
            )
        # Any increase in the failed share is a regression.
        rows.append(
            {
                "workload": workload,
                "metric": "ops_failed_frac",
                "base": a["ops_failed_frac"],
                "new": b["ops_failed_frac"],
                "worsening": b["ops_failed_frac"] - a["ops_failed_frac"],
                "bound": 0.0,
                "verdict": "worse" if b["ops_failed_frac"] > a["ops_failed_frac"] else "within",
            }
        )
    return rows


def command_compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    for result, path in ((base, args.base), (new, args.new)):
        if result.get("schema") != SCHEMA:
            print(f"{path}: not a schema-{SCHEMA} result file", file=sys.stderr)
            return 2
    resolved = [r["environment"]["backend.resolved"] for r in (base, new)]
    if resolved[0] != resolved[1]:
        print(
            f"refusing to compare: 'auto' resolved to {resolved[0]!r} in {args.base} "
            f"and to {resolved[1]!r} in {args.new}; the LP workloads ran different solvers",
            file=sys.stderr,
        )
        return 2
    if base["seconds"] != new["seconds"]:
        print(
            f"refusing to compare: passes of {base['seconds']:g} s in {args.base} and of "
            f"{new['seconds']:g} s in {args.new} did different amounts of work",
            file=sys.stderr,
        )
        return 2
    if not (base.get("comparable") and new.get("comparable")):
        print("warning: a smoke result is not comparable; verdicts are indicative only")
    rows = compare_results(base, new, load_contract())
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'worsening':>10s} {'bound':>6s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:18s} {row['metric']:20s} {row['base']:12.6g} "
            f"{row['new']:12.6g} {row['worsening']:+10.1%} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    # Equal seeds give equal inputs, so the outputs must be the same too.
    digests_differ = base["seed"] == new["seed"] and any(
        base["workloads"][w]["digests"] != new["workloads"][w]["digests"] for w in WORKLOADS
    )
    if base["seed"] != new["seed"]:
        print("output digests: not compared (different seeds)")
    else:
        print(f"output digests: {'DIFFERENT' if digests_differ else 'identical'}")
    counts = {v: sum(1 for row in rows if row["verdict"] == v) for v in VERDICTS}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] or digests_differ else 0


# -- entry -------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads and write a result JSON")
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument("--repeats", type=int, default=3, help="untraced passes per workload")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes, one untraced pass, every output check; not comparable")
    run.add_argument("--out", default=None, help="result file (default: _out/result-<time>.json)")
    run.set_defaults(handler=command_run)

    compare = commands.add_parser("compare", help="verdict per (metric, workload)")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=command_compare)

    args = parser.parse_args(argv)
    return args.handler(args)
