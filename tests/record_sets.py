"""Two-tier comparison of two campaign record sets (bank on vs off, ...).

The two legs of a comparison may return *different optimal vertices* when
System (2) is degenerate (e.g. a banked optimum vs a warm HiGHS basis that
lands elsewhere), and a different optimal allocation materializes into a
different discrete schedule, which on small instances shifts the secondary
metrics of an individual run by 10 % or more.  The equivalence claim is
therefore two-tiered, matching what the campaign actually reports:

* **Objective tier, per record** (``OBJECTIVE_METRICS``: ``max_stretch``):
  the quantity the milestone search optimizes is tie-free, so every single
  run must agree within ``objective_tolerance`` (solver tolerance, 1e-6).
* **Tie tier, per scheduler aggregate** (``TIE_METRICS``: ``sum_stretch``,
  ``sum_flow``, ``max_flow``, ``makespan``): individual runs legitimately
  wobble with the tie-breaking, but the per-scheduler campaign *means* --
  the numbers Tables 1-16 are built from -- must agree within
  ``tie_tolerance`` (default 10 %, sized for mini-campaign sample counts).

Used by the bank on/off gates of ``tests/test_state_bank.py`` and
``benchmarks/bench_campaign.py::bench_state_bank_reuse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentResults
from repro.utils.textable import TextTable

__all__ = [
    "OBJECTIVE_METRICS",
    "TIE_METRICS",
    "BackendABReport",
    "compare_record_sets",
]

#: Tie-free optimized metrics: every record must agree within solver tolerance.
OBJECTIVE_METRICS: tuple[str, ...] = ("max_stretch",)

#: Metrics perturbed by degenerate-vertex tie-breaking in System (2):
#: compared on per-scheduler campaign means.
TIE_METRICS: tuple[str, ...] = ("sum_stretch", "sum_flow", "max_flow", "makespan")


@dataclass
class BackendABReport:
    """Outcome of one two-tier campaign comparison (legs ``a`` and ``b``).

    ``equivalent`` is the gate: failed flags agree on every triple, every
    record agrees on the objective-tier metrics within
    ``objective_tolerance``, and every per-scheduler mean of the tie-tier
    metrics agrees within ``tie_tolerance``.
    """

    backend_a: str
    backend_b: str
    objective_tolerance: float
    tie_tolerance: float
    n_records: int = 0
    n_identical: int = 0
    n_failed_mismatch: int = 0
    #: Worst per-record relative difference per metric (informational for
    #: the tie tier, enforced for the objective tier).
    max_rel_diff: dict[str, float] = field(default_factory=dict)
    #: (triple, metric, a, b) records violating the objective tolerance --
    #: or carrying a NaN metric on a non-failed record, whatever the tier.
    objective_mismatches: list[tuple[tuple[str, int, str], str, float, float]] = field(
        default_factory=list
    )
    #: (scheduler, metric) -> (mean_a, mean_b, rel diff) over non-failed runs.
    aggregate_diffs: dict[tuple[str, str], tuple[float, float, float]] = field(
        default_factory=dict
    )
    #: (scheduler, metric, mean_a, mean_b) aggregates violating the tolerance.
    aggregate_mismatches: list[tuple[str, str, float, float]] = field(
        default_factory=list
    )

    @property
    def equivalent(self) -> bool:
        return (
            self.n_failed_mismatch == 0
            and not self.objective_mismatches
            and not self.aggregate_mismatches
        )

    def worst_aggregate_diff(self, metric: str) -> tuple[str, float]:
        """(scheduler, rel diff) of the worst per-scheduler mean for ``metric``."""
        worst_scheduler, worst = "", 0.0
        for (scheduler, m), (_, _, diff) in self.aggregate_diffs.items():
            if m == metric and diff >= worst:
                worst_scheduler, worst = scheduler, diff
        return worst_scheduler, worst

    def render(self) -> str:
        """Human-readable summary (printed when a gate fails)."""
        per_record = TextTable(
            headers=["Objective metric (per record)", "max rel. diff", "tolerance", "ok"]
        )
        for metric in OBJECTIVE_METRICS:
            diff = self.max_rel_diff.get(metric, 0.0)
            # Scientific notation: these margins live around 1e-7 and would
            # all render as 0.0000 under the default fixed-point format.
            per_record.add_row(
                [metric, f"{diff:.3e}", f"{self.objective_tolerance:.3e}",
                 "yes" if diff <= self.objective_tolerance else "NO"]
            )
        aggregate = TextTable(
            headers=["Tie-broken metric (scheduler means)", "worst scheduler",
                     "max rel. diff", "tolerance", "ok"]
        )
        for metric in TIE_METRICS:
            scheduler, diff = self.worst_aggregate_diff(metric)
            aggregate.add_row(
                [metric, scheduler or "-", diff, self.tie_tolerance,
                 "yes" if diff <= self.tie_tolerance else "NO"]
            )
        lines = [
            f"Backend A/B: {self.backend_a} vs {self.backend_b} "
            f"({self.n_records} records)",
            per_record.render(),
            aggregate.render(),
            f"bitwise-identical records: {self.n_identical}/{self.n_records}",
        ]
        if self.objective_mismatches:
            triple, metric, a, b = self.objective_mismatches[0]
            lines.append(
                f"per-record mismatches: {len(self.objective_mismatches)} "
                f"(e.g. {triple} {metric}: {a!r} vs {b!r})"
            )
        if self.aggregate_mismatches:
            scheduler, metric, a, b = self.aggregate_mismatches[0]
            lines.append(
                f"aggregate mismatches: {len(self.aggregate_mismatches)} "
                f"(e.g. {scheduler} mean {metric}: {a:.4f} vs {b:.4f})"
            )
        if self.n_failed_mismatch:
            lines.append(f"failed-flag mismatches: {self.n_failed_mismatch}")
        lines.append(
            "VERDICT: equivalent" if self.equivalent else "VERDICT: NOT equivalent"
        )
        return "\n".join(lines)


def _rel_diff(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|) (NaN pairs compare equal)."""
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) / max(1.0, abs(a), abs(b))


def compare_record_sets(
    results_a: ExperimentResults,
    results_b: ExperimentResults,
    *,
    backend_a: str,
    backend_b: str,
    objective_tolerance: float = 1e-6,
    tie_tolerance: float = 0.10,
) -> BackendABReport:
    """Triple-by-triple (and per-scheduler aggregate) comparison of two runs."""
    report = BackendABReport(
        backend_a=backend_a,
        backend_b=backend_b,
        objective_tolerance=objective_tolerance,
        tie_tolerance=tie_tolerance,
    )
    rows_a = results_a.result_set()
    rows_b = results_b.result_set()
    if len(rows_a) != len(rows_b):
        raise ValueError(
            f"record sets differ in size ({len(rows_a)} vs {len(rows_b)}); "
            "the A/B runs must share the exact same campaign design"
        )
    sums: dict[tuple[str, str], tuple[float, float, int]] = {}
    for a, b in zip(rows_a, rows_b):
        triple = (a["config"], a["replicate"], a["scheduler"])
        if triple != (b["config"], b["replicate"], b["scheduler"]):
            raise ValueError(f"record sets disagree on the design at {triple}")
        report.n_records += 1
        # result_set() rows carry None for NaN metrics, so identically
        # failed records compare equal like any others.
        if a == b:
            report.n_identical += 1
        if bool(a["failed"]) != bool(b["failed"]):
            report.n_failed_mismatch += 1
            continue
        if a["failed"]:
            continue
        for metric in OBJECTIVE_METRICS + TIE_METRICS:
            # result_dict() maps NaN to None; surface both as NaN here.
            value_a = math.nan if a[metric] is None else float(a[metric])
            value_b = math.nan if b[metric] is None else float(b[metric])
            if not (math.isfinite(value_a) and math.isfinite(value_b)):
                # A NaN or infinite metric on a non-failed record is
                # incomparable (every comparison below would silently
                # pass): always a per-record mismatch, whatever the tier --
                # and surfaced as an infinite diff so render()'s tables
                # agree with the verdict.
                report.max_rel_diff[metric] = math.inf
                report.objective_mismatches.append(
                    (triple, metric, value_a, value_b)
                )
                continue
            diff = _rel_diff(value_a, value_b)
            if diff > report.max_rel_diff.get(metric, 0.0):
                report.max_rel_diff[metric] = diff
            if metric in OBJECTIVE_METRICS:
                if diff > objective_tolerance:
                    report.objective_mismatches.append(
                        (triple, metric, value_a, value_b)
                    )
            else:
                key = (str(a["scheduler"]), metric)
                sum_a, sum_b, count = sums.get(key, (0.0, 0.0, 0))
                sums[key] = (sum_a + value_a, sum_b + value_b, count + 1)
    for (scheduler, metric), (sum_a, sum_b, count) in sums.items():
        mean_a, mean_b = sum_a / count, sum_b / count
        diff = _rel_diff(mean_a, mean_b)
        report.aggregate_diffs[(scheduler, metric)] = (mean_a, mean_b, diff)
        if diff > tie_tolerance:
            report.aggregate_mismatches.append((scheduler, metric, mean_a, mean_b))
    return report
