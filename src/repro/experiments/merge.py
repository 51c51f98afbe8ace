"""Checkpoint-journal merging and the campaign ``report`` stage.

The inverse of :mod:`repro.experiments.sharding`: N shard legs each leave a
:class:`~repro.experiments.io.CampaignCheckpoint` JSONL journal, and
:func:`merge_journals` unions them back into one validated record set --

* every journal must carry the *same full-design header* (seed, replicates,
  scheduler keys, configurations, resolved backends); journals from
  different campaigns are rejected, never silently mixed;
* a journal claiming shard ``i/N`` may only contain triples that plan
  actually owns (a record outside its slice means the journal was produced
  by a different partition and the exactly-once accounting is void);
* the same (config, replicate, scheduler) triple journaled twice with the
  *same* result (timing measurements aside) is a benign duplicate (e.g. an
  overlapping re-run of a leg) and is counted; the same triple with a
  *different* result is a hard error -- two jobs disagreeing on a
  deterministic computation is corruption, not noise;
* triples of the design missing from every journal are reported as gaps,
  grouped by the shard that owns them, so an interrupted campaign knows
  exactly which legs to re-run with ``--resume``.

The ``report`` stage (:func:`generate_campaign_report`) feeds the merged
:class:`~repro.experiments.runner.ExperimentResults` through
:mod:`repro.experiments.tables` to regenerate Tables 1-16 and writes a
machine-readable ``CAMPAIGN_summary.json`` next to them -- the canonical
artifact of a CI-scale campaign run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import CampaignCheckpoint, save_records_json
from repro.experiments.runner import (
    CampaignTask,
    ExperimentResults,
    RunRecord,
    campaign_tasks,
)
from repro.experiments.sharding import ShardPlan
from repro.experiments.statistics import compute_degradations, summarize
from repro.experiments.tables import PAPER_ROW_ORDER, breakdown_tables, table1

__all__ = [
    "JournalLeg",
    "MergeReport",
    "design_tasks_from_meta",
    "merge_journals",
    "write_merged_journal",
    "generate_campaign_report",
]

Triple = tuple[str, int, str]


def design_tasks_from_meta(meta: dict[str, object]) -> list[CampaignTask]:
    """Rebuild the full canonical task list from a journal header.

    The header records the complete design (configuration dicts, scheduler
    keys, replicates, base seed), so the expected triple set -- and each
    shard's slice of it -- is recomputed rather than trusted from the
    journals themselves.

    Every configuration dict carries the replan-mode key of the removed
    from-scratch path, now a constant ``True`` (see
    :meth:`ExperimentConfig.as_dict`); it is dropped here.  A journal
    recorded with ``False`` ran that removed path and is rejected.  The
    constant ``speculation`` key is dropped whatever its value: the removed
    speculative pre-solves never changed a record.  So is the constant
    ``solver_backend`` key, but only as ``"auto"`` or ``"highs"``: a
    journal that pinned the removed scipy backend is rejected.
    """
    try:
        configs = []
        for values in meta["configs"]:
            values = dict(values)
            if values.pop("incremental_lp", True) is not True:
                raise ReproError(
                    f"configuration {values.get('name')!r} was run with the "
                    "from-scratch LP replan path, which no longer exists; "
                    "its journals cannot be merged"
                )
            values.pop("speculation", None)
            if values.pop("solver_backend", "auto") not in ("auto", "highs"):
                raise ReproError(
                    f"configuration {values.get('name')!r} was run on a solver "
                    "backend that no longer exists; its journals cannot be merged"
                )
            configs.append(ExperimentConfig(**values))
        return campaign_tasks(
            configs,
            tuple(meta["scheduler_keys"]),
            int(meta["replicates"]),
            int(meta["base_seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"checkpoint header does not describe a campaign design: {exc}"
        ) from None


def _base_meta(meta: dict[str, object]) -> dict[str, object]:
    """The campaign identity of a header, with the per-leg shard entry stripped."""
    return {key: value for key, value in meta.items() if key != "shard"}


@dataclass(frozen=True)
class JournalLeg:
    """What one merged journal contributed."""

    path: Path
    shard: ShardPlan | None  #: None for an unsharded (serial) journal.
    n_entries: int  #: Task lines read (including duplicates).


@dataclass
class MergeReport:
    """Outcome of :func:`merge_journals` over N shard journals."""

    meta: dict[str, object]  #: Shared full-design header (shard-stripped).
    legs: list[JournalLeg]
    results: ExperimentResults  #: Merged records in canonical task order.
    n_expected: int
    n_duplicates: int  #: Benign duplicates (same triple, same result).
    missing: list[Triple] = field(default_factory=list)
    #: Gap ownership: shard spec -> number of its triples missing (only
    #: populated when the journals are sharded).
    missing_by_shard: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every design triple is covered exactly once."""
        return not self.missing

    def summary(self) -> dict[str, object]:
        """Machine-readable coverage summary (embedded in CAMPAIGN_summary.json)."""
        return {
            "n_journals": len(self.legs),
            "shards": [leg.shard.spec if leg.shard else None for leg in self.legs],
            "n_expected": self.n_expected,
            "n_records": len(self.results),
            "n_duplicates": self.n_duplicates,
            "n_missing": len(self.missing),
            "missing_by_shard": dict(self.missing_by_shard),
            "complete": self.complete,
        }

    def render(self) -> str:
        """Human-readable merge report (printed by the ``merge`` subcommand)."""
        design = self.meta
        lines = [
            f"merged {len(self.legs)} journal(s): "
            f"{len(self.results)} unique records, "
            f"{self.n_duplicates} benign duplicate(s)",
            f"  design: {len(design['configs'])} configurations x "
            f"{design['replicates']} replicates x "
            f"{len(design['scheduler_keys'])} schedulers = "
            f"{self.n_expected} records expected",
        ]
        for leg in self.legs:
            shard = f"shard {leg.shard.spec}" if leg.shard else "unsharded"
            lines.append(f"  {leg.path}: {shard}, {leg.n_entries} entries")
        if self.complete:
            lines.append("  coverage: complete, every triple exactly once")
        else:
            lines.append(f"  coverage: INCOMPLETE, {len(self.missing)} record(s) missing")
            for spec, count in sorted(self.missing_by_shard.items()):
                lines.append(
                    f"    shard {spec}: {count} missing "
                    f"(re-run its leg with --shard {spec} --resume)"
                )
            preview = ", ".join(
                f"{c}/r{r}/{s}" for c, r, s in self.missing[:5]
            )
            suffix = ", ..." if len(self.missing) > 5 else ""
            lines.append(f"    first gaps: {preview}{suffix}")
        return "\n".join(lines)


def merge_journals(paths: Sequence[str | Path]) -> MergeReport:
    """Union N checkpoint journals into one validated record set.

    Raises :class:`ReproError` on any integrity violation: unreadable or
    foreign journals, mismatched shard partitions, out-of-slice records, or
    the same triple journaled with two different results.  Gaps (triples no
    journal covers) are *not* an error here -- the report carries them so a
    partial campaign can be diagnosed and resumed; callers that need full
    coverage check :attr:`MergeReport.complete`.
    """
    if not paths:
        raise ReproError("merge requires at least one checkpoint journal")

    reference: dict[str, object] | None = None
    reference_path: Path | None = None
    legs: list[JournalLeg] = []
    entries_per_leg: list[list[tuple[Triple, RunRecord]]] = []
    shard_count: int | None = None
    for raw in paths:
        path = Path(raw)
        meta, entries = CampaignCheckpoint(path).read_entries()
        base = _base_meta(meta)
        if reference is None:
            reference, reference_path = base, path
        elif base != reference:
            raise ReproError(
                f"cannot merge {path}: its campaign header (seed, design, "
                f"schedulers or backends) differs from {reference_path}"
            )
        shard = (
            ShardPlan.from_meta_entry(meta["shard"]) if "shard" in meta else None
        )
        if shard is not None:
            if shard_count is None:
                shard_count = shard.count
            elif shard.count != shard_count:
                raise ReproError(
                    f"cannot merge {path}: it was sharded {shard.spec} but "
                    f"other journals use a /{shard_count} partition"
                )
        legs.append(JournalLeg(path=path, shard=shard, n_entries=len(entries)))
        entries_per_leg.append(entries)

    assert reference is not None
    tasks = design_tasks_from_meta(reference)
    expected: dict[Triple, int] = {
        task.triple: position for position, task in enumerate(tasks)
    }
    if len(expected) != len(tasks):
        raise ReproError(
            "campaign design contains duplicate (config, replicate, "
            "scheduler) triples; its journals cannot be merged"
        )

    merged: dict[Triple, RunRecord] = {}
    n_duplicates = 0
    for leg, entries in zip(legs, entries_per_leg):
        allowed = leg.shard.selects_triple(tasks) if leg.shard else None
        for triple, record in entries:
            if triple not in expected:
                raise ReproError(
                    f"journal {leg.path} contains {triple!r}, which is not "
                    "part of the campaign design in its own header"
                )
            if allowed is not None and triple not in allowed:
                raise ReproError(
                    f"journal {leg.path} claims shard {leg.shard.spec} but "
                    f"contains {triple!r}, which that plan does not own -- "
                    "the journal was produced by a mismatched sharding plan"
                )
            previous = merged.get(triple)
            if previous is None:
                merged[triple] = record
            elif previous.result_dict() == record.result_dict():
                n_duplicates += 1
            else:
                raise ReproError(
                    f"merge conflict on {triple!r}: {leg.path} journaled a "
                    "different result than an earlier journal (deterministic "
                    "runs may never disagree; one of the journals is corrupt "
                    "or was produced by a different code/solver revision)"
                )

    missing = [task.triple for task in tasks if task.triple not in merged]
    missing_by_shard: dict[str, int] = {}
    if shard_count is not None and missing:
        missing_set = set(missing)
        for plan in ShardPlan(1, shard_count).siblings():
            owned = plan.selects_triple(tasks) & missing_set
            if owned:
                missing_by_shard[plan.spec] = len(owned)

    results = ExperimentResults(
        merged[task.triple] for task in tasks if task.triple in merged
    )
    return MergeReport(
        meta=reference,
        legs=legs,
        results=results,
        n_expected=len(tasks),
        n_duplicates=n_duplicates,
        missing=missing,
        missing_by_shard=missing_by_shard,
    )


def write_merged_journal(report: MergeReport, path: str | Path) -> Path:
    """Write the merged record set as one unsharded checkpoint journal.

    The output carries the shared full-design header (shard entry stripped)
    and the records in canonical task order, so it is indistinguishable from
    the journal of an uninterrupted serial run: ``report`` consumes it, and
    a ``campaign --resume`` pointed at it correctly finds nothing to do.
    An existing non-empty file is never overwritten.
    """
    path = Path(path)
    ckpt = CampaignCheckpoint(path)
    if not ckpt.effectively_empty():
        raise ReproError(
            f"refusing to overwrite existing file {path}; remove it first"
        )
    # The merged results are in canonical task order, so zipping them with
    # the covered slice of the design recovers each record's scheduler *key*
    # (journal lines carry the registry key, not the display name).
    missing = set(report.missing)
    covered = [
        task
        for task in design_tasks_from_meta(report.meta)
        if task.triple not in missing
    ]
    assert len(covered) == len(report.results)
    with ckpt:
        ckpt.open_append(dict(report.meta))
        for task, record in zip(covered, report.results):
            ckpt.append(task.scheduler_key, record)
    return path


def generate_campaign_report(
    results: ExperimentResults,
    output_dir: str | Path,
    *,
    meta: dict[str, object] | None = None,
    coverage: dict[str, object] | None = None,
) -> dict[str, object]:
    """The ``report`` stage: regenerate Tables 1-16 and the campaign summary.

    Writes into ``output_dir``:

    * ``TABLE_01.txt`` -- the aggregate Table 1;
    * ``TABLES_02_16.txt`` -- the per-factor breakdowns (sites, density,
      databases, availability), in the paper's numbering;
    * ``records.json`` -- the merged raw records (strict JSON, re-loadable
      with :func:`~repro.experiments.io.load_records_json`);
    * ``CAMPAIGN_summary.json`` -- the machine-readable summary returned by
      this function: design identity, coverage accounting, and the
      Mean/SD/Max degradation rows of every table.

    Returns the summary dict (also useful without touching the filesystem
    consumers: the benchmark harness embeds it in its baselines).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    def rows_for(subset: ExperimentResults) -> list[dict[str, object]]:
        return [
            {
                "scheduler": row.scheduler,
                "max_stretch": {
                    "mean": row.max_stretch_mean,
                    "sd": row.max_stretch_sd,
                    "max": row.max_stretch_max,
                },
                "sum_stretch": {
                    "mean": row.sum_stretch_mean,
                    "sd": row.sum_stretch_sd,
                    "max": row.sum_stretch_max,
                },
                "n_instances": row.n_instances,
            }
            for row in summarize(
                compute_degradations(subset), scheduler_order=PAPER_ROW_ORDER
            )
        ]

    breakdowns: dict[str, dict[str, list[dict[str, object]]]] = {}
    for axis, attribute, selector in (
        ("sites", "n_clusters", results.by_sites),
        ("density", "density", results.by_density),
        ("databases", "n_databanks", results.by_databases),
        ("availability", "availability", results.by_availability),
    ):
        values = sorted({getattr(r, attribute) for r in results})
        breakdowns[axis] = {
            f"{value:g}": rows_for(selector(value)) for value in values
        }

    summary: dict[str, object] = {
        "kind": "repro-campaign-summary",
        "version": 1,
        "design": (
            {
                "base_seed": meta.get("base_seed"),
                "replicates": meta.get("replicates"),
                "n_configs": len(meta.get("configs", [])),
                "scheduler_keys": meta.get("scheduler_keys"),
                "resolved_backends": meta.get("resolved_backends"),
            }
            if meta is not None
            else None
        ),
        "coverage": coverage,
        "n_records": len(results),
        "n_failed": sum(1 for r in results if r.failed),
        "table1": rows_for(results),
        "breakdowns": breakdowns,
    }

    (output_dir / "TABLE_01.txt").write_text(table1(results).render() + "\n")
    rendered = [table.render() for table in breakdown_tables(results)]
    (output_dir / "TABLES_02_16.txt").write_text("\n\n".join(rendered) + "\n")
    save_records_json(results, output_dir / "records.json")
    (output_dir / "CAMPAIGN_summary.json").write_text(
        json.dumps(summary, indent=2, allow_nan=False, sort_keys=True) + "\n"
    )
    return summary
