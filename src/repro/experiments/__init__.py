"""The paper's experimental campaign (Section 5).

* :mod:`repro.experiments.config` -- experiment configurations: the 162-point
  factorial design of Section 5.3 and the density sweep of Section 5.2.
* :mod:`repro.experiments.runner` -- the campaign execution engine: runs
  whole (configuration, replicate) groups over long-lived worker processes
  (a solver-state bank per worker, a solver backend per run; a serial run
  owns its own bank), with progress/ETA reporting and checkpoint/resume.
* :mod:`repro.experiments.statistics` -- per-instance normalization
  (degradation w.r.t. the best heuristic) and mean/SD/max aggregation.
* :mod:`repro.experiments.tables` -- regenerates Tables 1-16.
* :mod:`repro.experiments.figures` -- regenerates Figures 3(a) and 3(b).
* :mod:`repro.experiments.overhead` -- the scheduling-overhead comparison of
  Section 5.3.
* :mod:`repro.experiments.io` -- CSV/JSON persistence of result records and
  the streaming JSONL campaign checkpoints.
* :mod:`repro.experiments.sharding` -- deterministic shard plans: split the
  (configuration, replicate, scheduler) design into ``i/N`` slices that
  independent jobs (CI matrix legs) run with their own journals.
* :mod:`repro.experiments.merge` -- the inverse: union N shard journals
  into one validated record set (exactly-once coverage, conflict and gap
  detection) and regenerate Tables 1-16 plus ``CAMPAIGN_summary.json``.
"""

from repro.experiments.config import (
    ExperimentConfig,
    figure3_configurations,
    paper_configurations,
    small_configurations,
)
from repro.experiments.runner import (
    CampaignProgress,
    CampaignTask,
    ExperimentResults,
    RunRecord,
    campaign_meta,
    campaign_tasks,
    run_campaign,
)
from repro.experiments.sharding import ShardPlan, parse_shard_spec
from repro.experiments.merge import (
    JournalLeg,
    MergeReport,
    generate_campaign_report,
    merge_journals,
    write_merged_journal,
)
from repro.experiments.statistics import (
    AggregateRow,
    DegradationRecord,
    compute_degradations,
    summarize,
)
from repro.experiments.tables import (
    render_aggregate_table,
    table1,
    tables_by_availability,
    tables_by_databases,
    tables_by_density,
    tables_by_sites,
)
from repro.experiments.figures import Figure3Point, figure3a, figure3b
from repro.experiments.overhead import OverheadRecord, scheduling_overhead
from repro.experiments.io import (
    CampaignCheckpoint,
    load_records_csv,
    load_records_json,
    save_records_csv,
    save_records_json,
)

__all__ = [
    "ExperimentConfig",
    "paper_configurations",
    "figure3_configurations",
    "small_configurations",
    "RunRecord",
    "ExperimentResults",
    "CampaignTask",
    "CampaignProgress",
    "campaign_tasks",
    "campaign_meta",
    "run_campaign",
    "ShardPlan",
    "parse_shard_spec",
    "JournalLeg",
    "MergeReport",
    "merge_journals",
    "write_merged_journal",
    "generate_campaign_report",
    "DegradationRecord",
    "AggregateRow",
    "compute_degradations",
    "summarize",
    "table1",
    "tables_by_sites",
    "tables_by_density",
    "tables_by_databases",
    "tables_by_availability",
    "render_aggregate_table",
    "Figure3Point",
    "figure3a",
    "figure3b",
    "OverheadRecord",
    "scheduling_overhead",
    "CampaignCheckpoint",
    "save_records_csv",
    "save_records_json",
    "load_records_csv",
    "load_records_json",
]
