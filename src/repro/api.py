"""The stable public API of the reproduction: ``repro.api``.

Downstream code -- the examples, the ``repro-stretch`` CLI, notebooks,
external callers -- should program against this module rather than the
internal packages.  The five entry points cover the whole lifecycle:

=================== ============================================= =========================
entry point          what it does                                  returns
=================== ============================================= =========================
:func:`simulate`     one scheduler on one instance                 ``SimulationResult``
:func:`run_campaign` a factorial campaign (parallel, resumable)    ``ExperimentResults``
:func:`merge`        union shard journals, validate coverage       ``MergeReport``
:func:`report`       regenerate Tables 1-16 + summary JSON         :class:`CampaignReport`
:func:`serve`        boot the streaming-arrival scheduler daemon   ``ServiceServer``
=================== ============================================= =========================

Everything here is re-exported from the top-level :mod:`repro` package, and
the signatures are covenants: new keyword-only parameters may appear, but
existing ones keep their meaning and defaults across versions.  The result
objects (:class:`~repro.simulation.result.SimulationResult`,
:class:`~repro.experiments.runner.ExperimentResults`,
:class:`~repro.experiments.merge.MergeReport`, :class:`CampaignReport`,
:class:`~repro.service.http.ServiceServer`) are part of the same covenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.instance import Instance
from repro.core.platform import Platform
from repro.experiments.config import ExperimentConfig
from repro.experiments.merge import (
    MergeReport,
    generate_campaign_report,
    merge_journals,
    write_merged_journal,
)
from repro.experiments.runner import ExperimentResults, run_campaign
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate as _simulate
from repro.simulation.result import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Scheduler
    from repro.service.http import ServiceServer

__all__ = [
    "simulate",
    "run_campaign",
    "merge",
    "report",
    "serve",
    "CampaignReport",
    "SimulationResult",
    "ExperimentResults",
    "MergeReport",
    "ExperimentConfig",
]


def simulate(
    instance: Instance,
    scheduler: "Scheduler | str" = "swrpt",
    *,
    scheduler_options: Mapping[str, Any] | None = None,
    record_events: bool = False,
    faults: "object | None" = None,
) -> SimulationResult:
    """Run one scheduler on one instance and return the full result.

    Parameters
    ----------
    instance:
        The :class:`~repro.core.instance.Instance` to schedule (jobs +
        platform).
    scheduler:
        Either a registry key (``"swrpt"``, ``"online"``, ... -- see
        :func:`repro.schedulers.available_schedulers`) or an already
        constructed :class:`~repro.schedulers.base.Scheduler`.
    scheduler_options:
        Constructor options forwarded to the registry factory when
        ``scheduler`` is a key (e.g. ``{"policy": "batched:5"}`` for the
        on-line LP heuristics); rejected when a scheduler instance is
        passed.
    record_events:
        Keep the arrival/decision/completion trace on the result.
    faults:
        Optional machine-availability timeline: a
        :class:`~repro.simulation.faults.FaultTimeline`, a path to a saved
        JSONL fault trace, or a sequence of ``(machine, down, up)``
        triples.  ``None`` (default) is the fault-free engine,
        bit-identical to every previous release.

    Returns
    -------
    SimulationResult
        Realized schedule, completion dates, metric report
        (``result.report()``), scheduler wall-clock and LP probe
        statistics; jobs stranded by permanent outages are in
        ``result.parked``.
    """
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, **dict(scheduler_options or {}))
    elif scheduler_options:
        raise TypeError(
            "scheduler_options only applies when 'scheduler' is a registry key"
        )
    if faults is not None:
        from repro.simulation.faults import _coerce_timeline

        faults = _coerce_timeline(faults)
    return _simulate(instance, scheduler, record_events=record_events, faults=faults)


def merge(
    journals: Sequence[str | Path], *, output: "str | Path | None" = None
) -> MergeReport:
    """Union N campaign shard journals into one validated record set.

    Validates exactly-once coverage (duplicates and conflicting records are
    hard errors), reports gaps, and -- when ``output`` is given -- writes
    the merged set as a single unsharded journal consumable by
    :func:`report` and by ``run_campaign(..., resume=True)``.

    Returns
    -------
    MergeReport
        ``report.results`` (the merged ``ExperimentResults``),
        ``report.complete``, ``report.missing`` and a printable
        ``report.render()``.
    """
    merged = merge_journals(list(journals))
    if output is not None:
        write_merged_journal(merged, output)
    return merged


@dataclass
class CampaignReport:
    """Outcome of the :func:`report` stage.

    ``summary`` is the machine-readable ``CAMPAIGN_summary.json`` content
    (design identity, coverage, per-table degradation rows); ``output_dir``
    holds the written artifacts (``TABLE_01.txt``, ``TABLES_02_16.txt``,
    ``records.json``, ``CAMPAIGN_summary.json``); ``merged`` carries the
    underlying record set for further analysis.
    """

    summary: dict[str, Any]
    output_dir: Path
    merged: MergeReport = field(repr=False)


def report(
    journal: "str | Path | MergeReport",
    output_dir: "str | Path" = "campaign-report",
    *,
    allow_gaps: bool = False,
) -> CampaignReport:
    """Regenerate Tables 1-16 and the campaign summary from a journal.

    ``journal`` is a complete campaign checkpoint (serial or produced by
    :func:`merge`), or an already-merged :class:`MergeReport` when the
    caller has one in hand.  Raises
    :class:`~repro.core.errors.ReproError` when the record set does not
    cover the full design, unless ``allow_gaps`` is set.

    Returns
    -------
    CampaignReport
        The summary dict, the output directory and the merged record set.
    """
    from repro.core.errors import ReproError

    if isinstance(journal, MergeReport):
        merged = journal
    else:
        merged = merge_journals([Path(journal)])
    if not merged.complete and not allow_gaps:
        raise ReproError(
            f"journal {journal} does not cover the full design "
            f"({len(merged.missing)} triples missing); merge all shard legs "
            "first, or pass allow_gaps=True"
        )
    summary = generate_campaign_report(
        merged.results,
        output_dir,
        meta=merged.meta,
        coverage=merged.summary(),
    )
    return CampaignReport(
        summary=summary, output_dir=Path(output_dir), merged=merged
    )


def serve(
    platform: Platform,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **config: Any,
) -> "ServiceServer":
    """Boot the streaming-arrival scheduler daemon behind its HTTP surface.

    Starts the engine thread (on a fresh
    :class:`~repro.core.instance.LiveInstance` over ``platform``) and an
    HTTP listener serving ``POST /submit``, ``POST /stream`` (a JSONL
    window with per-record error accounting), ``GET /telemetry`` (current
    ``S*``, LP probe histogram, per-databank queue depths, replan-latency
    percentiles), ``GET /healthz`` (accepting/draining/stopped/failed)
    and ``POST /drain``.

    Parameters
    ----------
    platform:
        The machine park the daemon schedules onto.
    host, port:
        Bind address; ``port=0`` picks a free port (see ``server.port`` /
        ``server.url``).
    **config:
        The :class:`~repro.service.daemon.ServiceConfig` fields, which
        declare their defaults: the service-safe ``scheduler`` key, the run
        option ``replan_policy``, ``time_scale``,
        ``journal`` (the replayable submission trace), ``record_events`` and
        the admission valve ``max_pending`` / ``shed_replan_p99`` /
        ``retry_after``.

    Returns
    -------
    ServiceServer
        The started server; use it as a context manager, or call
        ``server.shutdown()`` and ``server.daemon.stop()`` when done.
    """
    from repro.service.daemon import SchedulerDaemon, ServiceConfig
    from repro.service.http import ServiceServer

    daemon = SchedulerDaemon(platform, ServiceConfig(**config))
    server = ServiceServer(daemon, host=host, port=port)
    server.start()
    return server
