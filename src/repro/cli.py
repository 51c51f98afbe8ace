"""Command-line interface: ``repro-stretch``.

Sub-commands
------------

``simulate``
    Generate one random GriPPS-like instance and run one or more schedulers
    on it, printing per-scheduler metrics (and optionally the event trace or
    an ASCII Gantt chart).
``campaign``
    Run a (scaled-down) version of the paper's factorial campaign and print
    Table 1 plus, optionally, the per-parameter breakdowns; raw records can
    be saved to CSV.  The campaign execution engine streams (configuration,
    replicate, scheduler) tasks over ``--workers`` long-lived processes,
    journals completed records to ``--checkpoint FILE`` (JSONL) and resumes
    a killed run with ``--resume``::

        repro-stretch campaign --workers 4 --checkpoint campaign.jsonl
        repro-stretch campaign --workers 4 --checkpoint campaign.jsonl --resume

    ``--shard i/N`` restricts the run to one deterministic slice of the
    design (whole instances, dealt round-robin), so N independent jobs --
    the legs of a CI matrix -- can carry one campaign in parallel, each
    with its own journal.
``merge``
    Union N shard journals into one validated record set: exactly-once
    triple coverage, duplicate/conflict detection (same triple with a
    different record is a hard error) and gap reporting for resumable
    re-runs; optionally writes the merged journal::

        repro-stretch merge shard-*.jsonl --output merged.jsonl
``report``
    Regenerate Tables 1-16 and a machine-readable ``CAMPAIGN_summary.json``
    from a (merged or serial) campaign journal::

        repro-stretch report merged.jsonl --output-dir campaign-report
``serve``
    Boot the streaming-arrival scheduler daemon (service mode): an HTTP
    surface accepting submissions while the engine runs, live telemetry
    (current ``S*``, per-databank queue depths, replan-latency
    percentiles) and a replayable submission journal::

        repro-stretch serve --scheduler online --port 8080 --journal run.jsonl
``figure3``
    Run the density sweep of Figure 3 and print both series.
``overhead``
    Run the scheduling-overhead comparison of Section 5.3.
``theorem1`` / ``theorem2``
    Demonstrate the adversarial constructions of the theory sections.

Every sub-command accepts ``--seed`` for reproducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Sequence

from repro.experiments.config import figure3_configurations, paper_configurations
from repro import api
from repro.core.errors import ReproError
from repro.experiments.figures import run_figure3_sweep
from repro.experiments.io import save_records_csv
from repro.experiments.overhead import OVERHEAD_TABLE_HEADERS, scheduling_overhead
from repro.experiments.sharding import parse_shard_spec
from repro.experiments.tables import breakdown_tables, table1
from repro.schedulers.registry import (
    SERVICE_SCHEDULERS,
    OnOff,
    OptionEnum,
    RunOptions,
    available_schedulers,
    paper_schedulers,
)
from repro.simulation.faults import FaultTimeline, load_fault_timeline
from repro.theory.bounds import swrpt_competitive_gap
from repro.theory.starvation import starvation_analysis
from repro.utils.seeding import derive_seed
from repro.utils.textable import TextTable
from repro.workload.faults import FaultSpec, generate_fault_timeline
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance
from repro.workload.generator import generate_platform

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-stretch",
        description="Stretch-minimizing schedulers for flows of divisible biological requests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run schedulers on one random instance")
    sim.add_argument("--clusters", type=int, default=3)
    sim.add_argument("--databanks", type=int, default=3)
    sim.add_argument("--availability", type=float, default=0.6)
    sim.add_argument("--density", type=float, default=1.0)
    sim.add_argument("--processors", type=int, default=10, help="processors per cluster")
    sim.add_argument("--window", type=float, default=60.0, help="submission window (s)")
    sim.add_argument("--max-jobs", type=int, default=40)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--schedulers",
        nargs="+",
        default=["offline", "online", "swrpt", "srpt", "mct"],
        choices=available_schedulers(),
        metavar="KEY",
    )
    sim.add_argument("--trace", action="store_true", help="print the event trace")
    sim.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    sim.add_argument(
        "--fault-trace",
        type=str,
        default=None,
        metavar="FILE",
        help="inject machine outages from a JSONL fault trace "
        "(see README 'Fault tolerance'); mutually exclusive with "
        "--fault-mtbf/--fault-mttr",
    )
    sim.add_argument(
        "--fault-mtbf",
        type=float,
        default=None,
        help="generate a seeded outage trace: mean seconds between failures "
        "per machine (requires --fault-mttr)",
    )
    sim.add_argument(
        "--fault-mttr",
        type=float,
        default=None,
        help="mean outage duration in seconds (requires --fault-mtbf)",
    )
    sim.add_argument(
        "--fault-loss-model",
        choices=["resume", "restart"],
        default="resume",
        help="what a downed machine's in-flight work does: 'resume' keeps "
        "remaining work, 'restart' loses the un-checkpointed fraction",
    )
    sim.add_argument(
        "--fault-checkpoint-fraction",
        type=float,
        default=0.0,
        help="fraction of processed work preserved under the restart loss "
        "model (0 = restart from scratch)",
    )
    _add_run_options(sim)

    camp = sub.add_parser("campaign", help="run a scaled-down version of the paper campaign")
    camp.add_argument("--replicates", type=int, default=1)
    camp.add_argument("--window", type=float, default=20.0)
    camp.add_argument(
        "--max-jobs",
        type=_job_cap,
        default=15,
        help="cap on jobs per instance used to scale the campaign down; "
        "0 removes the cap (the paper's actual workload; combine with "
        "--window 900 for the full Section 5.3 design)",
    )
    camp.add_argument("--seed", type=int, default=2006)
    camp.add_argument("--workers", type=int, default=1)
    camp.add_argument(
        "--state-bank",
        **enum_option(OnOff, OnOff.ON, param="--state-bank"),
        help="cross-run solver-state bank: share warm solver state across "
        "the on-line LP schedulers of each (config, replicate) group "
        "(content-addressed, so records stay bit-identical at any worker "
        "count); 'off' re-pays every cold solve (default: on)",
    )
    camp.add_argument("--sites", type=int, nargs="+", default=[3, 10, 20])
    camp.add_argument("--databanks", type=int, nargs="+", default=[3, 10, 20])
    camp.add_argument("--availabilities", type=float, nargs="+", default=[0.3, 0.6, 0.9])
    camp.add_argument(
        "--densities", type=float, nargs="+", default=[0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
    )
    camp.add_argument("--schedulers", nargs="+", default=None, metavar="KEY")
    camp.add_argument(
        "--fault-mtbf",
        type=float,
        default=None,
        help="availability axis: mean seconds between machine failures "
        "(requires --fault-mttr; traces derive from the replicate seed, so "
        "records stay bit-identical at any worker count)",
    )
    camp.add_argument(
        "--fault-mttr", type=float, default=None, help="mean outage duration (s)"
    )
    camp.add_argument(
        "--fault-loss-model", choices=["resume", "restart"], default="resume"
    )
    camp.add_argument("--fault-checkpoint-fraction", type=float, default=0.0)
    camp.add_argument("--save-csv", type=str, default=None)
    camp.add_argument("--breakdowns", action="store_true", help="also print Tables 2-16")
    camp.add_argument(
        "--profile",
        action="store_true",
        help="print the campaign's per-stage wall-clock breakdown "
        "(dispatch / compute / journal) after the run",
    )
    camp.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="FILE",
        help="append completed records to this JSONL journal as they stream "
        "in, so a killed campaign can be continued with --resume",
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="load the --checkpoint journal and skip every (config, "
        "replicate, scheduler) triple it already contains",
    )
    camp.add_argument(
        "--shard",
        type=_shard_spec,
        default=None,
        metavar="i/N",
        help="run only this deterministic slice of the design (whole "
        "(config, replicate) instances, dealt round-robin over the N "
        "shards); combine with --checkpoint so the N legs' journals can "
        "be reunited with the 'merge' subcommand",
    )
    _add_run_options(camp)

    mrg = sub.add_parser(
        "merge",
        help="union N campaign shard journals into one validated record set",
    )
    mrg.add_argument(
        "journals",
        nargs="+",
        metavar="JOURNAL",
        help="checkpoint journals written by 'campaign --shard i/N --checkpoint'",
    )
    mrg.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the merged record set as one unsharded journal "
        "(consumable by the 'report' subcommand and by --resume)",
    )
    mrg.add_argument(
        "--allow-gaps",
        action="store_true",
        help="exit 0 even when some design triples are missing (the gap "
        "report names the shards to re-run); without this flag an "
        "incomplete merge exits 1",
    )

    rep = sub.add_parser(
        "report",
        help="regenerate Tables 1-16 + CAMPAIGN_summary.json from a journal",
    )
    rep.add_argument(
        "journal",
        metavar="JOURNAL",
        help="a complete campaign journal (merged or serial)",
    )
    rep.add_argument(
        "--output-dir",
        type=str,
        default="campaign-report",
        metavar="DIR",
        help="directory receiving TABLE_01.txt, TABLES_02_16.txt, "
        "records.json and CAMPAIGN_summary.json (default: campaign-report)",
    )
    rep.add_argument(
        "--allow-gaps",
        action="store_true",
        help="report on a partial record set instead of requiring "
        "exactly-once coverage of the full design",
    )
    rep.add_argument("--breakdowns", action="store_true", help="also print Tables 2-16")

    srv = sub.add_parser(
        "serve",
        help="boot the streaming-arrival scheduler daemon (service mode)",
    )
    srv.add_argument(
        "--scheduler",
        default="online",
        choices=sorted(SERVICE_SCHEDULERS),
        metavar="KEY",
        help="a service-safe scheduler (no whole-instance knowledge at "
        "reset); default: the paper's on-line LP heuristic",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port for the HTTP surface; 0 (default) picks a free port "
        "and prints it",
    )
    srv.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="FILE",
        help="journal every accepted submission to this replayable JSONL "
        "trace (replaying it is bit-identical to batch simulation)",
    )
    srv.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="virtual seconds per wall-clock second for the admission "
        "clock; 0 free-runs (as fast as the engine can step)",
    )
    srv.add_argument("--clusters", type=int, default=3)
    srv.add_argument("--processors", type=int, default=10, help="processors per cluster")
    srv.add_argument("--databanks", type=int, default=3)
    srv.add_argument("--availability", type=float, default=0.6)
    srv.add_argument("--seed", type=int, default=0, help="platform generation seed")
    srv.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="admission valve: shed submissions (503 + Retry-After) once N "
        "admitted jobs are still waiting for delivery (default: unbounded)",
    )
    srv.add_argument(
        "--shed-replan-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="admission valve: shed submissions while the live replan-latency "
        "p99 exceeds this target (default: off)",
    )
    srv.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="back-off advertised on shed submissions (default: 1.0)",
    )
    _add_run_options(srv)

    fig = sub.add_parser("figure3", help="run the Figure 3 density sweep")
    fig.add_argument("--replicates", type=int, default=3)
    fig.add_argument("--window", type=float, default=20.0)
    fig.add_argument("--max-jobs", type=int, default=15)
    fig.add_argument("--seed", type=int, default=1998)

    over = sub.add_parser("overhead", help="scheduling-overhead comparison (Section 5.3)")
    over.add_argument("--replicates", type=int, default=2)
    over.add_argument("--window", type=float, default=30.0)
    over.add_argument("--max-jobs", type=int, default=25)
    _add_run_options(over)

    th1 = sub.add_parser("theorem1", help="starvation instance of Theorem 1")
    th1.add_argument("--delta", type=float, default=16.0)
    th1.add_argument("--unit-jobs", type=int, default=64)
    th1.add_argument(
        "--schedulers", nargs="+", default=["srpt", "swrpt", "fcfs", "offline", "online"]
    )

    th2 = sub.add_parser("theorem2", help="SWRPT lower-bound instance of Theorem 2")
    th2.add_argument("--epsilon", type=float, default=0.3)
    th2.add_argument("--unit-jobs", type=int, default=300)

    return parser


def _job_cap(text: str) -> int:
    """argparse type: a per-instance job cap; 0 means uncapped, negatives error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 removes the cap; the paper's uncapped workload)"
        )
    return value


def _shard_spec(text: str) -> str:
    """argparse type: validate an 'i/N' shard spec early, keep it textual."""
    try:
        parse_shard_spec(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    """One flag per :class:`RunOptions` field, help and metavar from its metadata."""
    for option in dataclasses.fields(RunOptions):
        sub.add_argument(
            "--" + option.name.replace("_", "-"),
            type=_run_option_type(option.name),
            default=option.default,
            **option.metadata,
        )


def enum_option(
    enum_cls: "type[OptionEnum]",
    default: Any,
    *,
    param: str | None = None,
) -> dict[str, Any]:
    """``argparse.add_argument`` keywords for an enum-valued option.

    Input goes through :meth:`OptionEnum.coerce` (canonical spellings,
    case-insensitively), the ``choices`` list shows them, and the parsed
    value is always an enum member.
    """

    def parse(text: str) -> OptionEnum:
        try:
            return enum_cls.coerce(text, param=param)
        except ValueError as exc:
            # argparse reports the type error with its own framing; keep ours.
            raise ValueError(str(exc)) from None

    return {
        "type": parse,
        "choices": tuple(enum_cls),
        "default": enum_cls.coerce(default, param=param),
        "metavar": "|".join(m.value for m in enum_cls),
    }


def _run_option_type(name: str):
    """argparse type: validate one run option through :class:`RunOptions`.

    The parsed value is the one the library stores, so the flag and the
    library share one validation rule.
    """

    def parse(text: str):
        try:
            return getattr(RunOptions(**{name: text}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _run_options(args: argparse.Namespace) -> dict[str, object]:
    """The parsed :class:`RunOptions` flags, as keyword arguments."""
    names = (option.name for option in dataclasses.fields(RunOptions))
    return {name: getattr(args, name) for name in names}


def _simulate_faults(args: argparse.Namespace, instance) -> "FaultTimeline | None":
    """The fault timeline the ``simulate`` flags describe (``None`` = off)."""
    if args.fault_trace is not None:
        if args.fault_mtbf is not None or args.fault_mttr is not None:
            raise ReproError(
                "--fault-trace is mutually exclusive with --fault-mtbf/--fault-mttr"
            )
        return load_fault_timeline(args.fault_trace)
    if (args.fault_mtbf is None) != (args.fault_mttr is None):
        raise ReproError("--fault-mtbf and --fault-mttr must be given together")
    if args.fault_mtbf is None:
        return None
    spec = FaultSpec(
        mtbf=args.fault_mtbf,
        mttr=args.fault_mttr,
        horizon=args.window,
        loss_model=args.fault_loss_model,
        checkpoint_fraction=args.fault_checkpoint_fraction,
    )
    return generate_fault_timeline(
        instance.platform, spec, rng=derive_seed(args.seed, "faults")
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec_p = PlatformSpec(
        n_clusters=args.clusters,
        processors_per_cluster=args.processors,
        n_databanks=args.databanks,
        availability=args.availability,
    )
    spec_w = WorkloadSpec(density=args.density, window=args.window, max_jobs=args.max_jobs)
    instance = generate_instance(spec_p, spec_w, rng=args.seed)
    try:
        faults = _simulate_faults(args, instance)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(instance.platform.describe())
    print(f"{instance.n_jobs} jobs, size ratio Delta = {instance.delta():.2f}")
    if faults:
        n_outages = len(faults.intervals())
        print(
            f"fault timeline: {n_outages} outage(s) over "
            f"{len(faults.machine_ids())} machine(s), "
            f"loss model {faults.loss_model}"
        )
    print()
    table = TextTable(
        headers=["Scheduler", "max-stretch", "sum-stretch", "max-flow", "makespan",
                 "sched time (s)"]
    )
    run_options = RunOptions(**_run_options(args))
    for key in args.schedulers:
        result = api.simulate(
            instance,
            key,
            scheduler_options=run_options.scheduler_options_for(key),
            record_events=args.trace,
            faults=faults,
        )
        if result.parked:
            print(
                f"note: {result.scheduler_name} parked job(s) "
                f"{sorted(result.parked)} (no eligible machine left up); "
                "their stretch is reported as inf"
            )
        report = result.report()
        table.add_row(
            [
                result.scheduler_name,
                report.max_stretch,
                report.sum_stretch,
                report.max_flow,
                report.makespan,
                result.scheduler_time,
            ]
        )
        if args.trace:
            print(f"--- trace of {result.scheduler_name} ---")
            for line in result.trace_lines():
                print(line)
            print()
        if args.gantt:
            print(f"--- Gantt chart of {result.scheduler_name} ---")
            print(result.schedule.gantt(instance))
            print()
    print(table.render())
    return 0


def _profile_table(stage_seconds: dict[str, float]) -> TextTable:
    """The ``--profile`` per-stage wall-clock breakdown of a campaign run."""
    table = TextTable(
        headers=["Stage", "seconds", "share (%)"],
        title="Campaign stage profile",
    )
    total = sum(stage_seconds.values())
    for stage, seconds in stage_seconds.items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        table.add_row([stage, seconds, share])
    table.add_row(["total", total, 100.0 if total > 0 else 0.0])
    return table


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint FILE", file=sys.stderr)
        return 2
    if args.shard and args.breakdowns:
        # A shard leg computes a deliberately partial record set; aggregate
        # tables over it would be silently misleading -- they belong after
        # the 'merge' step, in the 'report' stage.
        print(
            "error: --shard is incompatible with --breakdowns "
            "(merge the shard journals, then use 'report')",
            file=sys.stderr,
        )
        return 2
    if (args.fault_mtbf is None) != (args.fault_mttr is None):
        print(
            "error: --fault-mtbf and --fault-mttr must be given together",
            file=sys.stderr,
        )
        return 2
    configs = paper_configurations(
        sites=args.sites,
        databanks=args.databanks,
        availabilities=args.availabilities,
        densities=args.densities,
        window=args.window,
        max_jobs=args.max_jobs if args.max_jobs > 0 else None,
        **_run_options(args),
        state_bank=args.state_bank,
        fault_mtbf=args.fault_mtbf,
        fault_mttr=args.fault_mttr,
        fault_loss_model=args.fault_loss_model,
        fault_checkpoint_fraction=args.fault_checkpoint_fraction,
    )
    scheduler_keys = args.schedulers or paper_schedulers(include_bender98=False)
    if args.fault_mtbf is not None:
        clairvoyant = [k for k in scheduler_keys if k in ("offline", "offline-sum")]
        if clairvoyant:
            print(
                f"warning: {', '.join(clairvoyant)} plan(s) the whole run "
                "clairvoyantly and cannot react to outages; with the fault "
                "axis on their runs are recorded as failed",
                file=sys.stderr,
            )
    computed = 0

    def progress(msg) -> None:
        # Counts the *freshly computed* tasks: checkpoint-restored triples
        # never reach the progress callback, so a fully-restored resume is
        # detectable as zero progress events ("nothing to do").
        nonlocal computed
        computed += 1
        print(f"  {msg}", file=sys.stderr)

    shard_note = f" (shard {args.shard})" if args.shard else ""
    print(
        f"Running {len(configs)} configurations x {args.replicates} replicates "
        f"x {len(scheduler_keys)} schedulers{shard_note} ..."
    )
    try:
        results = api.run_campaign(
            configs,
            scheduler_keys=scheduler_keys,
            replicates=args.replicates,
            base_seed=args.seed,
            n_workers=args.workers,
            progress=progress,
            checkpoint=args.checkpoint,
            resume=args.resume,
            shard=args.shard,
        )
    except ReproError as exc:
        # Expected operator errors (existing journal without --resume,
        # foreign checkpoint): a clean message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume and computed == 0:
        print(
            f"nothing to do: checkpoint {args.checkpoint} already contains "
            f"all {len(results)} records"
        )
    if args.save_csv:
        path = save_records_csv(results, args.save_csv)
        print(f"raw records saved to {path}")
    if args.profile:
        print()
        print(_profile_table(results.stage_seconds).render())
    if args.shard:
        # A shard leg's aggregate tables would cover a partial design;
        # summarize the leg instead and leave the tables to 'report'.
        print(
            f"shard {args.shard}: {len(results)} records"
            + (f", journaled to {args.checkpoint}" if args.checkpoint else "")
        )
        return 0
    print()
    print(table1(results).render())
    if args.breakdowns:
        for table in breakdown_tables(results):
            print()
            print(table.render())
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    try:
        # Integrity violations (foreign journals, mismatched shard plans,
        # conflicting records, unwritable output) are hard errors.
        report = api.merge(args.journals, output=args.output)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.output:
        print(f"merged journal written to {args.output}")
    if not report.complete and not args.allow_gaps:
        print(
            "error: coverage is incomplete (pass --allow-gaps to accept a "
            "partial merge)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        merged = api.merge([args.journal])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not merged.complete and not args.allow_gaps:
        print(merged.render(), file=sys.stderr)
        print(
            "error: the journal does not cover the full design (merge all "
            "shard legs first, or pass --allow-gaps)",
            file=sys.stderr,
        )
        return 1
    outcome = api.report(merged, args.output_dir, allow_gaps=args.allow_gaps)
    print(table1(outcome.merged.results).render())
    if args.breakdowns:
        for table in breakdown_tables(outcome.merged.results):
            print()
            print(table.render())
    print()
    print(
        f"campaign report written to {args.output_dir} "
        f"({outcome.summary['n_records']} records, "
        f"{outcome.summary['n_failed']} failed)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = PlatformSpec(
        n_clusters=args.clusters,
        processors_per_cluster=args.processors,
        n_databanks=args.databanks,
        availability=args.availability,
    )
    platform, catalog = generate_platform(spec, rng=args.seed)
    try:
        server = api.serve(
            platform,
            scheduler=args.scheduler,
            **_run_options(args),
            time_scale=args.time_scale,
            journal=args.journal,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            shed_replan_p99=args.shed_replan_p99,
            retry_after=args.retry_after,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(platform.describe())
    print(f"databanks: {', '.join(catalog.names())}")
    print(f"serving on {server.url}")
    print("  POST /submit     one JSON submission")
    print("  POST /stream     a JSONL submission window")
    print("  GET  /telemetry  live S*, queue depths, replan latencies")
    print("  GET  /healthz    accepting / draining / stopped / failed")
    print("  POST /drain      close submissions, finish, report metrics")
    if args.journal:
        print(f"journaling accepted submissions to {args.journal}")
    import signal
    import time as _time

    # SIGTERM (systemd stop, container runtime, kill) means drain-then-exit:
    # stop admitting, let the engine finish what was accepted, seal the
    # journal, leave 0.  The handler only flips a flag -- all real work
    # happens on the main thread, outside async-signal context.
    terminating = False

    def _on_sigterm(signum: int, frame: object) -> None:
        nonlocal terminating
        terminating = True

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    # The banner must land before the (indefinite) serve loop even when stdout
    # is a block-buffered pipe (scripted callers learn the ephemeral port from
    # it), but not before SIGTERM is handled: they may send it right after.
    sys.stdout.flush()
    drained = False

    def _drain(reason: str) -> int:
        nonlocal drained
        drained = True
        print(f"\n{reason}: draining admitted jobs ...", file=sys.stderr)
        server.daemon.close_submissions()
        try:
            server.daemon.join(timeout=60.0)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    try:
        code = 0
        try:
            while server.daemon.running and not terminating:
                _time.sleep(0.5)
            if terminating:
                code = _drain("SIGTERM received")
        except KeyboardInterrupt:
            code = _drain("interrupted")
        return code
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.shutdown()


def _cmd_figure3(args: argparse.Namespace) -> int:
    configs = figure3_configurations(window=args.window, max_jobs=args.max_jobs)
    points = run_figure3_sweep(configs, replicates=args.replicates, base_seed=args.seed)
    table = TextTable(
        headers=[
            "density",
            "non-opt degr. (%)",
            "optimized degr. (%)",
            "sum-stretch gain (%)",
        ]
    )
    for p in points:
        table.add_row(
            [
                p.density,
                p.non_optimized_max_stretch_degradation,
                p.optimized_max_stretch_degradation,
                p.sum_stretch_gain,
            ]
        )
    print(table.render())
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    records = scheduling_overhead(
        replicates=args.replicates,
        window=args.window,
        max_jobs=args.max_jobs,
        scheduler_options={"bender98": {"max_jobs_per_resolution": 25}},
        **_run_options(args),
    )
    table = TextTable(headers=list(OVERHEAD_TABLE_HEADERS))
    for record in records:
        table.add_row(record.cells())
    print(table.render())
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    report = starvation_analysis(args.delta, args.unit_jobs, args.schedulers)
    print(f"Theorem 1 instance: Delta = {report.delta}, k = {report.n_unit_jobs} unit jobs")
    print(
        f"  sum-friendly schedule: sum-stretch = {report.sum_friendly_sum_stretch:.3f}, "
        f"max-stretch = {report.sum_friendly_max_stretch:.3f}"
    )
    print(
        f"  max-friendly schedule: sum-stretch = {report.max_friendly_sum_stretch:.3f}, "
        f"max-stretch = {report.max_friendly_max_stretch:.3f}"
    )
    table = TextTable(headers=["Scheduler", "max-stretch", "sum-stretch"])
    for name, (max_s, sum_s) in report.measured.items():
        table.add_row([name, max_s, sum_s])
    print(table.render())
    print(f"max-stretch blow-up exhibited by the proof: {report.max_stretch_blowup:.3f}")
    return 0


def _cmd_theorem2(args: argparse.Namespace) -> int:
    report = swrpt_competitive_gap(args.epsilon, args.unit_jobs)
    print(
        f"Theorem 2 instance: epsilon = {report.epsilon}, alpha = {report.parameters.alpha:.4f}, "
        f"n = {report.parameters.n}, k = {report.parameters.k}, l = {report.n_unit_jobs}"
    )
    print(f"  SRPT  sum-stretch: simulated {report.srpt_sum_stretch:.3f}, "
          f"predicted {report.predicted_srpt:.3f}")
    print(f"  SWRPT sum-stretch: simulated {report.swrpt_sum_stretch:.3f}, "
          f"predicted {report.predicted_swrpt:.3f}")
    print(f"  ratio: {report.ratio:.4f} (target as l grows: {report.target:.4f})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-stretch`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "campaign": _cmd_campaign,
        "merge": _cmd_merge,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "figure3": _cmd_figure3,
        "overhead": _cmd_overhead,
        "theorem1": _cmd_theorem1,
        "theorem2": _cmd_theorem2,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
