"""Campaign execution engine: whole instance groups over long-lived worker lanes.

The paper's Section 5.3 evidence is a factorial campaign of 162
configurations x 200 replicates (~32 000 instances, ~320 000 scheduler
runs).  This module carries campaigns of that scale by splitting the work
into *(configuration, replicate, scheduler)* tasks and running them, one
whole ``(configuration, replicate)`` group at a time, on long-lived
workers:

* **Group dispatch.**  A group is one realized instance and every
  scheduler of the design on it.  The worker generates the instance once
  from the derived seed (nothing heavy is ever pickled), runs the
  schedulers back to back in canonical order, and returns the group's
  records as a plain ``list[RunRecord]``; their journal lines are written
  in one batch with a single flush at the group boundary.
* **One solver backend per run.**  Every LP scheduler gets its backend
  from :func:`~repro.lp.backends.make_backend` at run start, like any
  ``simulate()`` call, so per-run solver state (the warm-start series
  bases, the LP counters) never outlives its run -- which is what keeps a
  sharded campaign *bit-identical* to the serial one: results can never
  depend on which tasks previously shared a worker.
* **Replicate-affinity placement + cross-run solver-state bank.**  Each
  worker holds one :class:`~repro.lp.bank.SolverStateBank`, and groups
  are dealt to fixed per-worker *lanes* by first appearance (exactly like
  the :class:`~repro.experiments.sharding.ShardPlan` deals instance groups
  across shard legs).  All four on-line LP variants of one replicate thus
  colocate on one worker and share banked exact optima keyed by the
  instance's *content* -- and because each content key's bucket history is
  the group's canonical prefix at any worker count, the bank preserves the
  serial/sharded bit-identity invariant instead of breaking it.
* **Serial runs own their bank.**  With ``n_workers=1`` the groups run in
  the calling process on a bank built for that run, so concurrent serial
  campaigns in one process never share one.
* **Streaming collection + crash recovery.**  Each lane holds a few groups
  in flight at a time; completed groups are collected as they finish on
  any lane and appended to an optional
  :class:`~repro.experiments.io.CampaignCheckpoint`, so a killed campaign
  can be resumed without recomputing finished triples; a lane whose worker
  process dies is rebuilt and its unfinished groups re-run.  The returned
  record list is always in canonical task order, independent of completion
  order and of ``n_workers``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.experiments.config import ExperimentConfig
from repro.lp.backends import load_solver
from repro.lp.bank import SolverStateBank
from repro.schedulers.registry import LP_SCHEDULERS, make_scheduler, paper_schedulers
from repro.simulation.engine import simulate
from repro.utils.seeding import derive_seed
from repro.workload.faults import generate_fault_timeline
from repro.workload.generator import generate_instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.io import CampaignCheckpoint

__all__ = [
    "RunRecord",
    "ExperimentResults",
    "CampaignTask",
    "CampaignProgress",
    "campaign_tasks",
    "campaign_meta",
    "run_campaign",
]

#: Default scheduler set: the paper's Table 1 strategies minus Bender98 (whose
#: overhead restricted it to the smallest platforms even in the paper).
DEFAULT_SCHEDULERS: tuple[str, ...] = tuple(paper_schedulers(include_bender98=False))

#: Groups submitted per lane at a time.  Large enough that a worker finishing
#: a cheap group never idles waiting for the collector; bounded because every
#: ``wait(FIRST_COMPLETED)`` walks all outstanding futures, so handing a lane
#: its whole list up front makes the collector quadratic in the group count.
_IN_FLIGHT_PER_WORKER = 4

#: Extra attempts a dispatch unit gets after its worker process dies (OOM
#: kill, SIGKILL, segfault in native code).  A unit whose fresh-worker
#: re-runs also die is genuinely poisonous and aborts the campaign with
#: context rather than looping forever.
_MAX_UNIT_RETRIES = 2


def nan_to_none(values: dict[str, object]) -> dict[str, object]:
    """A copy of ``values`` with non-finite floats replaced by ``None``.

    The single normalization rule shared by :meth:`RunRecord.result_dict`
    and the JSON persistence layer (:mod:`repro.experiments.io`): NaN and
    the infinities have no strict-JSON literal (every sink dumps with
    ``allow_nan=False``), and NaN compares unequal to itself across pickle
    boundaries, so no non-finite value ever leaves a record as a bare
    float.
    """
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in values.items()
    }


@dataclass(frozen=True)
class RunRecord:
    """Raw metrics of one (configuration, replicate, scheduler) run."""

    config: str
    replicate: int
    scheduler: str
    n_jobs: int
    n_clusters: int
    n_databanks: int
    availability: float
    density: float
    max_stretch: float
    sum_stretch: float
    max_flow: float
    sum_flow: float
    makespan: float
    scheduler_time: float
    failed: bool = False

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    def result_dict(self) -> dict[str, object]:
        """The deterministic result fields (drops the wall-clock measurement).

        ``scheduler_time`` is a timing *measurement*, not a simulation
        result, so it is excluded from the bit-identity comparisons between
        serial and sharded campaign runs.  NaN metrics (failed runs) are
        mapped to ``None``: NaN compares unequal to itself once a record has
        crossed a pickle/JSON boundary (dict equality only short-circuits on
        object identity), which would make identically-failed runs look
        different.
        """
        values = asdict(self)
        del values["scheduler_time"]
        return nan_to_none(values)


class ExperimentResults:
    """A flat collection of :class:`RunRecord` with filtering helpers."""

    def __init__(self, records: Iterable[RunRecord] = ()):
        self.records: list[RunRecord] = list(records)
        #: Per-stage wall-clock of the producing campaign run (``dispatch`` /
        #: ``compute`` / ``journal``), filled in by
        #: :func:`run_campaign`; empty for derived or merged result sets.
        self.stage_seconds: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self.records.extend(records)

    def schedulers(self) -> list[str]:
        """Scheduler names present, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.scheduler, None)
        return list(seen)

    def filter(self, predicate: Callable[[RunRecord], bool]) -> "ExperimentResults":
        """A new result set containing the records matching ``predicate``."""
        return ExperimentResults(r for r in self.records if predicate(r))

    def by_sites(self, n_clusters: int) -> "ExperimentResults":
        return self.filter(lambda r: r.n_clusters == n_clusters)

    def by_databases(self, n_databanks: int) -> "ExperimentResults":
        return self.filter(lambda r: r.n_databanks == n_databanks)

    def by_availability(self, availability: float) -> "ExperimentResults":
        return self.filter(lambda r: math.isclose(r.availability, availability))

    def by_density(self, density: float) -> "ExperimentResults":
        return self.filter(lambda r: math.isclose(r.density, density))

    def instances(self) -> list[tuple[str, int]]:
        """All (configuration, replicate) pairs present."""
        seen: dict[tuple[str, int], None] = {}
        for record in self.records:
            seen.setdefault((record.config, record.replicate), None)
        return list(seen)

    def result_set(self) -> list[dict[str, object]]:
        """Order-independent deterministic view of the record set.

        Sorted by (configuration, replicate, scheduler) with the timing
        measurements dropped; two campaign runs over the same design are
        *bit-identical* exactly when their ``result_set()`` compare equal,
        regardless of worker count or completion order.
        """
        return sorted(
            (record.result_dict() for record in self.records),
            key=lambda d: (d["config"], d["replicate"], d["scheduler"]),
        )


@dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work: one scheduler on one realized instance."""

    config: ExperimentConfig
    replicate: int
    scheduler_key: str
    seed: int

    @property
    def triple(self) -> tuple[str, int, str]:
        """The (configuration name, replicate, scheduler key) identity."""
        return (self.config.name, self.replicate, self.scheduler_key)


@dataclass(frozen=True)
class CampaignProgress:
    """Progress snapshot handed to the ``progress`` callback after each task.

    ``rate`` and ``eta_seconds`` are computed over the tasks executed in
    *this* process invocation (checkpoint-restored tasks are excluded so a
    resumed campaign does not report a fantasy throughput).
    """

    completed: int
    total: int
    triple: tuple[str, int, str]
    elapsed_seconds: float
    rate: float
    eta_seconds: float

    def __str__(self) -> str:
        config, replicate, scheduler = self.triple
        return (
            f"[{self.completed}/{self.total}] {config} r{replicate} {scheduler} "
            f"({self.rate:.1f} tasks/s, eta {self.eta_seconds:.0f}s)"
        )


def campaign_tasks(
    configs: Sequence[ExperimentConfig],
    scheduler_keys: Sequence[str] = DEFAULT_SCHEDULERS,
    replicates: int = 5,
    base_seed: int = 2006,
) -> list[CampaignTask]:
    """The campaign's task list in canonical order.

    Scheduler-innermost, so the tasks sharing one realized instance are
    adjacent (one dispatch group each) and the canonical record order
    matches the historical serial runner.
    """
    tasks: list[CampaignTask] = []
    for config in configs:
        for replicate in range(replicates):
            seed = derive_seed(base_seed, config.name, replicate)
            for key in scheduler_keys:
                tasks.append(CampaignTask(config, replicate, key, seed))
    return tasks


def campaign_meta(
    configs: Sequence[ExperimentConfig],
    scheduler_keys: Sequence[str] = DEFAULT_SCHEDULERS,
    replicates: int = 5,
    base_seed: int = 2006,
    scheduler_options: Mapping[str, Mapping[str, object]] | None = None,
) -> dict[str, object]:
    """The campaign's identity header, shared by checkpoints and shard journals.

    The full design, not just names: two campaigns sharing config names but
    differing in window/max_jobs/replan knobs produce different records, and
    resuming (or merging) across them must be rejected.  The
    ``resolved_backends`` entry is the constant ``["highs"]``, the one LP
    engine, so a journal the removed scipy backend recorded never resumes.
    The result is normalized through JSON so a comparison
    against a reloaded header cannot reject its own campaign (e.g. tuples
    becoming lists).
    """
    meta = {
        "base_seed": int(base_seed),
        "replicates": int(replicates),
        "scheduler_keys": list(scheduler_keys),
        "configs": [config.as_dict() for config in configs],
        "resolved_backends": ["highs"],
        "scheduler_options": (
            {key: dict(value) for key, value in scheduler_options.items()}
            if scheduler_options
            else None
        ),
    }
    try:
        return json.loads(json.dumps(meta, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise ReproError(
            "campaign checkpoints require JSON-serializable "
            f"scheduler_options: {exc}"
        ) from None


# -- per-worker state ---------------------------------------------------------------


#: The pool process's cross-run solver-state bank (content-addressed, see
#: :mod:`repro.lp.bank`), set by :func:`_init_worker` and handed to the
#: schedulers whose configuration enables ``state_bank``.  Only pool
#: processes have one: a serial run builds its own bank.
_WORKER_BANK: SolverStateBank | None = None


#: How often a pool worker checks that the campaign process is still alive.
_PARENT_POLL_SECONDS = 0.25


def _init_worker() -> None:
    """Pool initializer: give the worker its long-lived bank up front.

    The worker also exits once the campaign process that started it is
    gone.  A campaign killed by SIGKILL cannot shut its pools down, and its
    workers would otherwise sleep on their call queues forever (their
    siblings keep the queues' pipes open, so no read ever ends).
    """
    global _WORKER_BANK
    _WORKER_BANK = SolverStateBank()
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.pid,), name="exit-with-parent", daemon=True
        ).start()


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this process as soon as ``parent_pid`` is no longer its parent."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _run_one(
    bank: SolverStateBank,
    config: ExperimentConfig,
    instance: Instance,
    replicate: int,
    scheduler_key: str,
    seed: int,
    scheduler_options: Mapping[str, Mapping[str, object]] | None,
) -> RunRecord:
    """Run one scheduler on the group's realized ``instance``."""
    # Configuration-level replanning knobs first, then explicit per-key
    # options so callers can still override them.
    options = config.scheduler_options_for(scheduler_key)
    options.update((scheduler_options or {}).get(scheduler_key, {}))
    # The configuration carries the bank toggle as a plain bool; the worker
    # is the only place a live bank exists, so translate it here.
    bank_flag = options.get("state_bank")
    if isinstance(bank_flag, bool):
        options["state_bank"] = bank if bank_flag else None
    scheduler = make_scheduler(scheduler_key, **options)
    # The availability axis: a seeded fault timeline derived from the
    # replicate seed, regenerated identically wherever the task runs.  With
    # the axis off, `faults` stays None and the engine path is untouched.
    faults = None
    fault_spec = config.fault_spec()
    if fault_spec is not None:
        faults = generate_fault_timeline(
            instance.platform, fault_spec, rng=derive_seed(seed, "faults")
        )
    failed = False
    try:
        result = simulate(instance, scheduler, faults=faults)
        values = result.metrics_row()
        values["scheduler_time"] = result.scheduler_time
    except ReproError:
        # A scheduler failure -- an LP numerical breakdown on a corner case,
        # a terminal SolverError that survived the retry/downgrade chain, or
        # a fault axis paired with a non-fault-aware scheduler -- is
        # recorded as a NaN-metrics `failed` record instead of aborting the
        # whole campaign (or this worker's group future).
        failed = True
        values = dict(
            max_stretch=math.nan,
            sum_stretch=math.nan,
            max_flow=math.nan,
            sum_flow=math.nan,
            makespan=math.nan,
            scheduler_time=math.nan,
        )
    return RunRecord(
        config=config.name,
        replicate=replicate,
        scheduler=scheduler.name,
        n_jobs=instance.n_jobs,
        n_clusters=config.n_clusters,
        n_databanks=config.n_databanks,
        availability=config.availability,
        density=config.density,
        failed=failed,
        **values,
    )


def _run_task_group(
    bank: SolverStateBank,
    config: ExperimentConfig,
    replicate: int,
    seed: int,
    scheduler_keys: Sequence[str],
    scheduler_options: Mapping[str, Mapping[str, object]] | None,
) -> tuple[list[RunRecord], float]:
    """Run the schedulers of one (configuration, replicate) group with ``bank``.

    The instance is realized once, each scheduler runs back to back in the
    canonical order, and the call returns ``(records, compute_seconds)``.
    """
    t_compute = time.perf_counter()
    instance = generate_instance(config.platform_spec(), config.workload_spec(), rng=seed)
    records = [
        _run_one(bank, config, instance, replicate, key, seed, scheduler_options)
        for key in scheduler_keys
    ]
    return records, time.perf_counter() - t_compute


def _run_in_worker(*args: object) -> tuple[list[RunRecord], float]:
    """Pool entry point: :func:`_run_task_group` with the pool process's bank."""
    assert _WORKER_BANK is not None, "pool worker started without _init_worker"
    return _run_task_group(_WORKER_BANK, *args)


class _CampaignRun:
    """Bookkeeping of one :func:`run_campaign` invocation (streaming collection)."""

    def __init__(
        self,
        tasks: Sequence[CampaignTask],
        checkpoint: "CampaignCheckpoint | None",
        progress: Callable[[CampaignProgress], None] | None,
    ):
        self.tasks = tasks
        self.checkpoint = checkpoint
        self.progress = progress
        self.slots: list[RunRecord | None] = [None] * len(tasks)
        self.completed = 0
        self.completed_live = 0
        self.started = time.perf_counter()
        #: Cumulative per-stage wall-clock of this run (the ``--profile``
        #: breakdown): ``dispatch`` = submitting futures, ``compute`` =
        #: worker-side scheduler runs, ``journal`` = checkpoint writes.
        self.stage_seconds: dict[str, float] = {
            "dispatch": 0.0,
            "compute": 0.0,
            "journal": 0.0,
        }

    def restore(self, index: int, record: RunRecord) -> None:
        """Adopt a checkpoint-restored record (not re-announced per task)."""
        self.slots[index] = record
        self.completed += 1

    def _announce(self, index: int, record: RunRecord) -> None:
        self.slots[index] = record
        self.completed += 1
        self.completed_live += 1
        if self.progress is not None:
            elapsed = time.perf_counter() - self.started
            rate = self.completed_live / elapsed if elapsed > 0 else 0.0
            remaining = len(self.tasks) - self.completed
            self.progress(
                CampaignProgress(
                    completed=self.completed,
                    total=len(self.tasks),
                    triple=self.tasks[index].triple,
                    elapsed_seconds=elapsed,
                    rate=rate,
                    eta_seconds=remaining / rate if rate > 0 else math.inf,
                )
            )

    def finish_group(
        self,
        indices: Sequence[int],
        records: Sequence[RunRecord],
        compute_seconds: float,
    ) -> None:
        """Adopt one group's records: journal them once, then announce each.

        The group's journal lines are written in one batch with a single
        flush (:meth:`~repro.experiments.io.CampaignCheckpoint.append_batch`)
        -- the group boundary is the durability boundary, and the
        truncated-line sealing of ``open_append`` keeps a kill mid-batch
        resumable exactly once.
        """
        self.stage_seconds["compute"] += compute_seconds
        if self.checkpoint is not None:
            t_journal = time.perf_counter()
            self.checkpoint.append_batch(
                [
                    (self.tasks[index].scheduler_key, record)
                    for index, record in zip(indices, records)
                ]
            )
            self.stage_seconds["journal"] += time.perf_counter() - t_journal
        for index, record in zip(indices, records):
            self._announce(index, record)

    def results(self) -> ExperimentResults:
        assert all(record is not None for record in self.slots)
        results = ExperimentResults(self.slots)  # type: ignore[arg-type]
        results.stage_seconds = dict(self.stage_seconds)
        return results


def run_campaign(
    configs: Sequence[ExperimentConfig],
    *,
    scheduler_keys: Sequence[str] = DEFAULT_SCHEDULERS,
    replicates: int = 5,
    base_seed: int = 2006,
    n_workers: int = 1,
    scheduler_options: Mapping[str, Mapping[str, object]] | None = None,
    progress: Callable[[CampaignProgress], None] | None = None,
    checkpoint: "CampaignCheckpoint | str | Path | None" = None,
    resume: bool = False,
    shard: "object | str | None" = None,
) -> ExperimentResults:
    """Run a whole campaign (all configurations x replicates x schedulers).

    Parameters
    ----------
    configs:
        The experimental design (e.g. :func:`paper_configurations`).
    scheduler_keys:
        Registry keys of the strategies to evaluate.
    replicates:
        Number of random instances per configuration.
    base_seed:
        Root of the seed derivation; the same (configuration, replicate)
        always sees the same instance.
    n_workers:
        Number of worker processes.  ``1`` (default) runs everything in the
        calling process, with a solver-state bank owned by this call
        alone; larger values run whole ``(configuration, replicate)``
        groups on per-worker *lanes* (one single-process pool each), each
        group dealt to a fixed lane by first appearance -- so every worker
        keeps its cross-run solver-state bank effective across the
        schedulers of its replicates.  The returned record set
        is bit-identical (up to the ``scheduler_time`` measurement) for
        every worker count, bank on or off.
    scheduler_options:
        Optional per-scheduler-key constructor options (e.g.
        ``{"bender98": {"max_jobs_per_resolution": 30}}``).  Must be
        picklable when ``n_workers > 1``.
    progress:
        Optional callback invoked with a :class:`CampaignProgress` (renders
        as a short ``[done/total] ... eta`` message) after each completed
        task.
    checkpoint:
        Optional :class:`~repro.experiments.io.CampaignCheckpoint` (or a
        path) to which completed records are appended as they stream in.
    resume:
        With a ``checkpoint`` whose file already exists, load it and skip
        every (configuration, replicate, scheduler) triple it already
        contains.  Without ``resume``, an existing checkpoint file is an
        error (never silently overwritten or duplicated).
    shard:
        Optional :class:`~repro.experiments.sharding.ShardPlan` (or an
        ``"i/N"`` spec string) restricting this invocation to one
        deterministic slice of the design.  The checkpoint header records
        the shard identity, so a shard journal can only resume its own
        slice; :func:`~repro.experiments.merge.merge_journals` reunites the
        N slices into the full record set.

    Returns
    -------
    ExperimentResults
        The record set in canonical task order: per-run metrics plus
        aggregation/table helpers.
    """
    tasks = campaign_tasks(configs, scheduler_keys, replicates, base_seed)

    plan = None
    if shard is not None:
        # Imported here: sharding imports CampaignTask from this module.
        from repro.experiments.sharding import ShardPlan

        plan = shard if isinstance(shard, ShardPlan) else ShardPlan.parse(shard)
        tasks = plan.select(tasks)

    ckpt: "CampaignCheckpoint | None" = None
    restored: dict[tuple[str, int, str], RunRecord] = {}
    meta: dict[str, object] | None = None
    if checkpoint is not None:
        # The journal identifies work by triple, so a checkpointed design
        # must be triple-unique; plain runs tolerate duplicates (they just
        # produce duplicate records, as the historical runner did).
        if len({task.triple for task in tasks}) != len(tasks):
            raise ReproError(
                "campaign design contains duplicate (config, replicate, "
                "scheduler) triples: configuration names and scheduler keys "
                "must each be unique when checkpointing"
            )
        # Imported here: experiments.io imports RunRecord from this module.
        from repro.experiments.io import CampaignCheckpoint

        ckpt = (
            checkpoint
            if isinstance(checkpoint, CampaignCheckpoint)
            else CampaignCheckpoint(checkpoint)
        )
        meta = campaign_meta(
            configs, scheduler_keys, replicates, base_seed, scheduler_options
        )
        if plan is not None:
            meta["shard"] = plan.meta_entry()
        # A file holding nothing restorable (missing, empty, or a header
        # truncated by a kill) is started over; only a populated journal
        # demands the explicit resume opt-in.
        if resume:
            restored = ckpt.load(expect_meta=meta)  # {} when nothing restorable
        elif not ckpt.effectively_empty():
            raise ReproError(
                f"checkpoint {ckpt.path} already exists; pass resume=True "
                "(CLI: --resume) to continue it, or remove the file"
            )
    elif resume:
        raise ReproError("resume=True requires a checkpoint")

    run = _CampaignRun(tasks, ckpt, progress)
    pending: list[int] = []
    for i, task in enumerate(tasks):
        record = restored.get(task.triple)
        if record is not None:
            run.restore(i, record)
        else:
            pending.append(i)

    if ckpt is not None:
        if pending or ckpt.effectively_empty():
            # A fresh journal gets its header even when there is nothing to
            # run (an empty shard leg must still leave a mergeable journal
            # accounting for its slice).
            ckpt.open_append(meta)
        else:
            # The journal is already complete: nothing will be appended, so
            # leave the file untouched (callers detect the no-op through the
            # absence of progress events and report "nothing to do").
            run.checkpoint = None

    try:
        if n_workers <= 1:
            # This run's own bank: another serial run in this process (a
            # second thread) must not share it.
            bank = SolverStateBank()
            for unit in _group_pending(tasks, pending):
                records, compute_seconds = _run_task_group(
                    bank, *_group_args(tasks, unit, scheduler_options)
                )
                run.finish_group(unit, records, compute_seconds)
        elif pending:  # a fully-restored resume never pays for a pool
            _run_pooled(run, pending, n_workers, scheduler_options)
    finally:
        if ckpt is not None:
            ckpt.close()
    return run.results()


def _group_pending(
    tasks: Sequence[CampaignTask], pending: Sequence[int]
) -> list[list[int]]:
    """Contiguous runs of pending indices sharing one (configuration, replicate).

    ``pending`` is in canonical (scheduler-innermost) order, so the not-yet-
    computed tasks of one realized instance are adjacent; after a resume, a
    partially-journaled group simply yields a shorter run covering only its
    missing schedulers.
    """
    groups: list[list[int]] = []
    current_key: tuple[str, int] | None = None
    for index in pending:
        task = tasks[index]
        key = (task.config.name, task.replicate)
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append(index)
    return groups


def _lane_assignments(tasks: Sequence[CampaignTask], n_workers: int) -> list[int]:
    """The worker lane of every task: whole instance groups, dealt round-robin.

    Groups are ``(configuration name, replicate)`` -- one realized instance
    each -- numbered by first appearance over the *full* canonical task list
    and dealt modulo ``n_workers`` (the same rule
    :class:`~repro.experiments.sharding.ShardPlan` uses across shard legs,
    so placement is resume-stable: restored tasks still consume their
    group's position).  Keeping a group whole on one lane is what gives the
    worker's solver bank its hit rate, and what makes
    every bank bucket's history independent of the worker count.
    """
    lanes: list[int] = []
    group_lane: dict[tuple[str, int], int] = {}
    for task in tasks:
        group = (task.config.name, task.replicate)
        lane = group_lane.get(group)
        if lane is None:
            lane = len(group_lane) % n_workers
            group_lane[group] = lane
        lanes.append(lane)
    return lanes


def _group_args(
    tasks: Sequence[CampaignTask],
    unit: Sequence[int],
    scheduler_options: Mapping[str, Mapping[str, object]] | None,
) -> tuple:
    """The :func:`_run_task_group` arguments (after ``bank``) of one group."""
    first = tasks[unit[0]]
    return (
        first.config,
        first.replicate,
        first.seed,
        tuple(tasks[index].scheduler_key for index in unit),
        scheduler_options,
    )


def _run_pooled(
    run: _CampaignRun,
    pending: Sequence[int],
    n_workers: int,
    scheduler_options: Mapping[str, Mapping[str, object]] | None,
) -> None:
    """Run the ``pending`` groups on per-lane single-worker pools.

    Each lane is a dedicated one-process pool fed its groups in canonical
    order, ``_IN_FLIGHT_PER_WORKER`` at a time: the pool runs them one call
    at a time on its single long-lived worker, so a lane executes exactly in
    serial order (replicate affinity), and the lane's next group is
    submitted as the collector adopts a finished one.  Collection uses
    ``wait(FIRST_COMPLETED)`` across all lanes, so records are checkpointed
    and reported the moment their group finishes -- a straggler lane blocks
    neither the progress stream nor the other lanes.

    A lane whose worker process dies (OOM killer, SIGKILL, native crash)
    surfaces as :class:`BrokenProcessPool` on its submitted futures, or from
    ``pool.submit`` itself when the worker died since the lane's last
    collection (the group being submitted then goes back on the backlog).
    The broken pool is discarded and the lane's in-flight groups go back to
    the front of its backlog for a fresh pool.  Only the lowest-index one is
    charged a retry: with one worker running the lane FIFO, it is the group
    that was running when the worker died (none is charged when the lane had
    nothing in flight).  Results are unaffected -- groups are
    deterministic in the replicate seed and the bank only ever reuses exact
    optima -- so recovery preserves the any-worker-count bit-identity
    invariant; a group gets at most ``_MAX_UNIT_RETRIES`` fresh-worker
    re-runs before the campaign aborts with the poisonous group named.
    """
    tasks = run.tasks
    lanes = _lane_assignments(tasks, n_workers)
    # Every index of a group shares its lane by construction (lanes are
    # dealt per (configuration, replicate) group).  Backlogs are stored in
    # reverse canonical order, so ``pop()`` yields a lane's next group.  A
    # lane with no pending group (fewer groups than workers, a
    # mostly-restored resume) never starts a process.
    backlogs: dict[int, list[list[int]]] = {}
    for unit in reversed(_group_pending(tasks, pending)):
        backlogs.setdefault(lanes[unit[0]], []).append(unit)
    if any(tasks[index].scheduler_key.lower() in LP_SCHEDULERS for index in pending):
        # Forked workers inherit the loaded solver instead of each importing it.
        load_solver()

    pools: dict[int, ProcessPoolExecutor] = {}
    unfinished: dict[Future, list[int]] = {}
    retries: dict[int, int] = {}

    def submit_next(lane: int) -> None:
        backlog = backlogs[lane]
        if not backlog:
            return
        pool = pools.get(lane)
        if pool is None:
            pool = pools[lane] = ProcessPoolExecutor(
                max_workers=1, initializer=_init_worker
            )
        unit = backlog.pop()
        t_submit = time.perf_counter()
        try:
            future = pool.submit(_run_in_worker, *_group_args(tasks, unit, scheduler_options))
        except BrokenProcessPool:
            backlog.append(unit)
            recover_lane(lane)
            return
        run.stage_seconds["dispatch"] += time.perf_counter() - t_submit
        unfinished[future] = unit

    def recover_lane(lane: int) -> None:
        """Rebuild a lane whose worker died; charge the group it was running."""
        lost = [f for f, unit in unfinished.items() if lanes[unit[0]] == lane]
        stranded = sorted((unfinished.pop(f) for f in lost), key=lambda unit: unit[0])
        if stranded:
            crashed = stranded[0][0]
            count = retries.get(crashed, 0) + 1
            if count > _MAX_UNIT_RETRIES:
                raise ReproError(
                    f"campaign unit {tasks[crashed].triple} crashed its worker "
                    f"{count} times; aborting (raise _MAX_UNIT_RETRIES "
                    "or investigate the instance)"
                )
            retries[crashed] = count
        pools.pop(lane).shutdown(wait=False, cancel_futures=True)
        backlogs[lane].extend(reversed(stranded))
        for _ in range(_IN_FLIGHT_PER_WORKER):
            submit_next(lane)

    try:
        for lane in backlogs:
            for _ in range(_IN_FLIGHT_PER_WORKER):
                submit_next(lane)
        while unfinished:
            done, _ = wait(unfinished, return_when=FIRST_COMPLETED)
            # Canonical order: a lane's finished groups are adopted before
            # the crash of the group that followed them is handled.
            for future in sorted(done, key=lambda f: unfinished[f][0]):
                unit = unfinished.get(future)
                if unit is None:
                    continue  # re-run by a lane recovery earlier this round
                try:
                    records, compute_seconds = future.result()
                except BrokenProcessPool:
                    recover_lane(lanes[unit[0]])
                    continue
                del unfinished[future]
                submit_next(lanes[unit[0]])
                run.finish_group(unit, records, compute_seconds)
    finally:
        for pool in pools.values():
            pool.shutdown(wait=True, cancel_futures=True)
