"""The streaming-arrival scheduler daemon.

:class:`SchedulerDaemon` runs the fluid simulation engine on a background
thread against a :class:`~repro.core.instance.LiveInstance` fed by a
:class:`~repro.service.stream.StreamingSource`.  Ingestion threads (HTTP
handlers, JSONL readers, direct :meth:`SchedulerDaemon.submit` calls) admit
jobs while the engine runs; the engine sees each submission exactly at the
release date the admission clock assigned, and every accepted submission is
journaled to a replayable :class:`~repro.service.trace.SubmissionTrace`.

The determinism contract lives here too: :func:`replay_trace` feeds a
journaled trace back through the service loop (incremental delivery, live
instance growth) and :func:`batch_reference` runs plain ``simulate()`` on
the reconstructed batch instance; :func:`verify_replay` asserts the two
schedules are *bit-identical* -- exact float equality on every work slice
and completion date.  This is what the ingestion tests and the CI
service-smoke step check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.instance import LiveInstance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.lp.backends import load_solver
from repro.schedulers.registry import LP_SCHEDULERS, SERVICE_SCHEDULERS, RunOptions, make_scheduler
from repro.service.ingest import IngestReport, SubmissionRequest, ingest_lines
from repro.service.stream import StreamingSource
from repro.service.trace import AdmissionError, ServiceError, SubmissionTrace, TraceWriter
from repro.simulation.engine import SimulationEngine, simulate
from repro.simulation.result import SimulationResult
from repro.simulation.source import TraceSource

__all__ = [
    "ServiceConfig",
    "SchedulerDaemon",
    "ReplayCheck",
    "replay_trace",
    "batch_reference",
    "verify_replay",
]

#: Replans observed before the latency valve may shed: a cold daemon's first
#: few solves include import and model-build costs that say nothing about
#: steady-state replan latency.
_SHED_MIN_REPLANS = 5


@dataclass(frozen=True)
class ServiceConfig(RunOptions):
    """Configuration of one daemon run.

    The replan policy is the inherited
    :class:`~repro.schedulers.registry.RunOptions` field (keyword-only).  The
    cross-run solver-state bank is deliberately absent: it is a
    campaign-layer accelerator with no meaning for a single resident daemon.

    ``scheduler`` must be service-safe (``SERVICE_SCHEDULERS``): strategies
    whose ``reset`` reads whole-instance quantities (the clairvoyant
    off-line optima, the Bender heuristics and their ``Δ``) cannot run
    against an instance that grows while they schedule.

    ``time_scale`` is the admission clock discipline of
    :class:`~repro.service.stream.StreamingSource`: ``0`` free-runs (tests,
    replay verification), ``> 0`` paces virtual time against the wall clock.

    ``max_pending`` and ``shed_replan_p99`` form the admission valve: a
    submission arriving while more than ``max_pending`` admitted jobs are
    still waiting for delivery, or while the replan-latency p99 (from the
    live telemetry) exceeds the target, is *shed* --
    :class:`~repro.service.trace.AdmissionError`, HTTP ``503`` with a
    ``Retry-After`` of ``retry_after`` seconds.  Shedding protects the
    latency of the jobs already admitted; both knobs default to off
    (``None``), preserving the accept-everything behaviour.
    """

    scheduler: str = "online"
    time_scale: float = 0.0
    journal: "str | Path | None" = None
    record_events: bool = False
    max_pending: int | None = None
    shed_replan_p99: float | None = None
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        key = self.scheduler.lower()
        if key not in SERVICE_SCHEDULERS:
            raise ServiceError(
                f"scheduler {self.scheduler!r} is not service-safe; choose one of: "
                + ", ".join(sorted(SERVICE_SCHEDULERS))
            )
        object.__setattr__(self, "scheduler", key)
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ServiceError(str(exc)) from None
        if self.time_scale < 0:
            raise ServiceError(f"time_scale must be >= 0, got {self.time_scale}")
        if self.max_pending is not None and self.max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.shed_replan_p99 is not None and self.shed_replan_p99 <= 0:
            raise ServiceError(
                f"shed_replan_p99 must be > 0, got {self.shed_replan_p99}"
            )
        if self.retry_after <= 0:
            raise ServiceError(f"retry_after must be > 0, got {self.retry_after}")


class SchedulerDaemon:
    """A resident scheduler: live instance + engine thread + admission clock.

    Lifecycle::

        daemon = SchedulerDaemon(platform, ServiceConfig(journal="run.jsonl"))
        daemon.start()
        daemon.submit(SubmissionRequest(size=120.0, databank="SWISS-PROT"))
        ...
        daemon.close_submissions()   # drain: no further admissions
        result = daemon.join()       # the finished SimulationResult

    Thread model: ``submit``/``ingest`` may be called from any number of
    threads; the release date, the live-instance growth and the journal
    append happen atomically under the streaming source's lock, so the
    engine can never advance past a release it has not seen.  Telemetry is
    refreshed by the engine thread at every source pull and read under its
    own lock, so :meth:`telemetry` never touches simulation state directly.
    """

    def __init__(self, platform: Platform, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.instance = LiveInstance(platform)
        self.source = StreamingSource(
            time_scale=self.config.time_scale, on_pull=self._refresh_telemetry
        )
        # Bank-less, so plain strings: these also go into the trace header.
        options = self.config.scheduler_options_for(self.config.scheduler)
        self.scheduler = make_scheduler(self.config.scheduler, **options)
        if self.config.scheduler in LP_SCHEDULERS:
            # At boot, so that no submission waits for the solver import.
            load_solver()
        self.engine = SimulationEngine(
            self.instance,
            self.scheduler,
            record_events=self.config.record_events,
            source=self.source,
        )
        self._writer: TraceWriter | None = None
        if self.config.journal is not None:
            self._writer = TraceWriter(
                self.config.journal,
                SubmissionTrace(
                    platform=platform,
                    scheduler=self.config.scheduler,
                    scheduler_options=options,
                    time_scale=self.config.time_scale,
                ),
            )
        self._admit_lock = threading.Lock()
        self._next_id = 0
        self._client_ids: set[str] = set()
        self._accepted = 0
        self._rejected = 0
        self._shed = 0
        self._telemetry_lock = threading.Lock()
        self._snapshot: dict[str, Any] = {
            "time": 0.0,
            "n_active": 0,
            "n_completed": 0,
            "queue_depth_by_databank": {},
            "max_stretch_objective": None,
            "assignment": {},
        }
        self._thread: threading.Thread | None = None
        self._result: SimulationResult | None = None
        self._error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Launch the engine thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run_engine, name="repro-scheduler-daemon", daemon=True
        )
        self._thread.start()

    def _run_engine(self) -> None:
        try:
            self._result = self.engine.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced by join()
            self._error = exc
        finally:
            if self._writer is not None:
                self._writer.close()

    def close_submissions(self) -> None:
        """Stop accepting; the engine drains what was admitted and finishes."""
        self.source.close()

    def join(self, timeout: float | None = None) -> SimulationResult:
        """Wait for the engine to finish and return its result.

        Raises :class:`ServiceError` if the daemon was never started or is
        still running after ``timeout``; re-raises the engine's exception
        if the run failed.
        """
        if self._thread is None:
            raise ServiceError("daemon was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServiceError("daemon is still running (submissions not closed?)")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self) -> SimulationResult:
        """Convenience: close submissions and join."""
        self.close_submissions()
        return self.join()

    # -- admission ---------------------------------------------------------------
    def _check_admission(self) -> None:
        """The load-shedding valve; raises :class:`AdmissionError` to shed.

        Two independent triggers, both optional (see :class:`ServiceConfig`):
        a bounded count of admitted-but-undelivered jobs, and the live
        replan-latency p99 exceeding its target (only once
        ``_SHED_MIN_REPLANS`` replans have been observed, so a cold daemon
        never sheds on one slow warm-up solve).
        """
        config = self.config
        if config.max_pending is not None:
            pending = self.source.pending_count()
            if pending >= config.max_pending:
                raise AdmissionError(
                    f"queue full ({pending} pending >= max_pending="
                    f"{config.max_pending})",
                    retry_after=config.retry_after,
                )
        if config.shed_replan_p99 is not None:
            stats = self.engine.lp_stats
            if stats is not None and len(stats.replan_latencies) >= _SHED_MIN_REPLANS:
                p99 = stats.replan_percentile(99)
                if p99 > config.shed_replan_p99:
                    raise AdmissionError(
                        f"replan latency over target (p99 {p99:.4f}s > "
                        f"{config.shed_replan_p99}s)",
                        retry_after=config.retry_after,
                    )

    def submit(self, request: SubmissionRequest) -> tuple[int, float]:
        """Admit one validated submission; returns ``(job_id, release)``.

        Raises ``ValueError`` on a duplicate ``client_id`` or an unhosted
        databank, :class:`AdmissionError` when the admission valve sheds
        the request (overload -- retryable), plain :class:`ServiceError`
        once the stream is closed (draining -- not retryable).  Any
        rejection leaves all previously admitted jobs untouched.
        """
        with self._admit_lock:
            if not self.source.closed:
                # Draining outranks shedding: a closed stream must surface
                # as the permanent condition, not a transient 503.
                try:
                    self._check_admission()
                except AdmissionError:
                    self._shed += 1
                    self._rejected += 1
                    raise
            if request.client_id is not None and request.client_id in self._client_ids:
                self._rejected += 1
                raise ValueError(f"duplicate client_id {request.client_id!r}")
            if not self.instance.platform.machines_hosting(request.databank):
                self._rejected += 1
                raise ValueError(
                    f"databank {request.databank!r} is hosted on no machine"
                )
            job_id = self._next_id

            def build(release: float) -> Job:
                job = Job(
                    job_id=job_id,
                    release=release,
                    size=request.size,
                    databank=request.databank,
                    weight=request.weight,
                    name=request.name,
                )
                # Under the source lock: the engine cannot observe the job
                # until instance growth and journaling are both complete.
                self.instance.admit(job)
                if self._writer is not None:
                    self._writer.append(job)
                return job

            try:
                job = self.source.submit(build)
            except ServiceError:
                self._rejected += 1
                raise
            self._next_id += 1
            if request.client_id is not None:
                self._client_ids.add(request.client_id)
            self._accepted += 1
            return job.job_id, job.release

    def ingest(self, lines: Iterable[str]) -> IngestReport:
        """Feed a JSONL window through admission with per-record accounting.

        Malformed and duplicate lines are rejected (and counted in the
        report and the daemon's totals) without stopping the window, killing
        the daemon, or perturbing the jobs already admitted.
        """
        before = self._rejected

        def admit(request: SubmissionRequest) -> tuple[int, float]:
            return self.submit(request)

        report = ingest_lines(lines, admit)
        # ``submit`` counted its own rejections (duplicates, unhosted
        # databanks); parse-level rejections never reached it.
        parse_rejections = report.rejected - (self._rejected - before)
        if parse_rejections > 0:
            with self._admit_lock:
                self._rejected += parse_rejections
        return report

    # -- telemetry ---------------------------------------------------------------
    def _refresh_telemetry(self) -> None:
        """Engine-thread hook (every source pull): snapshot the live state."""
        state = self.engine.state
        by_databank: dict[str, int] = {}
        for runtime in state.active.values():
            key = runtime.job.databank or ""
            by_databank[key] = by_databank.get(key, 0) + 1
        snapshot = {
            "time": state.time,
            "n_active": len(state.active),
            "n_completed": len(state.completions),
            "queue_depth_by_databank": by_databank,
            "max_stretch_objective": getattr(self.scheduler, "last_objective", None),
            "assignment": dict(self.engine.last_assignment),
        }
        with self._telemetry_lock:
            self._snapshot = snapshot

    def telemetry(self) -> dict[str, Any]:
        """The JSON-ready telemetry document served by ``GET /telemetry``.

        Carries the current max-stretch objective ``S*`` (``None`` for
        LP-free schedulers), the LP probe-elimination histogram, per-databank
        queue depths and the replan-latency percentiles, plus admission
        counters.
        """
        with self._telemetry_lock:
            snapshot = dict(self._snapshot)
        stats = self.engine.lp_stats
        lp: dict[str, Any] = {
            "n_probes": 0,
            "solve_seconds": 0.0,
            "histogram": {},
            "n_replans": 0,
            "replan_latency_p50": 0.0,
            "replan_latency_p90": 0.0,
            "replan_latency_p99": 0.0,
        }
        if stats is not None:
            lp = {
                "n_probes": stats.n_probes,
                "solve_seconds": stats.solve_seconds,
                "histogram": stats.histogram(),
                "n_replans": stats.n_replans,
                "replan_latency_p50": stats.replan_percentile(50),
                "replan_latency_p90": stats.replan_percentile(90),
                "replan_latency_p99": stats.replan_percentile(99),
            }
        with self._admit_lock:
            accepted, rejected, shed = self._accepted, self._rejected, self._shed
        return {
            "scheduler": self.config.scheduler,
            "running": self.running,
            "accepted": accepted,
            "rejected": rejected,
            "shed": shed,
            "pending": self.source.pending_count(),
            "virtual_now": self.source.virtual_now(),
            "closed": self.source.closed,
            "lp": lp,
            **snapshot,
        }

    def healthz(self) -> dict[str, Any]:
        """The liveness/readiness document served by ``GET /healthz``.

        ``status`` is ``accepting`` (ready for submissions), ``draining``
        (stream closed, engine finishing what was admitted), ``stopped``
        (engine finished cleanly) or ``failed`` (engine raised; the error
        string is included).  Cheap by construction -- counters and flags
        only, no simulation state is touched.
        """
        if self._error is not None:
            status = "failed"
        elif self._thread is not None and not self._thread.is_alive():
            status = "stopped"
        elif self.source.closed:
            status = "draining"
        else:
            status = "accepting"
        with self._admit_lock:
            accepted, shed = self._accepted, self._shed
        doc: dict[str, Any] = {
            "status": status,
            "running": self.running,
            "accepted": accepted,
            "shed": shed,
            "pending": self.source.pending_count(),
        }
        if self._error is not None:
            doc["error"] = f"{type(self._error).__name__}: {self._error}"
        return doc


# -- the determinism contract -------------------------------------------------------
def replay_trace(
    trace: SubmissionTrace, *, record_events: bool = False
) -> SimulationResult:
    """Re-run a journaled trace through the *service* path.

    The jobs flow through a :class:`~repro.simulation.source.TraceSource`
    growing a fresh :class:`~repro.core.instance.LiveInstance`, exactly as
    the daemon's engine saw them -- incremental delivery, incremental
    LP-table growth and all.
    """
    live = LiveInstance(trace.platform)
    source = TraceSource(trace.jobs, live_instance=live)
    scheduler = make_scheduler(trace.scheduler, **trace.scheduler_options)
    engine = SimulationEngine(
        live, scheduler, record_events=record_events, source=source
    )
    return engine.run()


def batch_reference(trace: SubmissionTrace) -> SimulationResult:
    """Run plain batch ``simulate()`` on the trace's reconstructed instance."""
    scheduler = make_scheduler(trace.scheduler, **trace.scheduler_options)
    return simulate(trace.reconstruct_instance(), scheduler)


def _schedule_signature(result: SimulationResult) -> list[tuple[float, ...]]:
    return sorted(
        (s.job_id, s.machine_id, s.start, s.end, s.work) for s in result.schedule
    )


@dataclass
class ReplayCheck:
    """Outcome of one replay-vs-batch bit-identity verification."""

    identical: bool
    detail: str
    replay: SimulationResult = field(repr=False)
    batch: SimulationResult = field(repr=False)

    def as_dict(self) -> dict[str, Any]:
        return {
            "identical": self.identical,
            "detail": self.detail,
            "replay_max_stretch": self.replay.max_stretch,
            "batch_max_stretch": self.batch.max_stretch,
        }


def verify_replay(trace: SubmissionTrace) -> ReplayCheck:
    """Replay ``trace`` through the service path and diff against batch mode.

    The comparison is *exact* (no tolerance): every work slice's
    ``(job, machine, start, end, work)`` and every completion date must be
    bit-identical floats, which is the service-mode contract.
    """
    replay = replay_trace(trace)
    batch = batch_reference(trace)
    if replay.completions != batch.completions:
        diff = {
            j: (replay.completions.get(j), batch.completions.get(j))
            for j in set(replay.completions) | set(batch.completions)
            if replay.completions.get(j) != batch.completions.get(j)
        }
        return ReplayCheck(
            identical=False,
            detail=f"completion dates differ for jobs {sorted(diff)}",
            replay=replay,
            batch=batch,
        )
    sig_replay = _schedule_signature(replay)
    sig_batch = _schedule_signature(batch)
    if sig_replay != sig_batch:
        return ReplayCheck(
            identical=False,
            detail="work slices differ between replay and batch",
            replay=replay,
            batch=batch,
        )
    return ReplayCheck(
        identical=True,
        detail=f"{len(trace)} submissions, {len(sig_batch)} slices bit-identical",
        replay=replay,
        batch=batch,
    )
