"""``daemon_openloop``: the scheduler daemon under an open-loop submission stream."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import api
from repro.core.platform import Platform
from repro.service import read_trace, verify_replay
from repro.utils.seeding import derive_seed

from benchmarks.e2e import stats
from benchmarks.e2e.common import (
    Outcome,
    Sizing,
    install_lp_spans,
    lp_layer_metrics,
    op_metrics,
    peak_rss_mb,
    scratch_dir,
    small_platform,
    warm_up,
)
from benchmarks.e2e.metrics import DAEMON_STEPS
from benchmarks.e2e.openloop import (
    KeepAliveClient,
    PerConnectionClient,
    Sent,
    TelemetryPoller,
    arrival_offsets,
    get_json,
    post_json,
    run_open_loop,
)
from benchmarks.e2e.tracer import Tracer, durations

#: Offered load in virtual time, the same on every step: ``time_scale`` is
#: chosen per step so that the step's wall-clock rate maps onto it.
DENSITY = 0.9
#: The latency limit of ``max_rate_ok``: submit p95, due time to reply.
SUBMIT_LIMIT_MS = 50.0
#: ... and its no-growing-backlog condition: how far the engine's committed
#: virtual time may trail the admission clock when the step ends, as a share
#: of the step's length (a fixed number of seconds would stop meaning
#: "growing" once the steps are scaled with ``--seconds``).  Set between what
#: the neighbouring steps read: r40 ends 1-3 % of its step behind, r80 22-35 %.
LAG_LIMIT_SHARE = 0.1
#: The replan-p99 valve is armed at a threshold it never reaches: admission
#: then computes the percentile on every submit (the cost a deployment with
#: the valve on pays) but never sheds, which would turn the failure share
#: into noise.
SHED_REPLAN_P99_S = 5.0


@dataclass(frozen=True)
class Step:
    name: str
    rate: float
    keep_alive: bool
    time_scale: float
    #: ``(due offset in seconds, request body)`` in due order.
    schedule: list[tuple[float, bytes]]


@dataclass(frozen=True)
class DaemonInputs:
    platform: Platform
    steps: list[Step]


def _serve(platform: Platform, time_scale: float, journal: Path):
    return api.serve(
        platform,
        scheduler="online",
        time_scale=time_scale,
        journal=journal,
        shed_replan_p99=SHED_REPLAN_P99_S,
    )


def prepare(seed: int, sizing: Sizing) -> DaemonInputs:
    platform, catalog = small_platform()
    names = list(catalog.names())
    # Per-databank arrival rates in virtual time at DENSITY (the workload
    # generator's definition); their sum is the virtual submission rate.
    rates = np.array(
        [DENSITY * platform.aggregate_speed(n) / catalog.size_of(n) for n in names]
    )
    virtual_rate = float(rates.sum())
    bodies = [
        json.dumps({"size": catalog.size_of(n), "databank": n}).encode("utf-8")
        for n in names
    ]
    steps = []
    for name, (rate, keep_alive) in DAEMON_STEPS.items():
        rng = np.random.default_rng(derive_seed(seed, name))
        offsets = arrival_offsets(rate, sizing.step_seconds(name), rng)
        picks = rng.choice(len(names), size=len(offsets), p=rates / virtual_rate)
        steps.append(
            Step(
                name=name,
                rate=rate,
                keep_alive=keep_alive,
                time_scale=rate / virtual_rate,
                schedule=[(t, bodies[i]) for t, i in zip(offsets, picks)],
            )
        )
    warm_up("online", {"solver_backend": "auto"})
    # One daemon boot belongs to set-up: listener, engine thread, journal,
    # one submission through to the drain (draining a daemon that never saw
    # a job makes /drain fail on the empty metric report).
    with scratch_dir() as directory:
        server = _serve(platform, steps[0].time_scale, directory / "boot.jsonl")
        try:
            post_json(f"{server.url}/submit", bodies[0])
            post_json(f"{server.url}/drain", b"")
        finally:
            server.daemon.close_submissions()
            server.shutdown()
    return DaemonInputs(platform, steps)


@dataclass
class StepRun:
    """Everything observed on one step."""

    step: Step
    sent: list[Sent]
    final: dict[str, Any]
    drained: dict[str, Any]
    drain_status: int
    drain_s: float
    settle_s: float
    pending_max: int
    journal_len: int
    telemetry_round_trips: list[float]
    #: The finished run, from ``server.daemon.join()`` after the drain.
    result: Any

    def latency_ms(self, q: float) -> float:
        return stats.percentile([s.latency for s in self.sent], q) * 1e3

    def lateness_ms(self, q: float) -> float:
        return stats.percentile([s.lateness for s in self.sent], q) * 1e3

    @property
    def n_failed(self) -> int:
        return sum(1 for s in self.sent if s.status != 200)

    @property
    def engine_lag_s(self) -> float:
        """How far the engine trails the admission clock, in wall seconds.

        An engine parked on an empty system has nothing to catch up with
        (its snapshot time is simply that of its last pull).
        """
        final = self.final
        if final["n_active"] == 0 and final["pending"] == 0:
            return 0.0
        return max(0.0, final["virtual_now"] - final["time"]) / self.step.time_scale

    def meets_limits(self) -> bool:
        return (
            self.n_failed == 0
            and self.latency_ms(95.0) <= SUBMIT_LIMIT_MS
            and self.engine_lag_s <= LAG_LIMIT_SHARE * self.step.schedule[-1][0]
        )


def _run_step(
    platform: Platform, step: Step, journal: Path, tracer: Tracer | None
) -> StepRun:
    server = _serve(platform, step.time_scale, journal)
    poller = TelemetryPoller(server.url)
    client = (
        KeepAliveClient(server.host, server.port)
        if step.keep_alive
        else PerConnectionClient(server.url)
    )
    if tracer is not None:
        tracer.run = step.name
    poller.start()
    try:
        started = time.perf_counter()
        sent = run_open_loop(step.schedule, client.send)
        final = get_json(f"{server.url}/telemetry")
        t_drain = time.perf_counter()
        drain_status, drained = post_json(f"{server.url}/drain", b"")
        finished = time.perf_counter()
        result = server.daemon.join(timeout=60.0)
    finally:
        try:
            poller.stop()  # before the server goes, or its next poll fails
        finally:
            client.close()
            server.daemon.close_submissions()
            server.shutdown()
    pending = [doc["pending"] for doc in poller.documents] + [final["pending"]]
    return StepRun(
        step=step,
        sent=sent,
        final=final,
        drained=drained,
        drain_status=drain_status,
        drain_s=finished - t_drain,
        settle_s=finished - started,
        pending_max=max(pending),
        journal_len=len(read_trace(journal)),
        telemetry_round_trips=poller.round_trips,
        result=result,
    )


def execute(inputs: DaemonInputs, tracer: Tracer | None) -> Outcome:
    with scratch_dir() as directory:
        if tracer is not None:
            _install_service_spans(tracer)
        try:
            runs = {
                step.name: _run_step(
                    inputs.platform, step, directory / f"{step.name}.jsonl", tracer
                )
                for step in inputs.steps
            }
        finally:
            if tracer is not None:
                tracer.restore()
        # Outside the timed steps: the journal of the lightest step must
        # replay bit-identically to batch simulate().
        replay = verify_replay(read_trace(directory / "r20.jsonl"))

    problems: list[str] = []
    detail: dict[str, Any] = {"steps": {}}
    failed = 0
    for name, run in runs.items():
        n = len(run.step.schedule)
        failed += run.n_failed
        accepted = run.final["accepted"]
        drained = run.drained.get("n_jobs")
        if not (run.drain_status == 200 and accepted == drained == run.journal_len == n):
            problems.append(
                f"step {name}: offered {n}, accepted {accepted}, drained {drained} "
                f"(HTTP {run.drain_status}), journal {run.journal_len}"
            )
        detail["steps"][name] = {
            "rate_per_s": run.step.rate,
            "seconds": run.step.schedule[-1][0],
            "sent": n,
            "succeeded": n - run.n_failed,
            "failed": run.n_failed,
            "shed": run.final["shed"],
            "generator_late_p50_ms": run.lateness_ms(50.0),
            "generator_late_p99_ms": run.lateness_ms(99.0),
            # What max_rate_ok judges, so every run shows how far a step is
            # from flipping.
            "submit_p95_ms": run.latency_ms(95.0),
            "engine_lag_share": run.engine_lag_s / run.step.schedule[-1][0],
            "meets_limits": run.meets_limits(),
        }
    if not replay.identical:
        failed += 1
        problems.append(f"r20 journal replay differs from batch: {replay.detail}")

    # Highest offered rate that meets the limits, with every lower one.
    max_rate_ok = 0.0
    for name in ("r20", "r40", "r80"):
        if not runs[name].meets_limits():
            break
        max_rate_ok = runs[name].step.rate

    # First due time to drain reply, summed over the steps: the send windows
    # are fixed, so what moves it is how long the engine needs to catch up.
    end_to_end = {
        "wall_s": sum(run.settle_s for run in runs.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    # The two sustainable per-connection steps pooled: r40 alone has 100
    # samples, and its p90 sits on the interpreter's 5 ms switch interval.
    end_to_end.update(
        op_metrics(
            [s.latency for name in ("r20", "r40") for s in runs[name].sent],
            detail,
            "submit at r20 and r40",
        )
    )
    extras = {
        "burst_settle_s.r80": runs["r80"].settle_s,
        "submit_p50_ms.r40": runs["r40"].latency_ms(50.0),
        "submit_p95_ms.r40": runs["r40"].latency_ms(95.0),
        "submit_p50_ms.ka20": runs["ka20"].latency_ms(50.0),
        "max_rate_ok": max_rate_ok,
    }

    per_layer: dict[str, float] = {}
    if tracer is not None:
        per_layer = _service_metrics(runs, tracer)
        per_layer["daemon.max_rate_ok"] = max_rate_ok
    return Outcome(
        attempted=sum(len(step.schedule) for step in inputs.steps) + 1,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        extras=extras,
        # Release dates come from the wall clock, so the outputs differ run
        # to run by design; what must repeat is the offered schedule.
        digests={
            step.name: stats.digest([(t, body.decode()) for t, body in step.schedule])
            for step in inputs.steps
        },
        detail=detail,
        problems=problems,
    )


def _install_service_spans(tracer: Tracer) -> None:
    from repro.service import ingest
    from repro.service.daemon import SchedulerDaemon
    from repro.service.trace import TraceWriter

    install_lp_spans(tracer)
    tracer.wrap(SchedulerDaemon, "submit", "daemon.submit")
    tracer.wrap_function(ingest.parse_submission, "ingest.parse")
    tracer.wrap(TraceWriter, "append", "trace.append")


def _median_ms(seconds: list[float]) -> float:
    return stats.percentile(seconds, 50.0) * 1e3 if seconds else 0.0


def _service_metrics(runs: dict[str, StepRun], tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    overheads: list[float] = []
    for name, run in runs.items():
        lp = run.final["lp"]
        out[f"http.submit_p50_ms.{name}"] = run.latency_ms(50.0)
        out[f"http.submit_p95_ms.{name}"] = run.latency_ms(95.0)
        out[f"http.generator_late_p99_ms.{name}"] = run.lateness_ms(99.0)
        out[f"daemon.replan_p50_ms.{name}"] = lp["replan_latency_p50"] * 1e3
        out[f"daemon.replan_p99_ms.{name}"] = lp["replan_latency_p99"] * 1e3
        out[f"daemon.engine_lag_s.{name}"] = run.engine_lag_s
        out[f"daemon.pending_max.{name}"] = float(run.pending_max)
        out[f"daemon.drain_s.{name}"] = run.drain_s
        out[f"daemon.accepted.{name}"] = float(run.final["accepted"])
        # The one generator thread sends strictly one after the other, so
        # the k-th submit span of a step belongs to its k-th request.
        calls = durations((s for s in tracer.spans if s.run == name), "daemon.submit")
        if len(calls) == len(run.sent):
            overheads.extend(s.round_trip - call for s, call in zip(run.sent, calls))
    out["daemon.submit_call_ms_p50"] = _median_ms(durations(tracer.spans, "daemon.submit"))
    out["http.overhead_ms_p50"] = _median_ms(overheads)
    out["ingest.parse_ms_p50"] = _median_ms(durations(tracer.spans, "ingest.parse"))
    out["trace.append_ms_p50"] = _median_ms(durations(tracer.spans, "trace.append"))
    out["daemon.telemetry_ms_p50"] = _median_ms(
        [rtt for run in runs.values() for rtt in run.telemetry_round_trips]
    )
    # The engine threads' LP stack, all steps together.  The engines are
    # paced, so engine.self_s here is mostly time parked waiting for the
    # admission clock.
    results = [run.result for run in runs.values()]
    out.update(
        lp_layer_metrics(
            tracer.spans,
            [result.lp_probes for result in results],
            scheduler_seconds=sum(result.scheduler_time for result in results),
            decisions=sum(result.n_decisions for result in results),
        )
    )
    return out
