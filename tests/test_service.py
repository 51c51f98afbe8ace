"""Tests of the service layer: daemon, ingestion robustness, trace replay, HTTP.

The headline contracts:

* every trace the daemon journals replays bit-identically to batch
  ``simulate()`` on the reconstructed instance (under ``on-arrival`` AND
  ``batched:D`` replanning);
* malformed/duplicate JSONL lines are rejected with per-record error
  accounting, never kill the daemon and never perturb admitted jobs.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.errors import SolverError
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.service import (
    AdmissionError,
    SchedulerDaemon,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    SubmissionRequest,
    SubmissionTrace,
    batch_reference,
    ingest_lines,
    parse_submission,
    read_trace,
    replay_trace,
    verify_replay,
)
from repro.lp.backends.base import REPLAN_LATENCY_WINDOW, LPProbeStats
from repro.lp.incremental import ReplanContext
from repro.service.http import _Handler
from repro.service.trace import TraceWriter

from helpers import fail_first_highs_run


def small_platform() -> Platform:
    return Platform(
        [
            Machine(0, cycle_time=0.5, cluster_id=0, databanks=frozenset({"sp", "nt"})),
            Machine(1, cycle_time=0.5, cluster_id=0, databanks=frozenset({"sp", "nt"})),
            Machine(2, cycle_time=1.0, cluster_id=1, databanks=frozenset({"pdb", "nt"})),
        ]
    )


def make_trace(scheduler="online", options=None, jobs=None) -> SubmissionTrace:
    if jobs is None:
        jobs = [
            Job(0, release=0.0, size=6.0, databank="sp"),
            Job(1, release=0.5, size=2.0, databank="pdb"),
            Job(2, release=2.0, size=3.0, databank="nt"),
            Job(3, release=2.0, size=1.0, databank="sp"),
            Job(4, release=9.0, size=4.0, databank="nt"),
        ]
    return SubmissionTrace(
        platform=small_platform(),
        scheduler=scheduler,
        scheduler_options=options or {},
        jobs=jobs,
    )


class TestTraceRoundTrip:
    def test_write_read_round_trip_is_exact(self, tmp_path):
        trace = make_trace(options={"policy": "batched:1.5", "solver_backend": "auto"})
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, trace) as writer:
            for job in trace.jobs:
                writer.append(job)
        loaded = read_trace(path)
        assert loaded.scheduler == trace.scheduler
        assert loaded.scheduler_options == trace.scheduler_options
        assert loaded.platform == trace.platform
        assert loaded.jobs == trace.jobs  # exact float round-trip

    def test_truncated_final_line_is_dropped(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, trace) as writer:
            for job in trace.jobs:
                writer.append(job)
        raw = path.read_text()
        path.write_text(raw.rstrip("\n")[:-7])  # kill mid-record
        loaded = read_trace(path)
        assert [j.job_id for j in loaded.jobs] == [0, 1, 2, 3]

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ServiceError, match="not a repro-service-trace"):
            read_trace(path)

    def test_unsupported_version_raises(self, tmp_path):
        trace = make_trace()
        header = trace.header()
        header["version"] = 99
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ServiceError, match="unsupported version"):
            read_trace(path)

    def test_malformed_record_raises(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(trace.header()) + "\n" + "{broken\n" + "x\n")
        with pytest.raises(ServiceError, match="malformed record at line 2"):
            read_trace(path)


#: A trace as the daemon journaled it while the replan path, speculative
#: pre-solving and the solver backend were still scheduler options: the
#: header carries ``"incremental": true``, ``"speculate": false`` and the
#: default ``"solver_backend": "auto"``.
LEGACY_TRACE_LINES = [
    '{"kind": "repro-service-trace", "version": 1, "scheduler": "online", '
    '"scheduler_options": {"solver_backend": "auto", "policy": "on-arrival", '
    '"incremental": true, "speculate": false}, "time_scale": 0.0, "platform": '
    '[{"id": 0, "cycle_time": 0.5, "cluster": 0, "databanks": ["nt", "sp"], '
    '"name": ""}, {"id": 1, "cycle_time": 1.0, "cluster": 1, "databanks": '
    '["nt", "pdb"], "name": ""}]}',
    '{"kind": "submission", "id": 0, "release": 0.0, "size": 6.0, '
    '"databank": "sp", "weight": null, "name": ""}',
    '{"kind": "submission", "id": 1, "release": 0.5, "size": 2.0, '
    '"databank": "pdb", "weight": null, "name": ""}',
    '{"kind": "submission", "id": 2, "release": 2.0, "size": 3.0, '
    '"databank": "nt", "weight": null, "name": ""}',
]


class TestLegacyReplanOption:
    def test_incremental_true_trace_replays(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text("\n".join(LEGACY_TRACE_LINES) + "\n")
        trace = read_trace(path)
        assert trace.scheduler_options == {
            "solver_backend": "auto", "policy": "on-arrival"
        }
        check = verify_replay(trace)
        assert check.identical, check.detail

    def test_scipy_trace_is_refused(self, tmp_path):
        # The one-shot scipy backend is gone; its traces name it explicitly.
        path = tmp_path / "legacy.jsonl"
        header = LEGACY_TRACE_LINES[0].replace('"auto"', '"scipy"')
        path.write_text("\n".join([header, *LEGACY_TRACE_LINES[1:]]) + "\n")
        with pytest.raises(SolverError, match="unknown solver backend 'scipy'"):
            verify_replay(read_trace(path))

    def test_speculate_true_trace_replays(self, tmp_path):
        # Speculation never changed a schedule, so either value replays.
        path = tmp_path / "legacy.jsonl"
        header = LEGACY_TRACE_LINES[0].replace('"speculate": false', '"speculate": true')
        path.write_text("\n".join([header, *LEGACY_TRACE_LINES[1:]]) + "\n")
        trace = read_trace(path)
        assert "speculate" not in trace.scheduler_options
        check = verify_replay(trace)
        assert check.identical, check.detail

    def test_daemon_header_carries_the_run_options(self, tmp_path):
        # The daemon's scheduler options come from the registry rule: the
        # replan policy, now the only run option.
        path = tmp_path / "new.jsonl"
        config = ServiceConfig(replan_policy="batched:2", journal=path)
        daemon = SchedulerDaemon(small_platform(), config)
        daemon._writer.close()
        header = path.read_text().splitlines()[0]
        assert (
            '"scheduler": "online", "scheduler_options": {"policy": "batched:2"}, '
            '"time_scale": 0.0'
        ) in header

    def test_incremental_false_trace_is_rejected(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        header = LEGACY_TRACE_LINES[0].replace('"incremental": true', '"incremental": false')
        path.write_text("\n".join([header, *LEGACY_TRACE_LINES[1:]]) + "\n")
        with pytest.raises(ServiceError, match="from-scratch LP replan path"):
            read_trace(path)


class TestReplayContract:
    @pytest.mark.parametrize(
        "scheduler,options",
        [
            ("online", {"policy": "on-arrival"}),
            ("online", {"policy": "batched:2"}),
            ("online-edf", {"policy": "on-arrival"}),
            ("online-egdf", {"policy": "batched:1"}),
            ("swrpt", {}),
            ("fcfs", {}),
        ],
    )
    def test_replay_is_bit_identical_to_batch(self, scheduler, options):
        trace = make_trace(scheduler=scheduler, options=options)
        check = verify_replay(trace)
        assert check.identical, check.detail

    def test_replay_and_batch_results_are_full_objects(self):
        trace = make_trace(scheduler="srpt")
        replay = replay_trace(trace)
        batch = batch_reference(trace)
        assert replay.completions == batch.completions
        assert replay.max_stretch == batch.max_stretch


class TestIngestValidation:
    def test_parse_submission_happy_path(self):
        request = parse_submission(
            {"size": 3.5, "databank": "sp", "weight": 2.0, "name": "x",
             "client_id": "c1"}
        )
        assert request == SubmissionRequest(
            size=3.5, databank="sp", weight=2.0, name="x", client_id="c1"
        )

    @pytest.mark.parametrize(
        "payload,match",
        [
            ([1, 2], "JSON object"),
            ({"databank": "sp"}, "missing required field 'size'"),
            ({"size": "big"}, "'size' must be a number"),
            ({"size": True}, "'size' must be a number"),
            ({"size": -1.0}, "positive finite"),
            ({"size": float("nan")}, "positive finite"),
            ({"size": 1.0, "databank": 3}, "'databank' must be a string"),
            ({"size": 1.0, "weight": -2}, "'weight' must be positive"),
            ({"size": 1.0, "databnak": "sp"}, "unknown fields: databnak"),
            ({"size": 1.0, "client_id": 7}, "'client_id' must be a string"),
        ],
    )
    def test_parse_submission_rejections(self, payload, match):
        with pytest.raises(ValueError, match=match):
            parse_submission(payload)

    def test_ingest_lines_accounts_per_record(self):
        admitted = []

        def admit(request):
            if request.databank == "bad":
                raise ValueError("unhosted")
            admitted.append(request)
            return len(admitted) - 1, 0.0

        lines = [
            json.dumps({"size": 1.0, "databank": "sp"}),
            "not json at all",
            "",  # blank lines are skipped silently
            json.dumps({"size": 2.0, "databank": "bad"}),
            json.dumps({"size": "NaN"}),
            json.dumps({"size": 3.0}),
        ]
        report = ingest_lines(lines, admit)
        assert report.accepted == 2
        assert report.rejected == 3
        assert [e.line_no for e in report.errors] == [2, 4, 5]
        assert [a[0] for a in report.admissions] == [1, 6]
        assert len(admitted) == 2


def drain(daemon: SchedulerDaemon):
    daemon.close_submissions()
    return daemon.join(timeout=60.0)


class TestDaemon:
    def test_lifecycle_and_journal_replay(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(scheduler="online", journal=str(journal)),
        )
        daemon.start()
        ids = [
            daemon.submit(SubmissionRequest(size=5.0, databank="sp"))[0],
            daemon.submit(SubmissionRequest(size=2.0, databank="pdb"))[0],
            daemon.submit(SubmissionRequest(size=3.0, databank="nt"))[0],
        ]
        assert ids == [0, 1, 2]
        result = drain(daemon)
        assert sorted(result.completions) == [0, 1, 2]
        trace = read_trace(journal)
        assert len(trace) == 3
        check = verify_replay(trace)
        assert check.identical, check.detail

    @pytest.mark.parametrize("policy", ["on-arrival", "batched:1"])
    def test_journal_replay_across_policies(self, tmp_path, policy):
        journal = tmp_path / "run.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(
                scheduler="online", replan_policy=policy, journal=str(journal)
            ),
        )
        daemon.start()
        for size, bank in [(4.0, "sp"), (1.5, "pdb"), (2.5, "nt"), (0.5, "sp")]:
            daemon.submit(SubmissionRequest(size=size, databank=bank))
        drain(daemon)
        trace = read_trace(journal)
        assert trace.scheduler_options["policy"] == policy
        check = verify_replay(trace)
        assert check.identical, check.detail

    def test_rejections_do_not_perturb_admitted_jobs(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(scheduler="online", journal=str(journal)),
        )
        daemon.start()
        daemon.submit(SubmissionRequest(size=5.0, databank="sp", client_id="a"))
        window = [
            json.dumps({"size": 2.0, "databank": "pdb", "client_id": "b"}),
            "{malformed",
            json.dumps({"size": 1.0, "databank": "unhosted-bank"}),
            json.dumps({"size": 1.0, "databank": "nt", "client_id": "a"}),  # dup
            json.dumps({"size": 9.0, "wat": 1}),
            json.dumps({"size": 3.0, "databank": "nt", "client_id": "c"}),
        ]
        report = daemon.ingest(window)
        assert report.accepted == 2
        assert report.rejected == 4
        reasons = " | ".join(e.reason for e in report.errors)
        assert "malformed JSON" in reasons
        assert "hosted on no machine" in reasons
        assert "duplicate client_id" in reasons
        assert "unknown fields" in reasons
        # The daemon survives and the admitted jobs complete untouched.
        assert daemon.running
        result = drain(daemon)
        assert sorted(result.completions) == [0, 1, 2]
        # And the journaled trace holds exactly the accepted submissions.
        trace = read_trace(journal)
        assert [j.job_id for j in trace.jobs] == [0, 1, 2]
        assert verify_replay(trace).identical

    def test_telemetry_document_shape(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        daemon.start()
        daemon.submit(SubmissionRequest(size=2.0, databank="sp"))
        telemetry = daemon.telemetry()
        for key in (
            "scheduler", "running", "accepted", "rejected", "pending",
            "virtual_now", "lp", "time", "n_active", "n_completed",
            "queue_depth_by_databank", "max_stretch_objective", "assignment",
        ):
            assert key in telemetry, key
        for key in (
            "n_probes", "histogram", "n_replans", "replan_latency_p50",
            "replan_latency_p90", "replan_latency_p99",
        ):
            assert key in telemetry["lp"], key
        assert telemetry["accepted"] == 1
        json.dumps(daemon.telemetry())  # JSON-serializable as served
        drain(daemon)

    def test_submit_after_close_is_rejected(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        daemon.start()
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        daemon.close_submissions()
        with pytest.raises(ServiceError, match="closed"):
            daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        daemon.join(timeout=60.0)

    def test_empty_run_drains_cleanly(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig(scheduler="fcfs"))
        daemon.start()
        result = drain(daemon)
        assert result.completions == {}

    def test_config_rejects_clairvoyant_schedulers(self):
        for key in ("offline", "offline-sum", "bender98", "bender02"):
            with pytest.raises(ServiceError, match="not service-safe"):
                ServiceConfig(scheduler=key)

    def test_config_rejects_bad_policy_and_time_scale(self):
        with pytest.raises(ServiceError):
            ServiceConfig(replan_policy="whenever")
        with pytest.raises(ServiceError):
            ServiceConfig(time_scale=-1.0)


def http_json(url: str, data: bytes | None = None, method: str | None = None):
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data is not None else "GET")
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHttpSurface:
    def test_full_http_session(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(journal=str(journal))
        )
        with ServiceServer(daemon) as server:
            status, reply = http_json(
                f"{server.url}/submit",
                json.dumps({"size": 4.0, "databank": "sp"}).encode(),
            )
            assert status == 200 and reply == {"job_id": 0, "release": 0.0}

            window = "\n".join(
                [
                    json.dumps({"size": 2.0, "databank": "pdb"}),
                    "{oops",
                    json.dumps({"size": 1.0, "databank": "nt"}),
                ]
            )
            status, report = http_json(f"{server.url}/stream", window.encode())
            assert status == 200
            assert report["accepted"] == 2 and report["rejected"] == 1
            assert report["errors"][0]["line"] == 2

            status, telemetry = http_json(f"{server.url}/telemetry")
            assert status == 200
            assert telemetry["accepted"] == 3 and telemetry["rejected"] == 1

            status, reply = http_json(
                f"{server.url}/submit", json.dumps({"size": -2}).encode()
            )
            assert status == 400

            status, drained = http_json(f"{server.url}/drain", b"", method="POST")
            assert status == 200
            assert drained["status"] == "drained" and drained["n_jobs"] == 3

            # After the drain the stream is closed: submissions get 409
            # (permanent for this daemon, unlike a load-shed 503).
            status, reply = http_json(
                f"{server.url}/submit",
                json.dumps({"size": 1.0, "databank": "sp"}).encode(),
            )
            assert status == 409 and reply.get("draining") is True

            status, reply = http_json(f"{server.url}/nope")
            assert status == 404
        assert verify_replay(read_trace(journal)).identical

    def test_duplicate_client_id_gets_409(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        with ServiceServer(daemon) as server:
            body = json.dumps(
                {"size": 1.0, "databank": "sp", "client_id": "once"}
            ).encode()
            status, _ = http_json(f"{server.url}/submit", body)
            assert status == 200
            status, reply = http_json(f"{server.url}/submit", body)
            assert status == 409 and "duplicate" in reply["error"]
            http_json(f"{server.url}/drain", b"", method="POST")


class FakeReplanStats:
    """Just enough of the LP stats surface for the p99 admission valve."""

    def __init__(self, latencies):
        self.replan_latencies = list(latencies)

    def replan_percentile(self, q):
        return max(self.replan_latencies)


class TestAdmissionControl:
    def test_config_validates_valve_knobs(self):
        with pytest.raises(ServiceError, match="max_pending"):
            ServiceConfig(max_pending=0)
        with pytest.raises(ServiceError, match="shed_replan_p99"):
            ServiceConfig(shed_replan_p99=0.0)
        with pytest.raises(ServiceError, match="retry_after"):
            ServiceConfig(retry_after=0.0)

    def test_queue_full_sheds_with_retry_after(self):
        # The daemon is not started, so nothing drains the pending queue:
        # the valve's behavior is deterministic.
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(max_pending=1, retry_after=2.5)
        )
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        with pytest.raises(AdmissionError, match="queue full") as info:
            daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        assert info.value.retry_after == 2.5
        telemetry = daemon.telemetry()
        assert telemetry["shed"] == 1
        assert telemetry["rejected"] == 1
        assert telemetry["accepted"] == 1
        daemon.start()
        result = drain(daemon)
        assert sorted(result.completions) == [0]  # shed job never admitted

    def test_replan_latency_valve_trips_past_the_cold_start_guard(self):
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(shed_replan_p99=0.01)
        )
        # Cold start: too few replans observed, one slow solve never sheds.
        daemon.engine.lp_stats = FakeReplanStats([5.0] * 4)
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        # Warmed up and over target: shed.
        daemon.engine.lp_stats = FakeReplanStats([5.0] * 5)
        with pytest.raises(AdmissionError, match="replan latency"):
            daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        # Back under target: admission resumes (the valve is transient).
        daemon.engine.lp_stats = FakeReplanStats([0.001] * 5)
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        daemon.start()
        assert sorted(drain(daemon).completions) == [0, 1]

    def test_replan_window_is_bounded_and_the_valve_reads_recent_replans(self):
        stats = LPProbeStats()
        for _ in range(100_000):
            stats.record_replan(0.001)
        assert stats.n_replans == 100_000
        assert len(stats.replan_latencies) == REPLAN_LATENCY_WINDOW
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(shed_replan_p99=0.01)
        )
        daemon.engine.lp_stats = stats
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        # 2 % slow replans: over the p99 of the recent window, though a
        # vanishing share of all 10^5 recorded ones.
        for _ in range(REPLAN_LATENCY_WINDOW // 50):
            stats.record_replan(5.0)
        with pytest.raises(AdmissionError, match="replan latency"):
            daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        telemetry = daemon.telemetry()["lp"]
        assert telemetry["n_replans"] == 100_000 + REPLAN_LATENCY_WINDOW // 50
        assert telemetry["replan_latency_p99"] == 5.0
        daemon.start()
        assert sorted(drain(daemon).completions) == [0]

    def test_draining_outranks_shedding(self):
        # Once the stream is closed, even an over-full queue must answer
        # with the permanent condition (409), not the transient 503.
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(max_pending=1)
        )
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        daemon.close_submissions()
        with pytest.raises(ServiceError, match="closed") as info:
            daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        assert not isinstance(info.value, AdmissionError)
        daemon.start()
        daemon.join(timeout=60.0)


class TestTelemetryIsolationHardening:
    """Two daemons in one process: each ``/telemetry`` counts its own LP work only."""

    REQUESTS = [
        SubmissionRequest(size=1.0 + i % 4, databank=("sp", "pdb", "nt")[i % 3])
        for i in range(25)
    ]

    @staticmethod
    def lp_counts(daemon: SchedulerDaemon):
        lp = daemon.telemetry()["lp"]
        return lp["n_probes"], lp["n_replans"], lp["histogram"]

    def run_alone(self, requests):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig(scheduler="online"))
        for request in requests:
            daemon.submit(request)  # before start: one arrival batch at 0
        daemon.start()
        drain(daemon)
        return self.lp_counts(daemon)

    def test_two_daemons_report_only_their_own_lp_telemetry(self):
        lone = self.run_alone(self.REQUESTS)
        lone_single = self.run_alone(self.REQUESTS[:1])
        assert lone[0] > 0 and lone[1] > 0

        idle = SchedulerDaemon(small_platform(), ServiceConfig(scheduler="online"))
        idle.start()
        deadline = time.monotonic() + 30.0
        while idle.engine.lp_stats is None:  # wait until its run has begun
            assert time.monotonic() < deadline, "the idle daemon never started its run"
            time.sleep(0.01)
        busy = SchedulerDaemon(small_platform(), ServiceConfig(scheduler="online"))
        for request in self.REQUESTS:
            busy.submit(request)
        busy.start()
        drain(busy)
        # The busy daemon's replans ran while the idle one was mid-run.
        assert self.lp_counts(busy) == lone
        assert self.lp_counts(idle)[:2] == (0, 0)

        idle.submit(self.REQUESTS[0])
        drain(idle)
        assert self.lp_counts(idle) == lone_single
        assert self.lp_counts(busy) == lone


class TestSolverDowngradeHardening:
    """A failing HiGHS probe is re-solved on a cold model; the daemon lives on."""

    def test_daemon_survives_a_failing_highs_probe(self, tmp_path, monkeypatch):
        calls = fail_first_highs_run(monkeypatch)
        journal = tmp_path / "run.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(scheduler="online", journal=str(journal)),
        )
        with ServiceServer(daemon) as server:
            status, _ = http_json(
                f"{server.url}/submit", json.dumps({"size": 4.0, "databank": "sp"}).encode()
            )
            assert status == 200
            deadline = time.monotonic() + 30.0
            while http_json(f"{server.url}/telemetry")[1]["lp"]["n_replans"] < 1:
                assert time.monotonic() < deadline, "the daemon never replanned"
                time.sleep(0.01)
            assert calls  # the first replan met the injected failure
            for size, bank in [(2.0, "pdb"), (1.0, "nt"), (3.0, "sp")]:
                status, _ = http_json(
                    f"{server.url}/submit",
                    json.dumps({"size": size, "databank": bank}).encode(),
                )
                assert status == 200
            status, drained = http_json(f"{server.url}/drain", b"", method="POST")
            assert status == 200
            assert drained["status"] == "drained" and drained["n_jobs"] == 4
            status, telemetry = http_json(f"{server.url}/telemetry")
        assert telemetry["lp"]["histogram"]["downgrades"] == 1
        assert len(calls) > 1
        check = verify_replay(read_trace(journal))
        assert check.identical, check.detail


class TestHealthz:
    def test_status_ladder(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        assert daemon.healthz()["status"] == "accepting"
        daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        daemon.close_submissions()
        assert daemon.healthz()["status"] == "draining"
        daemon.start()
        daemon.join(timeout=60.0)
        doc = daemon.healthz()
        assert doc["status"] == "stopped"
        assert doc["accepted"] == 1
        assert doc["shed"] == 0
        assert "error" not in doc

    def test_failed_engine_is_reported(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        daemon._error = RuntimeError("engine exploded")
        doc = daemon.healthz()
        assert doc["status"] == "failed"
        assert "engine exploded" in doc["error"]


def http_raw(url: str, data: bytes | None = None, method: str | None = None):
    """Like :func:`http_json` but also returns the response headers."""
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data is not None else "GET")
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), exc.headers


class _RecordingWriter:
    """A ``wfile`` stand-in keeping every write."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class TestHttpHardening:
    def test_reply_is_one_write_holding_head_and_body(self):
        # Two writes on a keep-alive socket meet Nagle and delayed ACK.
        handler = _Handler.__new__(_Handler)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /submit HTTP/1.1"
        handler.wfile = _RecordingWriter()
        handler._reply(503, {"error": "shed"}, headers={"Retry-After": "2.5"})
        [data] = handler.wfile.writes
        head, body = data.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 503")
        assert b"\r\nRetry-After: 2.5" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"error": "shed"}

    def test_accepted_connections_disable_nagle(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with socket.create_connection(listener.getsockname()) as client:
                connection, _ = listener.accept()
                handler = _Handler.__new__(_Handler)
                handler.request = connection
                handler.setup()
                try:
                    assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                finally:
                    handler.finish()
                    connection.close()
                client.close()

    def test_shed_maps_to_503_with_retry_after_header(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())

        def always_shed():
            raise AdmissionError("queue full (synthetic)", retry_after=2.5)

        with ServiceServer(daemon) as server:
            # One normal admission first (the drained run needs a job), then
            # force the valve shut so the shed path is deterministic.
            status, _, _ = http_raw(
                f"{server.url}/submit",
                json.dumps({"size": 1.0, "databank": "sp"}).encode(),
            )
            assert status == 200
            daemon._check_admission = always_shed
            status, reply, headers = http_raw(
                f"{server.url}/submit",
                json.dumps({"size": 1.0, "databank": "sp"}).encode(),
            )
            assert status == 503
            assert headers["Retry-After"] == "2.5"
            assert reply["retry_after"] == 2.5
            assert "queue full" in reply["error"]
            _, telemetry, _ = http_raw(f"{server.url}/telemetry")
            assert telemetry["shed"] == 1
            http_json(f"{server.url}/drain", b"", method="POST")

    def test_drain_before_any_admission_replies_200_with_a_zero_row(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        with ServiceServer(daemon) as server:
            status, drained = http_json(f"{server.url}/drain", b"", method="POST")
        assert status == 200
        assert drained["status"] == "drained" and drained["n_jobs"] == 0
        assert set(drained["metrics"].values()) == {0.0}

    def test_healthz_route_tracks_the_drain(self):
        daemon = SchedulerDaemon(small_platform(), ServiceConfig())
        with ServiceServer(daemon) as server:
            status, doc = http_json(f"{server.url}/healthz")
            assert status == 200
            assert doc["status"] == "accepting"
            http_json(
                f"{server.url}/submit",
                json.dumps({"size": 1.0, "databank": "sp"}).encode(),
            )
            http_json(f"{server.url}/drain", b"", method="POST")
            status, doc = http_json(f"{server.url}/healthz")
            assert status == 200
            # The engine thread may still be sealing the run: both the
            # draining and stopped states are legal here, accepting is not.
            assert doc["status"] in ("draining", "stopped")


class TestOverloadSmoke:
    def test_sustained_overload_sheds_503_and_replays_bit_identically(
        self, tmp_path
    ):
        """The CI chaos-smoke contract: under injected load past the shed
        threshold the daemon answers only 200 or deliberate 503s, and the
        journaled trace of the *admitted* subset still replays bit-identical
        to batch ``simulate()``."""
        journal = tmp_path / "overload.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(
                scheduler="online",
                journal=str(journal),
                time_scale=200.0,
                shed_replan_p99=1e-9,  # any real replan latency trips it
                retry_after=0.5,
            ),
        )
        with ServiceServer(daemon) as server:
            codes = []
            banks = ("sp", "nt", "pdb")
            for i in range(100):
                status, reply = http_json(
                    f"{server.url}/submit",
                    json.dumps({"size": 1.0, "databank": banks[i % 3]}).encode(),
                )
                codes.append(status)
                if status == 503:
                    assert reply["retry_after"] == 0.5
                accepted = codes.count(200)
                if 503 in codes and accepted >= 3:
                    break
                time.sleep(0.01)  # let the paced engine replan
            assert set(codes) <= {200, 503}, codes
            assert 503 in codes, "the valve never shed under sustained load"
            assert codes.count(200) >= 1
            status, drained = http_json(f"{server.url}/drain", b"", method="POST")
            assert status == 200
            assert drained["n_jobs"] == codes.count(200)
        trace = read_trace(journal)
        assert len(trace) == codes.count(200)
        assert verify_replay(trace).identical


class TestCliSigterm:
    def test_sigterm_drains_seals_journal_and_exits_zero(self, tmp_path):
        """Satellite 3: SIGTERM means drain-then-exit with the journal sealed."""
        import os
        import signal
        import subprocess
        import sys

        journal = tmp_path / "serve.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--clusters", "1", "--processors", "2", "--databanks", "2",
                "--availability", "1.0", "--time-scale", "50",
                "--journal", str(journal), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            url = None
            databank = None
            for line in process.stdout:
                if line.startswith("databanks: "):
                    databank = line.split("databanks: ", 1)[1].split(",")[0].strip()
                if line.startswith("serving on "):
                    url = line.split("serving on ", 1)[1].strip()
                    break
            assert url, "daemon never printed its URL"
            assert databank, "daemon never printed its databank catalog"
            _, doc = http_json(f"{url}/healthz")
            assert doc["status"] == "accepting"
            status, reply = http_json(
                f"{url}/submit",
                json.dumps({"size": 1.0, "databank": databank}).encode(),
            )
            assert status == 200, reply
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            assert "draining admitted jobs" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # The journal is sealed and replayable: the drain completed cleanly.
        trace = read_trace(journal)
        assert len(trace) == 1
        assert verify_replay(trace).identical


class TestLiveJobTable:
    def test_lp_daemon_keeps_rows_of_active_jobs_only(self, tmp_path, monkeypatch):
        """A paced LP daemon's job table holds the admitted, uncompleted jobs:
        never more rows than active jobs at any replan, none once drained,
        and the journal still replays bit-identically."""
        journal = tmp_path / "paced.jsonl"
        daemon = SchedulerDaemon(
            small_platform(),
            ServiceConfig(scheduler="online", journal=str(journal), time_scale=100.0),
        )
        rows_seen: list[tuple[int, int]] = []
        build = ReplanContext.build_problem

        def spy(context, now, remaining):
            ids = {row[0] for row in context.job_table.rows}
            active = set(daemon.engine.state.active)
            assert ids <= active
            rows_seen.append((len(ids), len(active)))
            return build(context, now, remaining)

        monkeypatch.setattr(ReplanContext, "build_problem", spy)
        daemon.start()
        banks = ("sp", "nt", "pdb")
        n_jobs = 90
        for i in range(n_jobs):
            daemon.submit(SubmissionRequest(size=0.2 + 0.1 * (i % 4), databank=banks[i % 3]))
            if i % 3 == 2:
                time.sleep(0.01)  # let the paced engine complete and replan
        result = drain(daemon)
        monkeypatch.undo()  # the replay below runs its own contexts
        assert sorted(result.completions) == list(range(n_jobs))
        assert daemon.scheduler._context.job_table.rows == ()
        assert len(rows_seen) > 10
        assert max(rows for rows, _active in rows_seen) < n_jobs // 2
        check = verify_replay(read_trace(journal))
        assert check.identical, check.detail


class TestPacedClock:
    def test_paced_daemon_assigns_wall_clock_releases(self):
        daemon = SchedulerDaemon(
            small_platform(), ServiceConfig(scheduler="fcfs", time_scale=50.0)
        )
        daemon.start()
        _, r0 = daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        time.sleep(0.05)
        _, r1 = daemon.submit(SubmissionRequest(size=1.0, databank="sp"))
        assert r1 >= r0  # monotone admission clock
        assert r1 > 0.0  # the wall clock actually advanced virtual time
        result = drain(daemon)
        assert sorted(result.completions) == [0, 1]
