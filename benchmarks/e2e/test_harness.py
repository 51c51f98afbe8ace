"""Tests of the benchmark harness itself (not of the system under test).

Run explicitly -- tier-1 (``testpaths = tests``) does not collect it::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import cli, stats  # noqa: E402
from benchmarks.e2e.common import install_lp_spans  # noqa: E402
from benchmarks.e2e.metrics import (  # noqa: E402
    END_TO_END,
    EXTRAS,
    PER_LAYER,
    WORKLOADS,
    metric_payload,
)
from benchmarks.e2e.openloop import (  # noqa: E402
    NO_REPLY,
    KeepAliveClient,
    PerConnectionClient,
    run_open_loop,
)
from benchmarks.e2e.tracer import (  # noqa: E402
    Tracer,
    durations,
    inclusive_seconds,
    self_seconds,
)


# -- percentiles -------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 99.9) == 100
    assert stats.percentile([7.0], 99) == 7.0
    # Always an observed sample, never an interpolation.
    assert stats.percentile([1.0, 10.0], 50) == 1.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),      # nothing has ten samples beyond it
        (39, None),      # p75 of 39 leaves 9 beyond
        (40, 75.0),      # p75 of 40 leaves exactly 10
        (100, 90.0),     # p90 leaves 10, p95 only 5
        (200, 95.0),
        (999, 95.0),     # p99 of 999 leaves 9
        (1000, 99.0),    # p99 of 1000 leaves exactly 10
        (1080, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_latency_summary_falls_back_to_the_maximum():
    summary = stats.latency_summary([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_q": 100.0, "tail": 3.0}
    big = stats.latency_summary(list(range(1000)))
    assert big["tail_q"] == 99.0 and big["tail"] == 989


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = stats.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / median
    assert stats.quartiles([4.2]) == (4.2, 4.2, 4.2)
    assert stats.spread([4.2]) == 0.0


# -- span arithmetic ---------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@contextmanager
def span(tracer, name):
    opened = tracer.begin(name)
    try:
        yield opened
    finally:
        tracer.end(opened)


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with span(tracer, "replan"):                 # 0 .. 10
        clock.now = 1.0
        with span(tracer, "search"):             # 1 .. 5
            clock.now = 2.0
            with span(tracer, "solve"):          # 2 .. 3
                clock.now = 3.0
            with span(tracer, "solve"):          # 3 .. 4.5 (sibling)
                clock.now = 4.5
            clock.now = 5.0
        with span(tracer, "materialize"):        # 5 .. 7 (sibling of search)
            clock.now = 7.0
        clock.now = 10.0
    own = self_seconds(tracer.spans)
    assert own == pytest.approx(
        {"replan": 10 - 4 - 2, "search": 4 - 1 - 1.5, "solve": 2.5, "materialize": 2.0}
    )
    assert sum(own.values()) == pytest.approx(10.0)  # the parts sum to the whole
    assert inclusive_seconds(tracer.spans) == pytest.approx(
        {"replan": 10.0, "search": 4.0, "solve": 2.5, "materialize": 2.0}
    )
    assert durations(tracer.spans, "solve") == pytest.approx([1.0, 1.5])
    parents = {s.name: s.parent.name if s.parent else None for s in tracer.spans}
    assert parents == {"replan": None, "search": "replan", "solve": "search",
                       "materialize": "replan"}


def test_an_override_calling_super_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with span(tracer, "assign"):
        clock.now = 1.0
        with span(tracer, "assign"):  # super().assign()
            clock.now = 3.0
        clock.now = 4.0
    assert inclusive_seconds(tracer.spans) == {"assign": 4.0}
    assert durations(tracer.spans, "assign") == [4.0]
    assert self_seconds(tracer.spans) == {"assign": 4.0}


def test_spans_round_trip_through_jsonl(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.run = "unit-7"
    with span(tracer, "outer"):
        clock.now = 1.0
        with span(tracer, "inner"):
            clock.now = 2.0
    rows = [json.loads(line) for line in tracer.write(tmp_path / "spans.jsonl").open()]
    assert rows == [
        {"id": 0, "name": "outer", "start": 0.0, "end": 2.0, "parent": None, "run": "unit-7"},
        {"id": 1, "name": "inner", "start": 1.0, "end": 2.0, "parent": 0, "run": "unit-7"},
    ]


# -- wrapping ----------------------------------------------------------------------
def test_tracer_restores_every_wrapped_callable():
    import repro.lp.aggregation as aggregation
    import repro.schedulers.online_lp as online_lp
    from repro.lp.backends import SolverBackend
    from repro.lp.incremental import ReplanContext
    from repro.schedulers.base import PriorityScheduler
    from repro.simulation.engine import SimulationEngine

    watched = [
        (SimulationEngine, "run"),
        (SolverBackend, "solve"),
        (ReplanContext, "solve_max_stretch"),
        (PriorityScheduler, "assign"),
        (online_lp, "materialize_solution"),
        (aggregation, "materialize_solution"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer()
    try:
        install_lp_spans(tracer)
        assert all(vars(o)[a] is not f for (o, a), f in zip(watched, before))
        assert len(tracer._patched) >= len(watched)
    finally:
        tracer.restore()
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert tracer._patched == []
    tracer.restore()  # idempotent


def test_wrapped_calls_record_spans_and_pass_results_on():
    from repro import api
    from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

    instance = generate_instance(
        PlatformSpec(n_clusters=2, processors_per_cluster=2, n_databanks=2),
        WorkloadSpec(density=1.0, window=10.0, max_jobs=5),
        rng=3,
    )
    seen = []
    tracer = Tracer()
    try:
        install_lp_spans(tracer, on_result=seen.append)
        result = api.simulate(instance, "online")
    finally:
        tracer.restore()
    assert seen == [result]
    names = {span.name for span in tracer.spans}
    assert {"engine.run", "scheduler.replan", "replan_ctx.solve_max_stretch",
            "search", "backend.solve", "aggregation.materialize"} <= names
    replans = durations(tracer.spans, "scheduler.replan")
    assert len(replans) == len(result.lp_probes.replan_latencies)
    assert len(durations(tracer.spans, "backend.solve")) == result.lp_probes.n_probes
    # Untraced again: no new spans once restored.
    count = len(tracer.spans)
    api.simulate(instance, "online")
    assert len(tracer.spans) == count


# -- open-loop accounting ----------------------------------------------------------
def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()
    service = {"a": 0.01, "b": 0.5, "c": 0.01, "d": 0.01}  # b stalls for 0.5 s

    def send(payload):
        clock.now += service[payload]
        return 200

    schedule = [(0.0, "a"), (0.1, "b"), (0.2, "c"), (0.3, "d")]
    sent = run_open_loop(schedule, send, clock=clock, sleep=clock.sleep)
    assert [s.due for s in sent] == [0.0, 0.1, 0.2, 0.3]
    # a and b go out on time; c and d were due while b was stalled.
    assert [s.sent for s in sent] == pytest.approx([0.0, 0.1, 0.6, 0.61])
    assert [s.lateness for s in sent] == pytest.approx([0.0, 0.0, 0.4, 0.31])
    # Latency runs from the due time, so the stall is charged to c and d too.
    assert [s.latency for s in sent] == pytest.approx([0.01, 0.5, 0.41, 0.32])
    assert [s.round_trip for s in sent] == pytest.approx([0.01, 0.5, 0.01, 0.01])
    assert all(s.status == 200 for s in sent)


def test_open_loop_waits_for_the_due_time_when_on_schedule():
    clock = FakeClock()
    sent = run_open_loop(
        [(0.0, None), (1.0, None)], lambda _: 200, clock=clock, sleep=clock.sleep
    )
    assert [s.sent for s in sent] == [0.0, 1.0]
    assert [s.lateness for s in sent] == [0.0, 0.0]


def test_a_request_without_a_reply_is_a_failed_operation_not_a_crash():
    import socket

    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    for client in (
        PerConnectionClient(f"http://127.0.0.1:{port}"),
        KeepAliveClient("127.0.0.1", port),
    ):
        sent = run_open_loop([(0.0, b"{}"), (0.0, b"{}")], client.send)
        assert [s.status for s in sent] == [NO_REPLY, NO_REPLY]
        client.close()


# -- schema ------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    contract = cli.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert "setup_s" in END_TO_END
    assert contract["paths"] == ["benchmarks/e2e"]


def test_contract_line_carries_every_metric_of_its_kind():
    payload = metric_payload({"wall_s": 1.5}, END_TO_END)
    assert set(payload) == set(END_TO_END)
    assert payload["wall_s"] == {"value": 1.5, "unit": "s"}
    assert set(metric_payload({}, PER_LAYER)) == set(PER_LAYER)


def test_a_workload_entry_keeps_every_pass_of_every_metric_and_extra():
    def run(wall, rate):
        return {
            "end_to_end": {name: wall for name in END_TO_END},
            "extras": {"records_per_s": rate},
            "attempted": 10, "failed": 0, "correct": True, "problems": [],
            "digests": {"records": "abc"}, "detail": {},
        }

    entry = cli.aggregate([run(2.0, 30.0), run(1.0, 10.0), run(3.0, 20.0)], None)
    assert entry["end_to_end"]["wall_s"] == {
        "unit": "s", "better": "lower", "values": [2.0, 1.0, 3.0],
        "q1": 1.0, "median": 2.0, "q3": 3.0,
    }
    assert entry["extras"] == {"records_per_s": {
        "unit": "1/s", "better": "higher", "values": [30.0, 10.0, 20.0],
        "q1": 10.0, "median": 20.0, "q3": 30.0,
    }}
    assert entry["ops_failed_frac"] == 0.0 and entry["digests_stable"] and entry["correct"]


def _result(values_by_metric, failed=0, resolved="highs", digest="abc", extras=None):
    workload = {
        "end_to_end": {
            name: {"unit": unit, "better": better, **cli.summarize(values_by_metric[name])}
            for name, (unit, better) in END_TO_END.items()
        },
        "extras": {
            name: {"unit": EXTRAS[name][0], "better": EXTRAS[name][1], **cli.summarize(values)}
            for name, values in (extras or {}).items()
        },
        "ops_failed_frac": failed / 100,
        "digests": {"0": digest},
    }
    return {
        "schema": cli.SCHEMA,
        "comparable": True,
        "seed": 1,
        "seconds": 20.0,
        "environment": {"backend.resolved": resolved},
        "workloads": {name: workload for name in WORKLOADS},
    }


def test_compare_verdicts():
    contract = {"end_to_end": [
        {"name": name, "unit": unit, "better": better, "bound": 0.1}
        for name, (unit, better) in END_TO_END.items()
    ]}
    flat = {name: [10.0, 10.1, 9.9] for name in END_TO_END}
    base = _result(flat)
    new = _result({
        **flat,
        "wall_s": [12.0, 12.1, 11.9],        # +20 % on a 10 % bound
        "op_p50_ms": [8.0, 8.1, 7.9],        # every run better than every base run
        "op_tail_ms": [5.0, 10.0, 20.0],     # spread wider than the bound
        "setup_s": [10.02, 10.03, 10.04],    # < 50 ms: ignored
    }, failed=1)
    rows = {
        r["metric"]: r["verdict"]
        for r in cli.compare_results(base, new, contract)
        if r["workload"] == "online_dense"
    }
    assert rows == {
        "wall_s": "worse",
        "op_p50_ms": "better",
        "op_tail_ms": "unresolved",
        "peak_rss_mb": "within",
        "setup_s": "within",
        "ops_failed_frac": "worse",
    }
    assert cli.verdict([10.0] * 3, [10.5] * 3, "higher", 0.1)[0] == "better"
    assert cli.verdict([10.0] * 3, [8.5] * 3, "higher", 0.1)[0] == "worse"


def test_compare_gates_the_workload_specific_extras():
    contract = {"end_to_end": []}
    flat = {name: [1.0] * 3 for name in END_TO_END}
    base = _result(flat, extras={
        "max_rate_ok": [40.0] * 3, "submit_p50_ms.ka20": [80.0, 79.0, 81.0],
        "records_per_s": [24.0, 23.0, 25.0], "burst_settle_s.r80": [6.0, 5.8, 6.1],
    })
    new = _result(flat, extras={
        "max_rate_ok": [40.0, 20.0, 20.0],             # the knee moved down a step
        "submit_p50_ms.ka20": [99.0, 98.0, 101.0],     # +24 % on a 15 % bound
        "records_per_s": [16.0, 15.0, 17.0],           # a third fewer, higher is better
        "burst_settle_s.r80": [6.2, 6.0, 6.1],
    })
    rows = {
        r["metric"]: r["verdict"]
        for r in cli.compare_results(base, new, contract)
        if r["workload"] == "daemon_openloop"
    }
    assert rows == {
        "max_rate_ok": "worse",
        "submit_p50_ms.ka20": "worse",
        "records_per_s": "worse",
        "burst_settle_s.r80": "within",
        "ops_failed_frac": "within",
    }
    one_flip = _result(flat, extras={"max_rate_ok": [40.0, 40.0, 20.0]})
    assert cli.compare_results(base, one_flip, contract)[0]["verdict"] == "within"


def test_compare_fails_on_different_outputs_for_one_seed(tmp_path, capsys):
    flat = {name: [1.0, 1.0] for name in END_TO_END}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(flat)))
    b.write_text(json.dumps(_result(flat, digest="xyz")))
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "output digests: DIFFERENT" in capsys.readouterr().out
    other_seed = {**_result(flat, digest="xyz"), "seed": 2}
    b.write_text(json.dumps(other_seed))
    assert cli.main(["compare", str(a), str(b)]) == 0
    shorter = {**_result(flat), "seconds": 5.0}
    b.write_text(json.dumps(shorter))
    assert cli.main(["compare", str(a), str(b)]) == 2
    assert "refusing to compare" in capsys.readouterr().err


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    flat = {name: [1.0, 1.0] for name in END_TO_END}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(flat, resolved="highs")))
    b.write_text(json.dumps(_result(flat, resolved="scipy")))
    assert cli.main(["compare", str(a), str(b)]) == 2
    assert "refusing to compare" in capsys.readouterr().err
    b.write_text(json.dumps(_result(flat, resolved="highs")))
    assert cli.main(["compare", str(a), str(b)]) == 0
