"""Fault injection: timelines, loss models, engine behavior under outages.

The headline contracts:

* an **empty** fault timeline is bit-identical to the fault-free engine --
  ``faults=FaultTimeline()`` and ``faults=None`` produce the same schedule,
  the same completions, the same everything;
* machines never process work while down (no slice overlaps an outage);
* jobs whose every eligible machine is permanently gone are *parked* and
  scored with the infinite-stretch starvation bound, never crashed on;
* generated traces are deterministic under a seed and survive a JSONL
  round-trip exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ModelError, ScheduleError
from repro.core.job import Job
from repro.core.instance import Instance
from repro.core.platform import Platform
from repro.schedulers.offline import OfflineScheduler
from repro.schedulers.priority import FCFSScheduler, SRPTScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.simulation.faults import (
    FaultEvent,
    FaultTimeline,
    _coerce_timeline,
    apply_loss,
    load_fault_timeline,
    save_fault_timeline,
)
from repro.workload.faults import FaultSpec, generate_fault_timeline

from helpers import initial_down, make_uniform_instance
from replan_oracles import FromScratchOnlineLP
from scipy_backend import ScipyBackend


class TestApplyLoss:
    def test_resume_keeps_remaining(self):
        assert apply_loss(3.0, 10.0, loss_model="resume") == 3.0

    def test_restart_restores_full_size(self):
        assert apply_loss(3.0, 10.0, loss_model="restart") == 10.0

    def test_restart_with_checkpoint_keeps_saved_progress(self):
        # 7 units processed, half checkpointed: 3.5 survive the failure.
        kept = apply_loss(3.0, 10.0, loss_model="restart", checkpoint_fraction=0.5)
        assert kept == pytest.approx(6.5)

    def test_restart_never_exceeds_size_nor_shrinks_remaining(self):
        assert apply_loss(10.0, 10.0, loss_model="restart") == 10.0
        # Full checkpointing: nothing is lost.
        assert apply_loss(2.0, 10.0, loss_model="restart", checkpoint_fraction=1.0) == 10.0 - 8.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError, match="unknown loss model"):
            apply_loss(1.0, 2.0, loss_model="checkpointless")


class TestFaultTimeline:
    def test_event_rejects_negative_and_non_finite_times(self):
        with pytest.raises(ModelError):
            FaultEvent(time=-1.0, machine_id=0, up=False)
        with pytest.raises(ModelError):
            FaultEvent(time=math.inf, machine_id=0, up=False)

    def test_empty_timeline_is_falsy(self):
        assert not FaultTimeline()
        assert bool(FaultTimeline.from_intervals([(0, 1.0, 2.0)]))

    def test_up_without_down_rejected(self):
        with pytest.raises(ModelError, match="without being down"):
            FaultTimeline([FaultEvent(time=1.0, machine_id=0, up=True)])

    def test_double_down_rejected(self):
        with pytest.raises(ModelError, match="already down"):
            FaultTimeline(
                [
                    FaultEvent(time=1.0, machine_id=0, up=False),
                    FaultEvent(time=2.0, machine_id=0, up=False),
                ]
            )

    def test_interval_round_trip(self):
        rows = [(0, 1.0, 2.5), (1, 0.5, None), (0, 4.0, None)]
        timeline = FaultTimeline.from_intervals(
            rows, loss_model="restart", checkpoint_fraction=0.25
        )
        assert timeline.intervals() == sorted(rows, key=lambda r: (r[1], r[0]))
        assert timeline.loss_model == "restart"
        assert timeline.checkpoint_fraction == 0.25
        assert timeline.machine_ids() == (0, 1)

    def test_interval_must_end_after_it_starts(self):
        with pytest.raises(ModelError, match="must end after"):
            FaultTimeline.from_intervals([(0, 2.0, 2.0)])

    def test_restrict_and_queries(self):
        timeline = FaultTimeline.from_intervals([(0, 1.0, 2.0), (1, 0.5, 3.0), (2, 4.0, None)])
        only = timeline.restrict_to([1])
        assert only.machine_ids() == (1,)
        assert initial_down(timeline, 1.5) == {0, 1}
        assert [e.time for e in timeline.transitions_after(2.0)] == [2.0, 3.0, 4.0]

    def test_jsonl_round_trip(self, tmp_path):
        timeline = FaultTimeline.from_intervals(
            [(0, 1.0, 2.5), (1, 0.25, None)],
            loss_model="restart",
            checkpoint_fraction=0.5,
        )
        path = tmp_path / "faults.jsonl"
        save_fault_timeline(timeline, path)
        loaded = load_fault_timeline(path)
        assert loaded.intervals() == timeline.intervals()
        assert loaded.loss_model == "restart"
        assert loaded.checkpoint_fraction == 0.5

    def test_coerce_accepts_all_spellings(self, tmp_path):
        timeline = FaultTimeline.from_intervals([(0, 1.0, 2.0)])
        assert _coerce_timeline(None) is None
        assert _coerce_timeline(timeline) is timeline
        assert _coerce_timeline([(0, 1.0, 2.0)]).intervals() == timeline.intervals()
        path = tmp_path / "t.jsonl"
        save_fault_timeline(timeline, path)
        assert _coerce_timeline(str(path)).intervals() == timeline.intervals()


def outage_free(schedule, timeline) -> bool:
    """No work slice overlaps an outage of its machine."""
    for machine_id, down, up in timeline.intervals():
        for s in schedule.slices_on_machine(machine_id):
            hi = math.inf if up is None else up
            if s.end > down + 1e-12 and s.start < hi - 1e-12:
                return False
    return True


class TestEngineUnderFaults:
    def test_single_machine_outage_delays_completion(self):
        instance = make_uniform_instance([4.0], [0.0], cycle_times=(1.0,))
        faults = FaultTimeline.from_intervals([(0, 1.0, 3.0)])
        result = simulate(instance, FCFSScheduler(), faults=faults)
        # 1s of work, a 2s outage, then the remaining 3s: done at 6.
        assert result.completions[0] == pytest.approx(6.0)
        assert outage_free(result.schedule, faults)

    def test_restart_loss_model_repays_lost_progress(self):
        instance = make_uniform_instance([4.0], [0.0], cycle_times=(1.0,))
        faults = FaultTimeline.from_intervals([(0, 1.0, 3.0)], loss_model="restart")
        result = simulate(instance, FCFSScheduler(), faults=faults)
        # The first second of progress is lost: full 4s rerun from t=3.
        assert result.completions[0] == pytest.approx(7.0)

    def test_empty_timeline_is_bit_identical_to_fault_free(self):
        instance = make_uniform_instance(
            [3.0, 1.0, 2.0, 4.0], [0.0, 0.5, 1.0, 6.0], cycle_times=(1.0, 2.0)
        )
        for scheduler_key in ("fcfs", "srpt", "online"):
            plain = simulate(instance, make_scheduler(scheduler_key))
            empty = simulate(
                instance, make_scheduler(scheduler_key), faults=FaultTimeline()
            )
            assert empty.completions == plain.completions
            assert empty.schedule.slices == plain.schedule.slices
            assert empty.parked == plain.parked == {}

    def test_all_machines_permanently_down_parks_jobs(self):
        instance = make_uniform_instance([4.0, 2.0], [0.0, 0.0], cycle_times=(1.0,))
        faults = FaultTimeline.from_intervals([(0, 1.0, None)])
        result = simulate(instance, FCFSScheduler(), faults=faults)
        assert set(result.parked) == {0, 1}
        # Remaining work is sane: positive, finite, at most the job size.
        for job_id, remaining in result.parked.items():
            assert 0.0 < remaining <= instance.job(job_id).size
        assert math.isinf(result.report().max_stretch)

    def test_fault_unaware_scheduler_is_rejected(self):
        instance = make_uniform_instance([2.0], [0.0])
        faults = FaultTimeline.from_intervals([(0, 1.0, 2.0)])
        with pytest.raises(ScheduleError, match="cannot run under a fault timeline"):
            simulate(instance, OfflineScheduler(), faults=faults)

    def test_work_conserved_across_an_outage(self):
        # Two machines, one fails: the survivor absorbs the queue and every
        # unit of work is still delivered exactly once (resume model).
        instance = make_uniform_instance(
            [3.0, 3.0, 2.0], [0.0, 0.0, 0.0], cycle_times=(1.0, 1.0)
        )
        faults = FaultTimeline.from_intervals([(1, 0.5, 2.5)])
        result = simulate(instance, SRPTScheduler(), faults=faults)
        assert result.parked == {}
        assert outage_free(result.schedule, faults)
        for job in instance.jobs:
            done = sum(s.work for s in result.schedule.slices_for_job(job.job_id))
            assert done == pytest.approx(job.size)


class TestEligibilityEdgeCases:
    """The three ISSUE-mandated WAKEUP-seam edge cases."""

    def test_machine_down_exactly_at_arrival_instant(self):
        # Machine 0 dies at t=1.0 -- the very instant job 0 arrives.  The
        # transition applies before the arrival batch, so the scheduler must
        # only ever see machine 1 for this job.
        instance = make_uniform_instance([2.0], [1.0], cycle_times=(1.0, 1.0))
        faults = FaultTimeline.from_intervals([(0, 1.0, 10.0)])
        result = simulate(instance, FCFSScheduler(), faults=faults)
        assert not result.schedule.slices_on_machine(0)
        assert result.completions[0] == pytest.approx(3.0)

    def test_last_eligible_machine_fails_parks_job(self):
        # Databank "a" lives only on machine 0.  When it dies mid-run, job 0
        # parks (starvation bound, stretch inf) while job 1 finishes cleanly
        # on the other site.
        platform = Platform.from_clusters([(1, 1.0, ["a"]), (1, 1.0, ["b"])])
        jobs = [
            Job(0, release=0.0, size=3.0, databank="a"),
            Job(1, release=0.0, size=2.0, databank="b"),
        ]
        instance = Instance(jobs, platform)
        faults = FaultTimeline.from_intervals([(0, 1.0, None)])
        result = simulate(instance, FCFSScheduler(), faults=faults)
        assert set(result.parked) == {0}
        assert result.parked[0] == pytest.approx(2.0)
        assert result.completions[1] == pytest.approx(2.0)
        report = result.report()
        assert math.isinf(report.max_stretch)

    @pytest.mark.parametrize("scheduler_key", ["online", "swrpt"])
    def test_up_during_idle_gap_is_a_clean_replan(self, scheduler_key):
        # An UP transition lands inside the idle gap between the first batch
        # draining (by t~4) and the t=10 arrival.  The arrival's replan sees
        # the restored platform: every job completes, nothing runs on the
        # machine while it is down, and the on-line LP still matches its
        # from-scratch oracle exactly.
        instance = make_uniform_instance(
            [2.0, 1.0, 3.0], [0.0, 0.0, 10.0], cycle_times=(1.0, 1.0)
        )
        faults = FaultTimeline.from_intervals([(1, 0.5, 7.0)])
        def options():  # a fresh linprog reference per run: exact equality
            return {"solver_backend": ScipyBackend()} if scheduler_key == "online" else {}

        result = simulate(instance, make_scheduler(scheduler_key, **options()), faults=faults)
        assert not result.parked
        assert sorted(result.completions) == [0, 1, 2]
        assert result.completions[2] > 10.0
        assert outage_free(result.schedule, faults)
        if scheduler_key == "online":
            oracle = simulate(instance, FromScratchOnlineLP(**options()), faults=faults)
            assert result.completions == oracle.completions
            assert result.schedule.slices == oracle.schedule.slices


class TestGeneratedTraces:
    PLATFORM = Platform.from_clusters(
        [(2, 1.0, ["a", "b"]), (2, 2.0, ["b", "c"]), (1, 1.5, ["a", "c"])]
    )
    SPEC = FaultSpec(mtbf=4.0, mttr=1.5, horizon=30.0)

    def test_generation_is_deterministic_per_seed(self):
        one = generate_fault_timeline(self.PLATFORM, self.SPEC, rng=7)
        two = generate_fault_timeline(self.PLATFORM, self.SPEC, rng=7)
        other = generate_fault_timeline(self.PLATFORM, self.SPEC, rng=8)
        assert one.intervals() == two.intervals()
        assert one.intervals() != other.intervals()

    def test_machine_fraction_limits_the_fault_prone_set(self):
        spec = FaultSpec(mtbf=1.0, mttr=0.5, horizon=50.0, machine_fraction=0.4)
        timeline = generate_fault_timeline(self.PLATFORM, spec, rng=3)
        assert len(timeline.machine_ids()) <= 2  # 40% of 5 machines

    def test_spec_validation(self):
        with pytest.raises(ModelError):
            FaultSpec(mtbf=0.0, mttr=1.0, horizon=10.0)
        with pytest.raises(ModelError):
            FaultSpec(mtbf=1.0, mttr=1.0, horizon=10.0, machine_fraction=1.5)
        with pytest.raises(ModelError):
            FaultSpec(mtbf=1.0, mttr=1.0, horizon=10.0, loss_model="meltdown")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scheduler_key", ["fcfs", "srpt", "online"])
    def test_property_suite_under_generated_faults(self, seed, scheduler_key):
        """Seeded chaos: no crash, full accounting, no work while down."""
        jobs = [
            Job(0, release=0.0, size=4.0, databank="a"),
            Job(1, release=0.5, size=2.0, databank="b"),
            Job(2, release=1.0, size=6.0, databank="c"),
            Job(3, release=3.0, size=1.0, databank="b"),
            Job(4, release=5.0, size=3.0, databank="a"),
            Job(5, release=8.0, size=2.5, databank="c"),
        ]
        instance = Instance(jobs, self.PLATFORM)
        timeline = generate_fault_timeline(self.PLATFORM, self.SPEC, rng=seed)
        result = simulate(instance, make_scheduler(scheduler_key), faults=timeline)
        # Every job is either completed or parked -- never both, never lost.
        assert set(result.completions) | set(result.parked) == {j.job_id for j in jobs}
        assert not set(result.completions) & set(result.parked)
        for job_id, done in result.completions.items():
            assert math.isfinite(done) and done >= instance.job(job_id).release
        for job_id, remaining in result.parked.items():
            assert 0.0 < remaining <= instance.job(job_id).size
        assert outage_free(result.schedule, timeline)
        report = result.report()
        if result.parked:
            assert math.isinf(report.max_stretch)
        else:
            assert math.isfinite(report.max_stretch)
