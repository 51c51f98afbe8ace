"""Chaos tests: worker crashes and the fault axis under the campaign engine.

Two robustness contracts of :mod:`repro.experiments.runner`:

* SIGKILLing a pool worker mid-campaign breaks that lane's process pool;
  the runner rebuilds the pool, re-dispatches the stranded units, and the
  final record set (and checkpoint journal) is exactly the one a serial
  run produces -- every triple exactly once; a unit that keeps killing its
  worker aborts the campaign after ``_MAX_UNIT_RETRIES`` re-runs, and only
  that unit is charged for the crashes;
* the fault axis (seeded availability timelines regenerated in-worker) is
  bit-identical at any worker count, with the solver-state bank on or
  off and on either solver backend, including the NaN-metrics ``failed``
  records of fault-unaware schedulers.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time

import pytest

import repro.experiments.runner as runner_mod
from repro.core.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import CampaignCheckpoint
from repro.experiments.runner import campaign_tasks, run_campaign

FAULT_CONFIG = ExperimentConfig(
    name="chaos", n_clusters=2, n_databanks=2, availability=0.6,
    density=1.0, processors_per_cluster=2, window=12.0, max_jobs=6,
    fault_mtbf=5.0, fault_mttr=1.0,
)
KEYS = ("online", "swrpt", "offline")
REPLICATES = 2
SEED = 23


@pytest.fixture(scope="module")
def fault_serial():
    return run_campaign(
        [FAULT_CONFIG], scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED
    )


class TestFaultAxisCampaigns:
    def test_fault_unaware_scheduler_fails_cleanly(self, fault_serial):
        """Offline under faults: failed NaN records, campaign survives."""
        by_key = {}
        for record in fault_serial:
            by_key.setdefault(record.scheduler, []).append(record)
        for record in by_key["Offline"]:
            assert record.failed and math.isnan(record.max_stretch)
        for name in ("Online", "SWRPT"):
            assert all(not r.failed for r in by_key[name])

    def test_fault_axis_differs_from_fault_free(self, fault_serial):
        import dataclasses

        plain_config = dataclasses.replace(
            FAULT_CONFIG, fault_mtbf=None, fault_mttr=None
        )
        plain = run_campaign(
            [plain_config], scheduler_keys=("online",), replicates=REPLICATES,
            base_seed=SEED,
        )
        faulty = [r for r in fault_serial if r.scheduler == "Online"]
        assert [r.max_stretch for r in plain] != [r.max_stretch for r in faulty]

    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize(
        "bank,backend", [(True, "auto"), (False, "auto"), (True, "scipy")]
    )
    def test_bit_identical_across_workers_bank_backend(
        self, fault_serial, n_workers, bank, backend
    ):
        import dataclasses

        config = dataclasses.replace(
            FAULT_CONFIG, state_bank=bank, solver_backend=backend
        )
        serial = run_campaign(
            [config], scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED
        )
        pooled = run_campaign(
            [config], scheduler_keys=KEYS, replicates=REPLICATES, base_seed=SEED,
            n_workers=n_workers,
        )
        assert pooled.result_set() == serial.result_set()
        # The bank never changes the objective values, only how they are
        # computed -- so every variant on the fixture's backend also matches
        # the fixture run.
        if backend == "auto":
            assert pooled.result_set() == fault_serial.result_set()


class TestEmptyTimelineIdentity:
    """Acceptance gate: the fault machinery is invisible when unused."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "bank,backend", [(True, "auto"), (False, "auto"), (True, "scipy")]
    )
    def test_fault_free_campaign_identical_at_any_worker_count(
        self, n_workers, bank, backend
    ):
        import dataclasses

        config = dataclasses.replace(
            FAULT_CONFIG, fault_mtbf=None, fault_mttr=None, state_bank=bank,
            solver_backend=backend,
        )
        assert config.fault_spec() is None
        serial = run_campaign(
            [config], scheduler_keys=("online", "swrpt"), replicates=REPLICATES,
            base_seed=SEED,
        )
        pooled = run_campaign(
            [config], scheduler_keys=("online", "swrpt"), replicates=REPLICATES,
            base_seed=SEED, n_workers=n_workers,
        )
        assert pooled.result_set() == serial.result_set()
        assert all(not r.failed for r in pooled)


class TestWorkerCrashRecovery:
    def test_sigkill_mid_campaign_recovers_bit_identically(
        self, fault_serial, tmp_path
    ):
        """Satellite 2: SIGKILL a pool worker; the campaign still delivers
        every record exactly once, and a subsequent --resume has nothing
        left to do."""
        journal = tmp_path / "chaos.jsonl"
        killed = []

        def kill_one_worker(progress) -> None:
            if killed:
                return
            # The pool workers are this process's multiprocessing children;
            # SIGKILL one of them mid-flight to break its lane's pool.
            for child in multiprocessing.active_children():
                if child.pid is not None:
                    os.kill(child.pid, signal.SIGKILL)
                    killed.append(child.pid)
                    return

        results = run_campaign(
            [FAULT_CONFIG], scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED, n_workers=2, checkpoint=journal,
            progress=kill_one_worker,
        )
        assert killed, "no pool worker was alive to kill"
        assert results.result_set() == fault_serial.result_set()
        # Exactly-once journal coverage despite the re-dispatch.
        done = CampaignCheckpoint(journal).load()
        expected = {
            t.triple for t in campaign_tasks([FAULT_CONFIG], KEYS, REPLICATES, SEED)
        }
        assert set(done) == expected
        assert len(done) == len(expected)

        # A resume of the completed journal recomputes nothing.
        events = []
        resumed = run_campaign(
            [FAULT_CONFIG], scheduler_keys=KEYS, replicates=REPLICATES,
            base_seed=SEED, checkpoint=journal, resume=True,
            progress=events.append,
        )
        assert events == []
        assert resumed.result_set() == fault_serial.result_set()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker body reaches pool workers only by fork",
    )
    def test_poisonous_unit_aborts_after_max_retries(self, monkeypatch, tmp_path):
        """A group that kills its worker every time aborts the campaign with
        its triple named, after exactly ``_MAX_UNIT_RETRIES + 1`` crashes of
        its own; a crash of another group is never charged to it, and every
        other group still delivers its records."""
        import dataclasses

        config = dataclasses.replace(FAULT_CONFIG, fault_mtbf=None, fault_mttr=None)
        keys = ("swrpt", "mct")
        tasks = campaign_tasks([config], keys, 4, SEED)
        # Replicates 0..3 are dealt to lanes 0, 1, 0, 1: replicate 2 is the
        # last group of lane 0, so every other group can finish before it.
        # Replicate 0 runs ahead of it on the same lane and crashes once.
        flaky = tasks[0]
        poisoned = next(task for task in tasks if task.replicate == 2)
        others_done = tmp_path / "others-done"
        run_one = runner_mod._run_one

        def crash_on_poison(state, cfg, instance, replicate, key, seed, options):
            if seed == flaky.seed and not (tmp_path / "flaky-crashed").exists():
                (tmp_path / "flaky-crashed").touch()
                os._exit(1)
            if seed == poisoned.seed:
                # Crash only once every other group is in, so the abort
                # cannot race the other lane.
                deadline = time.monotonic() + 60.0
                while not others_done.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                (tmp_path / f"poison-crash-{os.getpid()}").touch()
                os._exit(1)
            return run_one(state, cfg, instance, replicate, key, seed, options)

        monkeypatch.setattr(runner_mod, "_run_one", crash_on_poison)
        reached = set()

        def collect(progress) -> None:
            reached.add(progress.triple)
            if len(reached) == len(tasks) - len(keys):
                others_done.touch()

        with pytest.raises(ReproError, match="crashed its worker") as caught:
            run_campaign(
                [config], scheduler_keys=keys, replicates=4, base_seed=SEED,
                n_workers=2, progress=collect,
            )
        assert str(poisoned.triple) in str(caught.value)
        crashes = list(tmp_path.glob("poison-crash-*"))
        assert len(crashes) == runner_mod._MAX_UNIT_RETRIES + 1
        assert reached == {task.triple for task in tasks if task.seed != poisoned.seed}
