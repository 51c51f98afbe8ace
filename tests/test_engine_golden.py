"""Golden fixture: full-slice digests of the heuristics on one wide instance.

``tests/golden/engine_slices_120x200.json`` was generated from the commit
*before* the engine switched to run-length slice recording and the greedy
rule was keyed by databank; the plan-following LP schedulers were added from
the commit before plans became lanes per capability class, and ``bender98``
from the commit before the kernel tiers were deleted (``PYTHONPATH=<that
checkout>/src python tests/test_engine_golden.py`` rewrites it).  The LP
schedulers' digests were re-frozen once when Systems (1)/(2) moved to one
column set per job class (a different LP, so a different vertex), System
(2)'s split across resources became a fixed rule and ``offline`` began to
pick its optimum with a generic cost; ``online-nonopt`` alone was re-frozen
once more when it began to install that pick instead of a raw System (1)
vertex.  The heuristic and ``bender98`` digests did not move, ``bender98``'s
not even when it moved from the one-shot ``linprog`` path to the persistent
HiGHS backend.  Each digest
covers every slice of the realized schedule -- ``job_id, machine_id, start,
end, work``, floats in hex -- so a change in any bit of any slice, or in the
number or order of slices, fails the test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
import scipy

from repro import api
from repro.core.instance import Instance
from repro.workload.generator import (
    PlatformSpec,
    WorkloadSpec,
    generate_platform,
    generate_workload,
)

from scipy_backend import ScipyBackend

FIXTURE = Path(__file__).parent / "golden" / "engine_slices_120x200.json"

#: The LP schedulers derive ranks and plans from LP optima; they run on the
#: tests' stateless one-shot ``linprog`` reference (``scipy_backend.py``, a
#: fresh instance per run, see :func:`scheduler_options`), bit-stable for a
#: given scipy release.  The plan followers (``online``, ``online-edf``,
#: ``online-nonopt``, ``offline``) were added from the commit before plans
#: became lanes per capability class.
LP_SCHEDULERS = ("online-egdf", "online", "online-edf", "online-nonopt", "offline")
SCHEDULERS: dict[str, dict] = {
    "swrpt": {},
    "srpt": {},
    "spt": {},
    "bender02": {},
    "mct": {},
    "mct-div": {},
    **{key: {} for key in LP_SCHEDULERS},
    # Re-solves the off-line problem at every release, on the package's
    # persistent HiGHS backend (it takes no backend option), capped to the 8
    # latest jobs per resolution.  The one registry scheduler behind the
    # ``expand_deadlines`` kernel; cut from the commit before the kernel tiers
    # were deleted.
    "bender98": {"max_jobs_per_resolution": 8},
}
#: The on-line LP schedulers solve one LP search per arrival (43 s at 120
#: jobs), so they run on the first 40 jobs of the instance: same platform.
#: ``offline`` takes 39: with the 40th, one probe of its whole-run search
#: on the per-job LP failed ``highs-ipm`` with status 4 and was cleared only
#: by the scipy backend's retry with ``highs-ds`` (``tests/test_resilience.py``
#: runs that slice); the fixture predates the retry and keeps the 39-job slice.
#: ``bender98`` shares the slice, and the scipy pin, of the LP schedulers.
LP_JOBS = {key: 40 for key in (*LP_SCHEDULERS, "bender98")} | {"offline": 39}


def scheduler_options(key: str) -> dict:
    """The options of ``key``'s golden run: LP keys get a fresh linprog reference."""
    options = dict(SCHEDULERS[key])
    if key in LP_SCHEDULERS:
        options["solver_backend"] = ScipyBackend()
    return options


def wide_instance() -> Instance:
    """120 jobs on the paper's largest platform shape (20 sites x 10 processors)."""
    platform, catalog = generate_platform(
        PlatformSpec(n_clusters=20, processors_per_cluster=10, n_databanks=20, availability=0.6),
        rng=2006,
    )
    jobs = generate_workload(
        platform, catalog, WorkloadSpec(density=1.5, window=2.0, max_jobs=120), rng=13
    )
    return Instance(jobs, platform)


def slice_digest(key: str, instance: Instance) -> dict:
    if key in LP_JOBS:
        instance = instance.restrict_jobs(job.job_id for job in instance.jobs[: LP_JOBS[key]])
    result = api.simulate(instance, key, scheduler_options=scheduler_options(key))
    sha = hashlib.sha256()
    for s in result.schedule:
        sha.update(
            f"{s.job_id},{s.machine_id},{s.start.hex()},{s.end.hex()},{s.work.hex()}\n".encode()
        )
    return {
        "sha256": sha.hexdigest(),
        "n_slices": len(result.schedule),
        "n_decisions": result.n_decisions,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def instance() -> Instance:
    instance = wide_instance()
    assert (instance.n_jobs, instance.n_machines) == (120, 200)
    return instance


@pytest.mark.parametrize("key", list(SCHEDULERS))
def test_full_slice_digest_matches_golden(key, golden, instance):
    if key in LP_JOBS and scipy.__version__ != golden["scipy"]:
        pytest.skip(
            f"LP-derived floats are pinned to scipy {golden['scipy']}, "
            f"this is {scipy.__version__}"
        )
    assert slice_digest(key, instance) == golden["digests"][key]


if __name__ == "__main__":
    instance = wide_instance()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {
                "scipy": scipy.__version__,
                "digests": {key: slice_digest(key, instance) for key in SCHEDULERS},
            },
            indent=2,
        )
        + "\n"
    )
    print(FIXTURE.read_text())
