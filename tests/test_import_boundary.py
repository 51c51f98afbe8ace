"""The solver stack loads on first use: LP-free work never imports scipy.

Each case runs in a fresh interpreter, since the test process itself has
long since imported scipy.  ``repro.lp.backends`` imports its ``highs``
module (and scipy under it) only when :func:`make_backend` builds the first
backend, or when :func:`load_solver` is called: by a pooled campaign whose
design solves LPs, before it forks its workers, and by a daemon serving an
LP scheduler, at boot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: The run's loaded modules, as the last line of the child's output.
_REPORT = """
import json, sys
print(json.dumps({"scipy": "scipy" in sys.modules,
                  "highs": "repro.lp.backends.highs" in sys.modules}))
"""

#: A design small enough for a few seconds, on the campaign defaults otherwise.
_CONFIG = """
from repro.experiments.config import ExperimentConfig
CONFIG = ExperimentConfig(
    name="tiny", n_clusters=2, n_databanks=2, availability=0.6,
    density=1.0, processors_per_cluster=2, window=10.0, max_jobs=5,
)
"""


def _loaded(*code: str) -> dict[str, bool]:
    """Run the ``code`` blocks in a fresh interpreter; which solver modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, code + (_REPORT,)))],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_lp_free_work_never_imports_scipy():
    loaded = _loaded(
        _CONFIG,
        """
        import repro, repro.cli, repro.service
        from repro import api
        from repro.schedulers.registry import LP_SCHEDULERS, available_schedulers
        from repro.workload.generator import generate_instance

        heuristics = [k for k in available_schedulers() if k not in LP_SCHEDULERS]
        assert {"mct", "mct-div", "bender02", "swrpt"} <= set(heuristics), heuristics
        instance = generate_instance(CONFIG.platform_spec(), CONFIG.workload_spec(), rng=3)
        for key in heuristics:
            assert api.simulate(instance, key).completions
        results = api.run_campaign(
            [CONFIG], scheduler_keys=heuristics, replicates=2, n_workers=1
        )
        assert len(results.records) == 2 * len(heuristics)
        """,
    )
    assert loaded == {"scipy": False, "highs": False}


def test_backend_names_need_no_solver_and_the_first_backend_loads_it():
    loaded = _loaded(
        """
        import sys
        from repro.lp.backends import highs_source, make_backend, resolve_backend_name

        assert resolve_backend_name("auto") == "highs"
        assert highs_source() == "scipy-vendored"
        assert "scipy" not in sys.modules
        assert make_backend().name == "highs"
        """
    )
    assert loaded == {"scipy": True, "highs": True}


@pytest.mark.parametrize(("scheduler", "loads"), [("online", True), ("swrpt", False)])
def test_a_daemon_loads_the_solver_at_boot_only_for_an_lp_scheduler(scheduler, loads):
    loaded = _loaded(
        f"""
        from repro.core.platform import Platform
        from repro.service.daemon import SchedulerDaemon, ServiceConfig

        SchedulerDaemon(
            Platform.uniform([1.0, 1.0], databanks=["db"]),
            ServiceConfig(scheduler={scheduler!r}),
        )
        """
    )
    assert loaded == {"scipy": loads, "highs": loads}


@pytest.mark.parametrize(("keys", "loads"), [(("online", "swrpt"), True), (("swrpt",), False)])
def test_a_pooled_campaign_loads_the_solver_before_forking_only_for_lp_designs(keys, loads):
    # The parent solves nothing itself: the solver is in its modules only
    # if it was loaded for the workers to inherit.
    loaded = _loaded(
        _CONFIG,
        f"""
        from repro import api

        results = api.run_campaign([CONFIG], scheduler_keys={keys!r}, replicates=2, n_workers=2)
        assert len(results.records) == 2 * {len(keys)}
        """,
    )
    assert loaded == {"scipy": loads, "highs": loads}
