"""The solver stack loads on first use: LP-free work never imports scipy.

Each case runs in a fresh interpreter, since the test process itself has
long since imported scipy.  ``repro.lp.backends`` imports its ``highs``
module only when :func:`make_backend` builds the first backend: neither a
daemon's boot nor a pooled campaign's parent loads it.  That module loads top-level ``scipy`` and the HiGHS extension
module scipy vendors, never ``scipy.optimize``; imported in either order,
the two share one extension module object.
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
                  "optimize": "scipy.optimize" in sys.modules,
                  "highs": "repro.lp.backends.highs" in sys.modules}))
"""

#: No solver loaded, and the solver alone: HiGHS without ``scipy.optimize``.
_NOTHING = {"scipy": False, "optimize": False, "highs": False}
_SOLVER = {"scipy": True, "optimize": False, "highs": True}

#: A design small enough for a few seconds, on the campaign defaults otherwise.
_CONFIG = """
from repro.experiments.config import ExperimentConfig
CONFIG = ExperimentConfig(
    name="tiny", n_clusters=2, n_databanks=2, availability=0.6,
    density=1.0, processors_per_cluster=2, window=10.0, max_jobs=5,
)
"""


def _run(*code: str) -> list[str]:
    """Run the ``code`` blocks and the report in a fresh interpreter; its output lines."""
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
    return done.stdout.strip().splitlines()


def _loaded(*code: str) -> dict[str, bool]:
    """Run the ``code`` blocks in a fresh interpreter; which solver modules it loaded."""
    return json.loads(_run(*code)[-1])


def test_lp_free_work_never_imports_scipy():
    loaded = _loaded(
        _CONFIG,
        """
        import repro, repro.cli, repro.service
        from repro import api
        from repro.schedulers.registry import ONLINE_LP_SCHEDULERS, available_schedulers
        from repro.workload.generator import generate_instance

        lp_keys = {*ONLINE_LP_SCHEDULERS, "offline", "offline-sum", "bender98"}
        heuristics = [k for k in available_schedulers() if k not in lp_keys]
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
    assert loaded == _NOTHING


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
    assert loaded == _SOLVER


def test_an_lp_run_loads_highs_without_scipy_optimize():
    loaded = _loaded(
        _CONFIG,
        """
        from repro import api
        from repro.workload.generator import generate_instance

        instance = generate_instance(CONFIG.platform_spec(), CONFIG.workload_spec(), rng=3)
        assert api.simulate(instance, "online").completions
        """,
    )
    assert loaded == _SOLVER


@pytest.mark.parametrize(("scheduler", "loads"), [("online", True), ("swrpt", False)])
def test_a_daemon_loads_the_solver_on_its_first_solve_not_at_boot(scheduler, loads):
    # Booting loads nothing; an LP daemon's first replan pays the load.
    loaded = _loaded(
        f"""
        import sys
        from repro.core.platform import Platform
        from repro.service import SchedulerDaemon, ServiceConfig, SubmissionRequest

        daemon = SchedulerDaemon(
            Platform.uniform([1.0, 1.0], databanks=["db"]),
            ServiceConfig(scheduler={scheduler!r}),
        )
        assert "scipy" not in sys.modules
        daemon.start()
        for size in (1.0, 2.0, 0.5):
            daemon.submit(SubmissionRequest(size=size, databank="db"))
        daemon.close_submissions()
        assert sorted(daemon.join(timeout=60.0).completions) == [0, 1, 2]
        """
    )
    assert loaded == (_SOLVER if loads else _NOTHING)


@pytest.mark.parametrize("keys", [("online", "swrpt"), ("swrpt",)])
def test_a_pooled_campaign_leaves_the_solver_to_its_workers(keys):
    # The parent solves nothing itself, so whatever the design it never
    # loads the solver: each worker loads it on its own first solve.
    loaded = _loaded(
        _CONFIG,
        f"""
        from repro import api

        results = api.run_campaign([CONFIG], scheduler_keys={keys!r}, replicates=2, n_workers=2)
        assert len(results.records) == 2 * {len(keys)}
        assert not any(record.failed for record in results.records)
        """,
    )
    assert loaded == _NOTHING


#: Checks that the bindings are one module object, then prints an ``online``
#: run's completions digest.
_ONE_BINDINGS_MODULE = """
import hashlib
import numpy as np
import scipy.optimize._highspy._highs_wrapper as wrapper
import repro.lp.backends.highs as highs
from repro import api
from repro.workload.generator import generate_instance

core = sys.modules["scipy.optimize._highspy._core"]
assert core is highs._core is wrapper._h, (core, highs._core, wrapper._h)
assert highs.Highs is core._Highs
solved = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert solved.status == 0 and np.isclose(solved.fun, 1.0), solved

instance = generate_instance(CONFIG.platform_spec(), CONFIG.workload_spec(), rng=3)
completions = api.simulate(instance, "online").completions
digest = hashlib.sha256(
    "".join(f"{job},{time.hex()};" for job, time in sorted(completions.items())).encode()
)
print(digest.hexdigest())
"""


#: The first ``make_backend()`` and ``import scipy.optimize``, in both orders.
_IMPORT_ORDERS = {
    "solver first": """
        from repro.lp.backends import make_backend
        make_backend()
        assert "scipy.optimize._highspy._core" in sys.modules
        import scipy.optimize
        """,
    "optimize first": """
        import scipy.optimize
        from repro.lp.backends import make_backend
        make_backend()
        """,
}


def test_both_import_orders_share_one_bindings_module():
    digests = {}
    for order, imports in _IMPORT_ORDERS.items():
        lines = _run("import sys", imports, _CONFIG, _ONE_BINDINGS_MODULE)
        assert json.loads(lines[-1]) == {"scipy": True, "optimize": True, "highs": True}, order
        digests[order] = lines[-2]
    assert len(set(digests.values())) == 1, digests
