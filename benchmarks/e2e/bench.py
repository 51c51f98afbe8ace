"""Entry point of the ``BENCHMARK.json`` contract: one workload, one run.

``python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace T``
from the repo root.  Runs from source: puts the checkout's ``src/`` and root
on ``sys.path`` itself, so no ``PYTHONPATH`` is needed (and in a directory
without ``src/`` the import fails and the exit code says so).
"""

import sys
import time

_PROCESS_STARTED = time.perf_counter()

from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
# This file's own directory must not shadow top-level modules.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(__file__).resolve().parent]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench.py: no src/repro under {_ROOT}; run it from a checkout of the repo")

from benchmarks.e2e.single import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _PROCESS_STARTED))
