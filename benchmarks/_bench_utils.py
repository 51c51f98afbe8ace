"""Helpers shared by the benchmark files (scale knobs, artifact writing).

Kept separate from ``conftest.py`` so that benchmark modules can import them
under an unambiguous module name even when the test suite and the benchmark
suite are collected in the same pytest session.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.config import paper_configurations

ARTIFACT_DIR = Path(__file__).resolve().parent / "_artifacts"

#: Schedulers included in the table campaign (Bender98 is benchmarked
#: separately in bench_overhead.py, as in the paper, because it is
#: intractable on the larger platforms).
TABLE_SCHEDULERS = (
    "offline",
    "online",
    "online-edf",
    "online-egdf",
    "swrpt",
    "srpt",
    "spt",
    "bender02",
    "mct-div",
    "mct",
)


def bench_scale() -> dict[str, object]:
    """Read the benchmark scale knobs from the environment."""
    return {
        "profile": os.environ.get("REPRO_BENCH_PROFILE", "quick"),
        "replicates": int(os.environ.get("REPRO_BENCH_REPLICATES", "1")),
        "max_jobs": int(os.environ.get("REPRO_BENCH_MAX_JOBS", "12")),
        "window": float(os.environ.get("REPRO_BENCH_WINDOW", "20")),
        "workers": int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    }


def campaign_configurations():
    """The experimental design used by the table benchmarks."""
    scale = bench_scale()
    if scale["profile"] == "paper":
        return paper_configurations(window=scale["window"], max_jobs=scale["max_jobs"])
    # Quick profile: keep all three platform sizes (the dominant factor) and a
    # representative subset of the other levels.
    return paper_configurations(
        sites=(3, 10, 20),
        databanks=(3, 10),
        availabilities=(0.3, 0.9),
        densities=(0.75, 1.5, 3.0),
        window=scale["window"],
        max_jobs=scale["max_jobs"],
    )


def write_artifact(name: str, content: str) -> Path:
    """Persist a rendered table/series next to the benchmark run."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(content + "\n")
    return path


def read_json_baseline(name: str) -> dict:
    """Load a committed JSON baseline, failing loudly when it is absent.

    The JSON baselines (``BENCH_lp.json``, ``BENCH_campaign.json``) are
    committed to the tree and referenced by ROADMAP/CHANGES/CI; a missing or
    corrupt file used to be silently papered over (the merge started from
    ``{}``), which let a referenced baseline drop out of the tree unnoticed.
    Regenerate with the benchmark that owns the section and commit the file.
    """
    path = ARTIFACT_DIR / name
    if not path.exists():
        raise FileNotFoundError(
            f"referenced benchmark baseline {path} is absent; run the "
            f"benchmarks that own it and commit the regenerated file "
            f"(sections are merged via update_json_artifact)"
        )
    existing = json.loads(path.read_text())
    if not isinstance(existing, dict):
        raise ValueError(f"benchmark baseline {path} is not a JSON object")
    return existing


def write_json_artifact(name: str, payload: object) -> Path:
    """Persist a machine-readable baseline (e.g. ``BENCH_lp.json``).

    JSON artifacts are committed and uploaded by CI so the perf trajectory
    (LP probe counts, replan latencies, campaign throughput) can be
    compared across PRs instead of living only in free-text benchmark
    logs.  Overwrites the whole file; benchmarks that own one *section* of
    a shared baseline go through :func:`update_json_artifact`, which
    requires the committed file to be present.
    """
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def update_json_artifact(
    name: str, section: str, payload: object, *, require_baseline: bool = True
) -> Path:
    """Merge ``payload`` under ``section`` of a committed JSON baseline.

    Lets several benchmarks share one baseline file (``BENCH_lp.json`` holds
    the probe-elimination histogram) without clobbering each other regardless of execution order.
    The committed baseline must exist (see :func:`read_json_baseline`);
    ``require_baseline=False`` is the bootstrap escape hatch for generating
    a brand-new baseline file.
    """
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    if require_baseline or path.exists():
        merged = read_json_baseline(name)
    else:
        merged = {}
    merged[section] = payload
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path
