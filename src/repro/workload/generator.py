"""Random platform and workload generation (Section 5.1 of the paper).

A *simulation configuration* fixes six features: platform size (number of
sites), processor power (drawn from the reference machines), number of
databanks, databank size range, databank availability and workload density.
:func:`generate_instance` realizes one random instance from such a
configuration:

1. build the platform: ``n_clusters`` sites of ``processors_per_cluster``
   identical machines, each site's cycle time drawn from the reference
   machines, each site hosting a random subset of the databanks;
2. build the workload: for each databank, a Poisson stream of requests whose
   rate is chosen so that the *workload density* -- the ratio of the work
   arriving per second for that databank to the aggregate speed of the
   machines hosting it -- matches the requested value;
3. merge and sort the per-databank streams, renumber the jobs by release
   date.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job, renumber_jobs
from repro.core.platform import Machine, Platform
from repro.utils.seeding import spawn_rng
from repro.workload.arrival import poisson_arrival_times
from repro.workload.databanks import DatabankCatalog, generate_databanks
from repro.workload.gripps import (
    DEFAULT_PROCESSORS_PER_CLUSTER,
    MAX_DATABANK_MB,
    MIN_DATABANK_MB,
    REFERENCE_CYCLE_TIMES,
    SUBMISSION_WINDOW_SECONDS,
)

__all__ = [
    "PlatformSpec",
    "WorkloadSpec",
    "generate_platform",
    "generate_workload",
    "generate_instance",
]


@dataclass(frozen=True)
class PlatformSpec:
    """Parameters of the random platform generator."""

    n_clusters: int = 3
    processors_per_cluster: int = DEFAULT_PROCESSORS_PER_CLUSTER
    n_databanks: int = 3
    availability: float = 0.6
    reference_cycle_times: tuple[float, ...] = REFERENCE_CYCLE_TIMES
    min_databank_mb: float = MIN_DATABANK_MB
    max_databank_mb: float = MAX_DATABANK_MB

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ModelError("n_clusters must be positive")
        if self.processors_per_cluster <= 0:
            raise ModelError("processors_per_cluster must be positive")
        if self.n_databanks <= 0:
            raise ModelError("n_databanks must be positive")
        if not (0 < self.availability <= 1):
            raise ModelError("availability must lie in (0, 1]")
        if not self.reference_cycle_times:
            raise ModelError("reference_cycle_times must not be empty")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the random workload generator."""

    density: float = 1.0
    window: float = SUBMISSION_WINDOW_SECONDS
    max_jobs: int | None = None

    def __post_init__(self) -> None:
        if self.density <= 0:
            raise ModelError("workload density must be positive")
        if self.window <= 0:
            raise ModelError("submission window must be positive")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ModelError("max_jobs must be positive when provided")


def generate_platform(
    spec: PlatformSpec,
    *,
    rng: np.random.Generator | int | None = None,
) -> tuple[Platform, DatabankCatalog]:
    """Generate a random platform and its databank catalogue."""
    rng = spawn_rng(rng)
    catalog = generate_databanks(
        spec.n_databanks,
        spec.n_clusters,
        spec.availability,
        rng=rng,
        min_size=spec.min_databank_mb,
        max_size=spec.max_databank_mb,
    )
    machines: list[Machine] = []
    machine_id = 0
    for cluster_id in range(spec.n_clusters):
        cycle_time = float(rng.choice(spec.reference_cycle_times))
        banks = catalog.databanks_of_cluster(cluster_id)
        for _ in range(spec.processors_per_cluster):
            machines.append(
                Machine(
                    machine_id=machine_id,
                    cycle_time=cycle_time,
                    cluster_id=cluster_id,
                    databanks=banks,
                )
            )
            machine_id += 1
    return Platform(machines), catalog


def generate_workload(
    platform: Platform,
    catalog: DatabankCatalog,
    spec: WorkloadSpec,
    *,
    rng: np.random.Generator | int | None = None,
) -> list[Job]:
    """Generate the job stream for one instance.

    For each databank ``d`` of size :math:`W_d` hosted on machines of
    aggregate speed :math:`P_d`, the arrival rate is
    :math:`\\lambda_d = \\rho\\,P_d / W_d` where :math:`\\rho` is the workload
    density: the expected work arriving per second for ``d``
    (:math:`\\lambda_d W_d`) is then :math:`\\rho P_d`, i.e. a fraction
    :math:`\\rho` of the capacity available to serve it, which is the paper's
    definition of density.
    """
    rng = spawn_rng(rng)
    jobs: list[Job] = []
    job_counter = 0
    for name in catalog.names():
        size = catalog.size_of(name)
        aggregate_speed = platform.aggregate_speed(name)
        if aggregate_speed <= 0:
            raise ModelError(f"databank {name} is hosted on no machine of the platform")
        rate = spec.density * aggregate_speed / size
        arrivals = poisson_arrival_times(
            rate, spec.window, rng=rng, max_count=spec.max_jobs
        )
        for t in arrivals:
            jobs.append(
                Job(job_id=job_counter, release=float(t), size=size, databank=name)
            )
            job_counter += 1
    # Renumber jobs in release-date order (the paper's convention) and
    # optionally truncate to the global job cap.
    ordered = list(renumber_jobs(jobs))
    if spec.max_jobs is not None and len(ordered) > spec.max_jobs:
        ordered = ordered[: spec.max_jobs]
    return ordered


def generate_instance(
    platform_spec: PlatformSpec,
    workload_spec: WorkloadSpec,
    *,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Generate one full random instance (platform + workload).

    The workload generation is retried (with the same platform) until at
    least one job is produced, which can otherwise fail to happen at very
    low densities on short windows.
    """
    rng = spawn_rng(rng)
    platform, catalog = generate_platform(platform_spec, rng=rng)
    jobs = generate_workload(platform, catalog, workload_spec, rng=rng)
    attempts = 0
    while not jobs:
        attempts += 1
        if attempts > 100:
            raise ModelError(
                "could not generate a non-empty workload after 100 attempts; "
                "increase the density or the submission window"
            )
        jobs = generate_workload(platform, catalog, workload_spec, rng=rng)
    return Instance(jobs, platform)
