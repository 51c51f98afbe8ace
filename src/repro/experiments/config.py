"""Experiment configurations.

The paper's main campaign is a full factorial design over four parameters
(Section 5.3):

* platforms of 3, 10 and 20 clusters (10 processors each),
* 3, 10 and 20 distinct reference databanks,
* databank availabilities of 30 %, 60 % and 90 %,
* workload density factors of 0.75, 1.0, 1.25, 1.5, 2.0 and 3.0,

for 162 configurations, each replicated 200 times (about 32 000 instances).
Reproducing the campaign at full scale is possible but slow in pure Python;
:func:`paper_configurations` therefore exposes the exact same design while
letting the caller scale down the submission window and the number of
replicates (the benchmark harness records the values used in
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.core.errors import ModelError
from repro.schedulers.registry import RunOptions
from repro.workload.faults import FaultSpec
from repro.workload.generator import PlatformSpec, WorkloadSpec
from repro.workload.gripps import DEFAULT_PROCESSORS_PER_CLUSTER, SUBMISSION_WINDOW_SECONDS

__all__ = [
    "ExperimentConfig",
    "PAPER_SITES",
    "PAPER_DATABANKS",
    "PAPER_AVAILABILITIES",
    "PAPER_DENSITIES",
    "paper_configurations",
    "figure3_configurations",
    "small_configurations",
]

#: Factor levels of the paper's factorial design (Section 5.3).
PAPER_SITES: tuple[int, ...] = (3, 10, 20)
PAPER_DATABANKS: tuple[int, ...] = (3, 10, 20)
PAPER_AVAILABILITIES: tuple[float, ...] = (0.3, 0.6, 0.9)
PAPER_DENSITIES: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class ExperimentConfig(RunOptions):
    """One point of the experimental design.

    The six features of Section 5.1, plus the submission window and an
    optional cap on the number of jobs per instance (both used to scale the
    campaign to the available compute budget without changing its design),
    plus the :class:`~repro.schedulers.registry.RunOptions` it inherits
    (keyword-only): the replan policy driving the on-line LP heuristics (a
    new scenario axis the paper only discusses qualitatively).

    The ``fault_*`` fields add a machine-availability axis (another scenario
    the paper discusses only qualitatively): when ``fault_mtbf`` and
    ``fault_mttr`` are both set, each replicate's instance is paired with a
    seeded :class:`~repro.simulation.faults.FaultTimeline` drawn from the
    renewal model of :mod:`repro.workload.faults` (the trace derives from
    the replicate seed, so it is part of the experiment identity and replays
    exactly at any worker count).  ``fault_horizon`` defaults to the
    submission window.  With the axis off (the default) campaigns are
    bit-identical to the fault-free engine.
    """

    name: str
    n_clusters: int
    n_databanks: int
    availability: float
    density: float
    processors_per_cluster: int = DEFAULT_PROCESSORS_PER_CLUSTER
    window: float = SUBMISSION_WINDOW_SECONDS
    max_jobs: int | None = None
    fault_mtbf: float | None = None
    fault_mttr: float | None = None
    fault_horizon: float | None = None
    fault_machine_fraction: float = 1.0
    fault_loss_model: str = "resume"
    fault_checkpoint_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_clusters <= 0 or self.n_databanks <= 0:
            raise ModelError("n_clusters and n_databanks must be positive")
        if not (0 < self.availability <= 1):
            raise ModelError("availability must lie in (0, 1]")
        if self.density <= 0 or self.window <= 0:
            raise ModelError("density and window must be positive")
        # The inherited run options validate themselves.
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        if (self.fault_mtbf is None) != (self.fault_mttr is None):
            raise ModelError(
                "fault_mtbf and fault_mttr must be set together (or both left None)"
            )
        # Delegate range validation to FaultSpec so the config can never
        # carry a fault axis the generator would reject at run time.
        self.fault_spec()

    # -- conversions -------------------------------------------------------------
    def platform_spec(self) -> PlatformSpec:
        return PlatformSpec(
            n_clusters=self.n_clusters,
            processors_per_cluster=self.processors_per_cluster,
            n_databanks=self.n_databanks,
            availability=self.availability,
        )

    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(density=self.density, window=self.window, max_jobs=self.max_jobs)

    def fault_spec(self) -> FaultSpec | None:
        """The availability-axis parameters, or ``None`` when the axis is off."""
        if self.fault_mtbf is None or self.fault_mttr is None:
            return None
        return FaultSpec(
            mtbf=self.fault_mtbf,
            mttr=self.fault_mttr,
            horizon=self.window if self.fault_horizon is None else self.fault_horizon,
            machine_fraction=self.fault_machine_fraction,
            loss_model=self.fault_loss_model,
            checkpoint_fraction=self.fault_checkpoint_fraction,
        )

    def scaled(
        self, *, window: float | None = None, max_jobs: int | None = None
    ) -> "ExperimentConfig":
        """A copy with a different submission window and/or job cap."""
        return replace(
            self,
            window=self.window if window is None else window,
            max_jobs=self.max_jobs if max_jobs is None else max_jobs,
        )

    def as_dict(self) -> dict[str, float | int | str | bool | None]:
        return {
            "name": self.name,
            "n_clusters": self.n_clusters,
            "n_databanks": self.n_databanks,
            "availability": self.availability,
            "density": self.density,
            "processors_per_cluster": self.processors_per_cluster,
            "window": self.window,
            "max_jobs": self.max_jobs,
            "replan_policy": self.replan_policy,
            # Every run takes the incremental replan path now.  The key
            # stays, constant, because journal headers are compared for
            # equality on --resume: journals written while it was a toggle
            # (including the ones campaign-full.yml caches across attempts)
            # must still resume.  merge drops it when rebuilding configs.
            "incremental_lp": True,
            # Every LP runs on HiGHS now; the key stays, constant, for the
            # same --resume reason: default journals recorded "auto".  merge
            # drops it and rejects any value but "auto" / "highs".
            "solver_backend": "auto",
            # Every campaign banks each group now; the key stays, constant,
            # for the same --resume reason.  merge drops it whatever its
            # value, and a journal recorded with false resumes.
            "state_bank": True,
            # Speculative replan pre-solving is gone; the key stays,
            # constant, for the same --resume header-equality reason as
            # "incremental_lp".  merge drops it whatever its value.
            "speculation": False,
            "fault_mtbf": self.fault_mtbf,
            "fault_mttr": self.fault_mttr,
            "fault_horizon": self.fault_horizon,
            "fault_machine_fraction": self.fault_machine_fraction,
            "fault_loss_model": self.fault_loss_model,
            "fault_checkpoint_fraction": self.fault_checkpoint_fraction,
        }


def paper_configurations(
    *,
    sites: Sequence[int] = PAPER_SITES,
    databanks: Sequence[int] = PAPER_DATABANKS,
    availabilities: Sequence[float] = PAPER_AVAILABILITIES,
    densities: Sequence[float] = PAPER_DENSITIES,
    **fields: Any,
) -> list[ExperimentConfig]:
    """The full factorial design of Section 5.3 (162 configurations by default).

    Every other keyword (``window``, ``max_jobs``, the run options, the
    fault axis, ...) is an :class:`ExperimentConfig` field shared by every
    configuration, with that field's default.
    """
    configs: list[ExperimentConfig] = []
    for n_clusters in sites:
        for n_databanks in databanks:
            for availability in availabilities:
                for density in densities:
                    name = (
                        f"s{n_clusters:02d}-d{n_databanks:02d}"
                        f"-a{int(round(availability * 100)):02d}"
                        f"-rho{density:g}"
                    )
                    configs.append(
                        ExperimentConfig(
                            name=name,
                            n_clusters=n_clusters,
                            n_databanks=n_databanks,
                            availability=availability,
                            density=density,
                            **fields,
                        )
                    )
    return configs


def figure3_configurations(
    *,
    densities: Iterable[float] = (0.0125, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0,
                                  1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    n_clusters: int = 3,
    n_databanks: int = 3,
    availability: float = 0.6,
    window: float = SUBMISSION_WINDOW_SECONDS,
    max_jobs: int | None = None,
) -> list[ExperimentConfig]:
    """The density sweep of Section 5.2 (Figure 3).

    The paper sweeps 80 job-size/density combinations between densities
    0.0125 and 4.0 on small platforms; this helper exposes the density axis
    (the quantity plotted) with a configurable resolution.
    """
    configs = []
    for density in densities:
        configs.append(
            ExperimentConfig(
                name=f"fig3-rho{density:g}",
                n_clusters=n_clusters,
                n_databanks=n_databanks,
                availability=availability,
                density=density,
                window=window,
                max_jobs=max_jobs,
            )
        )
    return configs


def small_configurations(
    *,
    window: float = 60.0,
    max_jobs: int | None = 40,
) -> list[ExperimentConfig]:
    """A handful of small configurations used by tests and the quickstart example."""
    return [
        ExperimentConfig(
            name="small-low",
            n_clusters=2,
            n_databanks=2,
            availability=0.6,
            density=0.75,
            processors_per_cluster=4,
            window=window,
            max_jobs=max_jobs,
        ),
        ExperimentConfig(
            name="small-high",
            n_clusters=3,
            n_databanks=3,
            availability=0.6,
            density=1.5,
            processors_per_cluster=4,
            window=window,
            max_jobs=max_jobs,
        ),
    ]
