"""repro -- stretch-minimizing schedulers for flows of divisible biological requests.

Reproduction of A. Legrand, A. Su and F. Vivien, *Minimizing the stretch when
scheduling flows of biological requests* (INRIA RR-5724, 2005 / SPAA 2006).

Quick start
-----------

>>> from repro import Job, Platform, Instance, simulate, make_scheduler
>>> platform = Platform.uniform([1.0, 1.0], databanks=["db"])
>>> jobs = [Job(0, release=0.0, size=10.0, databank="db"),
...         Job(1, release=1.0, size=2.0, databank="db")]
>>> instance = Instance(jobs, platform)
>>> result = simulate(instance, make_scheduler("swrpt"))
>>> round(result.max_stretch, 3) >= 1.0
True

Module map
----------

The public API is re-exported from the subpackages; the decision hot path is
the *incremental replanning pipeline* spanning the starred modules::

    repro
    |-- core/          jobs, platforms, instances, schedules, metrics, Lemma 1
    |-- lp/            the System (1)/(2) linear programs
    |   |-- problem      LP data model (jobs, resources, deadlines affine in
    |   |                F), built one way: from a per-instance JobTable
    |   |-- milestones   objective values where the interval structure changes
    |   |-- intervals    epochal times -> elementary interval structures
    |   |-- maxstretch * System (1): LPSpecs on a class skeleton (one column
    |   |                set per job class on a slack chain, split FIFO
    |   |                into per-job Shares arrays) + the certificate-guided
    |   |                parametric search (dual-ray bounds skip probes;
    |   |                interior-optimum exit)
    |   |-- relaxation * System (2): sum-stretch-like re-optimization on
    |   |                the same class skeleton, the split across
    |   |                resources fixed by a rule; with generic costs, the
    |   |                off-line schedule's pick among System (1)'s optima
    |   |-- incremental* ReplanContext: the live jobs' table + the previous
    |   |                S* as the one warm start across replans, banked
    |   |                optima reuse
    |   |-- bank       * content-addressed cross-run memo of exact System
    |   |                (1)/(2) optima by problem signature (one bucket,
    |   |                per campaign task group)
    |   |-- aggregation  Shares arrays -> per-job totals, rows sorted by one
    |   |                lexsort on order keys, plan lanes per class
    |   `-- backends/  * the LP solver backend, one per run, with its run's
    |       |                LP counters; base: the cold re-solve of a
    |       |                failed warm solve
    |       `-- highs  *       the one engine (scipy's vendored HiGHS): a
    |                          model per solve, the run's series basis
    |                          kept -- warm starts across milestone probes
    |                          and replans, dual-ray bounds within a search;
    |                          imported, with the HiGHS extension scipy
    |                          vendors (not scipy.optimize), by the first
    |                          make_backend(), never by `import repro`
    |-- simulation/    the fluid discrete-event engine
    |   |-- clock      * heap-based event queue, batched simultaneous arrivals
    |   |-- engine     * the step loop: dispatch, assign, advance, complete;
    |   |                closed runs kept in typed buffers (32 bytes a run)
    |   |                that the result's Schedule views without a copy
    |   |-- state        scheduler-visible execution state
    |   `-- result       SimulationResult (metrics, trace, scheduler overhead)
    |-- schedulers/    all scheduling strategies and the registry
    |   |-- base       * Scheduler / PriorityScheduler / PlanBasedScheduler
    |   |                (plan lanes: a lane is re-read only when its
    |   |                reading can have changed; scans start after the
    |   |                rows that ended by the last reading)
    |   |-- policies   * ReplanPolicy: on-arrival | batched:D | threshold:K
    |   |-- online_lp  * the four on-line LP variants (policy + ReplanContext)
    |   |-- registry   * key -> factory, and RunOptions: the run option
    |   |                (replan policy) declared once, with the one rule
    |   |                handing it to the LP keys
    |   `-- ...          offline, bender98/02, mct, priority heuristics
    |-- workload/      GriPPS-like synthetic platform/workload generation
    |-- experiments/   the paper's campaign (configs inherit RunOptions)
    |   |-- runner     * campaign engine: whole (config, replicate) groups
    |   |                over long-lived worker lanes (always a
    |   |                solver-state bank per group, replicate-affinity
    |   |                placement, crash recovery), bit-identical at any
    |   |                worker count, progress/ETA
    |   |-- io           CSV/JSON persistence + JSONL campaign checkpoints
    |   |                (kill-tolerant --checkpoint/--resume)
    |   |-- sharding   * ShardPlan: deterministic --shard i/N slices of the
    |   |                design (whole instances, round-robin, stable across
    |   |                processes) for CI-matrix distribution
    |   |-- merge      * journal union with exactly-once coverage validation
    |   |                (duplicate/conflict/gap detection) + the report
    |   |                stage (Tables 1-16, CAMPAIGN_summary.json)
    |   `-- ...          config, statistics, tables, figures, overhead
    `-- theory/        constructions behind Theorems 1 and 2
"""

from repro._version import __version__
from repro.core import (
    CapabilityClass,
    Cluster,
    InfeasibleError,
    Instance,
    Job,
    JobSet,
    Machine,
    ModelError,
    Platform,
    ReproError,
    Schedule,
    ScheduleError,
    SolverError,
    WorkSlice,
    metrics,
)
from repro.simulation import SimulationResult
from repro.schedulers import (
    available_schedulers,
    make_scheduler,
    paper_schedulers,
    register_scheduler,
)
from repro import api
from repro.api import (
    CampaignReport,
    ExperimentConfig,
    ExperimentResults,
    MergeReport,
    merge,
    report,
    run_campaign,
    serve,
    simulate,
)

__all__ = [
    "__version__",
    "Job",
    "JobSet",
    "Machine",
    "Cluster",
    "CapabilityClass",
    "Platform",
    "Instance",
    "Schedule",
    "WorkSlice",
    "metrics",
    "ReproError",
    "ModelError",
    "ScheduleError",
    "InfeasibleError",
    "SolverError",
    "simulate",
    "SimulationResult",
    "make_scheduler",
    "register_scheduler",
    "available_schedulers",
    "paper_schedulers",
    "api",
    "run_campaign",
    "merge",
    "report",
    "serve",
    "CampaignReport",
    "ExperimentConfig",
    "ExperimentResults",
    "MergeReport",
]
