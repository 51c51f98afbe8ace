"""Lemma 1: equivalence of uniform-divisible and uniprocessor-preemptive models.

The paper's Lemma 1 states that an instance of ``n`` jobs on ``m`` uniform
machines under the divisible-load model (no communication cost) is equivalent
to an instance of the same ``n`` jobs on a single preemptive processor whose
speed is the sum of the machines' speeds
(:math:`1/p_\\mathrm{equiv} = \\sum_i 1/p_i`):

* any divisible schedule maps to a uniprocessor preemptive schedule with
  completion times that are **no larger** (forward transformation), and
* any uniprocessor preemptive schedule maps back to a divisible schedule with
  exactly the same completion times, by spreading each service interval over
  all machines proportionally to their speed (reverse transformation).

This module implements both directions.  They are used by the uni-processor
heuristics of Section 4 (which are analysed on the equivalent processor) and
extensively exercised by property-based tests: for random uniform instances,
round-tripping a schedule must preserve completion times, and the forward
direction must never increase any completion time.
"""

from __future__ import annotations


from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.platform import Machine, Platform
from repro.core.schedule import Schedule, WorkSlice

__all__ = [
    "equivalent_uniprocessor_instance",
    "uniprocessor_schedule_to_divisible",
    "divisible_schedule_to_uniprocessor",
]


def equivalent_uniprocessor_instance(instance: Instance) -> Instance:
    """Build the single-processor instance :math:`J^{(1)}` of Lemma 1.

    Only defined for *uniform* instances (no restricted availability among
    the jobs actually submitted); raises :class:`ModelError` otherwise.

    The equivalent machine keeps every databank of the original platform and
    has cycle time :math:`p_\\mathrm{equiv} = 1/\\sum_i 1/p_i`; the jobs are
    unchanged, so :math:`p^{(1)}_j = W_j\\,p_\\mathrm{equiv}` as in the paper.
    """
    if not instance.is_uniform():
        raise ModelError(
            "Lemma 1 only applies to uniform instances "
            "(every job must be executable on every machine)"
        )
    total_speed = instance.platform.aggregate_speed()
    machine = Machine(
        machine_id=0,
        cycle_time=1.0 / total_speed,
        cluster_id=0,
        databanks=instance.platform.databanks(),
        name="Pequiv",
    )
    return Instance(instance.jobs, Platform([machine]))


def uniprocessor_schedule_to_divisible(
    schedule: Schedule,
    instance: Instance,
) -> Schedule:
    """Reverse transformation: spread a uniprocessor schedule over all machines.

    Every slice of the single-processor schedule is replicated on each
    machine of ``instance.platform`` over the *same* time interval, with the
    work split proportionally to machine speed.  Completion times are
    preserved exactly.

    Parameters
    ----------
    schedule:
        A schedule on the equivalent uniprocessor (machine ids are ignored;
        only the time intervals and work amounts matter).
    instance:
        The original uniform multi-machine instance.
    """
    if not instance.is_uniform():
        raise ModelError("the reverse transformation requires a uniform instance")
    total_speed = instance.platform.aggregate_speed()
    slices: list[WorkSlice] = []
    for s in schedule:
        for machine in instance.platform:
            share = machine.speed / total_speed
            work = s.work * share
            if work <= 0:
                continue
            slices.append(
                WorkSlice(
                    job_id=s.job_id,
                    machine_id=machine.machine_id,
                    start=s.start,
                    end=s.end,
                    work=work,
                )
            )
    return Schedule(slices)


def divisible_schedule_to_uniprocessor(
    schedule: Schedule,
    instance: Instance,
) -> Schedule:
    """Forward transformation of Lemma 1.

    Cut time at every *preemption point* (slice start or end) of the
    divisible schedule.  Inside each elementary interval, the total work
    performed on each job across all machines fits -- by the capacity
    argument of Lemma 1 -- within the interval on the equivalent processor,
    so the jobs can be serialized inside the interval in any order.  We
    serialize them in increasing job id and pack them from the start of the
    interval, which can only *decrease* completion times (the paper's
    statement: "completion times can only be decreased").

    Returns a schedule for the equivalent uniprocessor instance produced by
    :func:`equivalent_uniprocessor_instance`.
    """
    if not instance.is_uniform():
        raise ModelError("Lemma 1 only applies to uniform instances")
    total_speed = instance.platform.aggregate_speed()

    # Preemption points: all slice boundaries.
    points = sorted({s.start for s in schedule} | {s.end for s in schedule})
    slices_out: list[WorkSlice] = []
    for t0, t1 in zip(points, points[1:]):
        if t1 <= t0:
            continue
        # Work per job inside [t0, t1), pro-rated for slices that span the cut.
        work_per_job: dict[int, float] = {}
        for s in schedule:
            overlap = min(s.end, t1) - max(s.start, t0)
            if overlap <= 0:
                continue
            work = s.work * overlap / s.duration
            work_per_job[s.job_id] = work_per_job.get(s.job_id, 0.0) + work
        if not work_per_job:
            continue
        # Serialize inside the interval on the equivalent processor.
        cursor = t0
        for job_id in sorted(work_per_job):
            work = work_per_job[job_id]
            duration = work / total_speed
            end = cursor + duration
            # Numerical safety: the capacity argument guarantees end <= t1 up
            # to roundoff; clamp tiny overshoots so validation stays clean.
            if end > t1:
                if end > t1 * (1 + 1e-9) + 1e-9:
                    raise ModelError(
                        "interval capacity exceeded during Lemma 1 transformation; "
                        "the input schedule is not a valid divisible schedule"
                    )
                end = t1
            slices_out.append(
                WorkSlice(
                    job_id=job_id,
                    machine_id=0,
                    start=cursor,
                    end=end,
                    work=work,
                )
            )
            cursor = end
    return Schedule(slices_out)
