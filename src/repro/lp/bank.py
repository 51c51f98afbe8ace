"""Content-addressed cross-run memo of exact System (1)/(2) optima.

Within one replicate of the campaign, the four on-line LP schedulers (and
both legs of a bank on/off comparison) solve near-identical sequences of LPs -- every
variant's first replan, before any executed work diverges, is the same
problem.  A run's solver backend lives for that run only, so the bank is
the one thing that crosses runs, and it holds one kind of state: **exact
optima** keyed by the exact :func:`problem_signature`.  A content-identical
System (1)/(2) problem has a content-identical optimum, so the whole
milestone search (or re-optimization) is skipped and the stored solution
is re-bound onto the consumer's problem object.

A bank lives exactly as long as one ``(config, replicate)`` task group of
:mod:`repro.experiments.runner` -- the only runs that realize the
instance its bucket serves -- so the bucket's history is the group's
canonical prefix wherever the group runs, which is what keeps sharded
campaign records bit-identical to serial runs with the bank enabled.  The
bucket is keyed by the **content** of the realized instance -- a hash over
the jobs (ids, releases, sizes, databanks) and the platform (machine ids,
cycle times, hosted databanks) --, so a run on any other instance finds a
cold bucket instead of another LP's optima.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance
    from repro.lp.maxstretch import MaxStretchProblem, MaxStretchSolution

__all__ = [
    "BankBucket",
    "SolverStateBank",
    "instance_content_key",
    "problem_signature",
]

#: Primal solutions kept per bucket and system.  Replans past the first
#: arrival diverge across schedulers (executed work differs), so reuse
#: concentrates on the early replans; the bound only guards pathological
#: replan counts.
_MAX_SOLUTIONS = 128


def instance_content_key(instance: "Instance") -> str:
    """A deterministic digest of the *content* of ``instance``.

    Covers everything that determines the LP problems of a run: the
    platform's machines (id, cycle time, hosted databanks) and the jobs
    (id, release, size, databank, explicit weight).  Two
    :class:`~repro.core.instance.Instance` objects with equal content --
    e.g. the same ``(config, replicate)`` realized in different campaign
    legs -- map to the same key, which is what lets the schedulers of one
    group share a bucket while unrelated runs never do.
    """
    machines = tuple(
        (m.machine_id, m.cycle_time, tuple(sorted(m.databanks)))
        for m in instance.platform
    )
    jobs = tuple(
        (job.job_id, job.release, job.size, job.databank, job.weight)
        for job in instance.jobs
    )
    payload = repr((machines, jobs)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def problem_signature(problem: "MaxStretchProblem") -> tuple:
    """Hashable exact-content signature of one System (1)/(2) problem.

    Two problems with equal signatures describe bit-identical LPs (same
    jobs, works, windows, eligibility and resource speeds), so a stored
    optimum of one is an optimum of the other.  Floats enter verbatim --
    the signature is an *exact* match, never a tolerance: near-identical
    problems fall through to a normal (warm-hinted) solve.
    """
    return (
        tuple(
            (
                job.job_id,
                job.earliest_start,
                job.remaining_work,
                job.release,
                job.flow_factor,
                job.resources,
            )
            for job in problem.jobs
        ),
        tuple(resource.speed for resource in problem.resources),
    )


class BankBucket:
    """The stored optima of one instance content key.

    Attributes
    ----------
    sys1:
        ``problem_signature -> MaxStretchSolution`` for accepted System (1)
        searches (first solve wins).
    sys2:
        ``(problem_signature, objective) -> MaxStretchSolution`` for System
        (2) re-optimizations (the stored solution's ``objective`` records
        the inflated deadline bound actually used).
    """

    __slots__ = ("sys1", "sys2")

    def __init__(self) -> None:
        self.sys1: dict[tuple, "MaxStretchSolution"] = {}
        self.sys2: dict[tuple, "MaxStretchSolution"] = {}

    @property
    def warm(self) -> bool:
        """Whether this bucket holds a stored optimum."""
        return bool(self.sys1) or bool(self.sys2)

    def trim(self) -> None:
        """Bound the primal stores (drop oldest, dicts are insertion-ordered)."""
        while len(self.sys1) > _MAX_SOLUTIONS:
            self.sys1.pop(next(iter(self.sys1)))
        while len(self.sys2) > _MAX_SOLUTIONS:
            self.sys2.pop(next(iter(self.sys2)))


class SolverStateBank:
    """The bank of one task group: the :class:`BankBucket` of one content key.

    The campaign runner builds one per ``(configuration, replicate)``
    group and drops it when the group returns (and
    :mod:`repro.experiments.overhead` one per replicate): only the
    schedulers of that group realize its instance, so no other run could
    read the bucket.  :class:`~repro.lp.incremental.ReplanContext`
    acquires the bucket for its instance at construction, reads stored
    optima from it and stores its own as it solves them; acquiring another
    key starts a cold bucket in its place.
    """

    def __init__(self) -> None:
        self._key: str | None = None
        self._bucket = BankBucket()
        self.n_hits: int = 0
        self.n_misses: int = 0

    def acquire(self, key: str) -> tuple[BankBucket, bool]:
        """The bucket for ``key`` plus whether it arrived warm (a bank hit)."""
        if key != self._key:
            self._key = key
            self._bucket = BankBucket()
        hit = self._bucket.warm
        if hit:
            self.n_hits += 1
        else:
            self.n_misses += 1
        return self._bucket, hit
