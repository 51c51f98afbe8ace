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

Buckets are keyed by the **content** of the realized instance -- a hash
over the jobs (ids, releases, sizes, databanks) and the platform (machine
ids, cycle times, hosted databanks) -- never by run order, so what a
consumer finds in its bucket is a function of which content-identical runs
completed before it, not of where they ran.  Combined with the
replicate-affinity task placement of :mod:`repro.experiments.runner`
(every task of one ``(config, replicate)`` group executes on the same
worker lane, in canonical order), each bucket's history is exactly the
group's canonical prefix at any worker count -- which is what keeps
sharded campaign records bit-identical to serial runs with the bank
enabled.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
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

#: Buckets kept per bank (least-recently-used eviction).  Tasks of one
#: content group are consecutive on their worker lane, so only the current
#: group's bucket is ever live; a small bound caps memory on long
#: campaigns without hurting the hit rate.
_MAX_BUCKETS = 8

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
    """The per-worker bank: content key -> :class:`BankBucket`, LRU-bounded.

    One bank lives in each campaign worker (and one in the in-process
    serial runner); :class:`~repro.lp.incremental.ReplanContext` acquires
    the bucket for its instance at construction, reads stored optima from
    it and stores its own as it solves them.  Eviction is deterministic and
    harmless: tasks of one content group are consecutive on their lane, so
    an evicted bucket's key never recurs.
    """

    def __init__(self, *, max_buckets: int = _MAX_BUCKETS):
        self._buckets: OrderedDict[str, BankBucket] = OrderedDict()
        self._max_buckets = max(1, int(max_buckets))
        self.n_hits: int = 0
        self.n_misses: int = 0

    def acquire(self, key: str) -> tuple[BankBucket, bool]:
        """The bucket for ``key`` plus whether it arrived warm (a bank hit)."""
        bucket = self._buckets.get(key)
        hit = bucket is not None and bucket.warm
        if bucket is None:
            bucket = BankBucket()
            self._buckets[key] = bucket
        self._buckets.move_to_end(key)
        while len(self._buckets) > self._max_buckets:
            self._buckets.popitem(last=False)
        if hit:
            self.n_hits += 1
        else:
            self.n_misses += 1
        return bucket, hit

    def stats(self) -> dict[str, int]:
        """Machine-readable counters (buckets held, lookup hits/misses)."""
        return {
            "n_buckets": len(self._buckets),
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
        }

    def clear(self) -> None:
        """Drop every bucket and reset the counters."""
        self._buckets.clear()
        self.n_hits = 0
        self.n_misses = 0

    def __len__(self) -> int:
        return len(self._buckets)
