"""Sample statistics shared by the workloads, ``run`` and ``compare``.

Timings are reported as a median plus the highest percentile that still has
at least :data:`MIN_BEYOND` samples beyond it (nearest-rank, so every
reported value is an observed sample), with the sample count stated.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER: tuple[float, ...] = (75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first: 99.9 % of 10000 is rank 9990, not 9991 by a float's width.
    return min(n, max(1, math.ceil(round(q * n / 100.0, 9))))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    ``None`` when ``n`` is too small to support any tail percentile; callers
    then report the maximum and say so.
    """
    supported = [q for q in TAIL_LADDER if samples_beyond(n, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def latency_summary(samples: Sequence[float]) -> dict[str, float]:
    """``{n, p50, tail_q, tail}`` of a latency sample (same unit as the input).

    ``tail_q`` is the percentile the tail was read at; 100 means the sample
    was too small for the >= MIN_BEYOND rule and the tail is the maximum.
    """
    tail_q = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "tail_q": 100.0 if tail_q is None else tail_q,
        "tail": max(samples) if tail_q is None else percentile(samples, tail_q),
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles (``--repeats 1`` and smoke runs).
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def digest(payload: object) -> str:
    """Stable short hash of a JSON-able payload (floats by their ``repr``)."""
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
