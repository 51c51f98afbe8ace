"""Deterministic sharding plans: split a campaign design across N jobs.

The distribution layer of the campaign subsystem.  PR 3's execution engine
(:func:`~repro.experiments.runner.run_campaign`) carries a campaign inside
one process; this module makes *work placement* orthogonal to *result
semantics* the way split-compute/merge runtimes do: a :class:`ShardPlan`
deterministically partitions the (configuration, replicate, scheduler) task
list into ``i/N`` slices that N independent jobs (CI matrix legs, machines,
tmux panes) can run with their own checkpoint journals, and
:mod:`repro.experiments.merge` reunites the journals into one validated
record set that is bit-identical to a serial run.

Design of the partition
-----------------------

* **Instance granularity.**  Tasks are grouped by realized instance
  (configuration, replicate) and whole groups are assigned to shards, so
  the schedulers sharing one instance run in one worker group call --
  splitting a group would generate the same instance in several jobs.
* **Round-robin over the canonical order.**  Group ``g`` (0-based, in
  canonical task order) lands on shard ``g % N``.  The canonical order
  iterates replicates within configurations, so round-robin deals every
  configuration's replicates out evenly: each slice sees the same mix of
  cheap 3-site and expensive 20-site configurations and the N legs finish
  in roughly the same wall-clock time.
* **Stability.**  The assignment depends only on the design (configuration
  order, replicate count) and the spec ``i/N`` -- not on hashing, platform,
  process, or invocation time -- so re-running a leg, resuming it, or
  recomputing the plan in the merge job always yields the same slice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ReproError
from repro.experiments.runner import CampaignTask

__all__ = ["ShardPlan", "parse_shard_spec"]

_SPEC_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")


def parse_shard_spec(spec: str) -> tuple[int, int]:
    """Parse an ``"i/N"`` shard spec into a 1-based (index, count) pair.

    ``i`` runs from 1 to N so the spec reads like "leg 2 of 5" and matches
    the 1-based matrix indices of the CI workflow.
    """
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ReproError(
            f"invalid shard spec {spec!r}: expected 'i/N' with 1 <= i <= N "
            "(e.g. --shard 2/5)"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not (1 <= index <= count):
        raise ReproError(
            f"invalid shard spec {spec!r}: index must lie in 1..{count or 'N'}"
        )
    return index, count


@dataclass(frozen=True)
class ShardPlan:
    """One deterministic slice ``index/count`` of a campaign design.

    The plan itself is tiny -- two integers -- because the partition is a
    pure function of the canonical task list; every consumer (the shard leg,
    the resume validation, the merge job) recomputes the same slice from the
    same design.
    """

    index: int  #: 1-based shard index (matches the "i" of ``--shard i/N``).
    count: int  #: Total number of shards N.

    def __post_init__(self) -> None:
        if self.count < 1 or not (1 <= self.index <= self.count):
            raise ReproError(
                f"invalid shard plan {self.index}/{self.count}: "
                "index must lie in 1..count"
            )

    @classmethod
    def parse(cls, spec: "ShardPlan | str | tuple[int, int]") -> "ShardPlan":
        """Coerce a spec (``"i/N"`` string, (i, N) pair, or plan) to a plan."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(*parse_shard_spec(spec))
        try:
            index, count = spec
            return cls(int(index), int(count))
        except (TypeError, ValueError):
            raise ReproError(
                f"invalid shard spec {spec!r}: expected 'i/N', (i, N) or a ShardPlan"
            ) from None

    @property
    def spec(self) -> str:
        """The ``"i/N"`` rendering of this plan."""
        return f"{self.index}/{self.count}"

    def meta_entry(self) -> dict[str, int]:
        """The shard identity recorded in a journal header."""
        return {"index": self.index, "count": self.count}

    @classmethod
    def from_meta_entry(cls, entry: object) -> "ShardPlan":
        """Rebuild a plan from a journal header's ``"shard"`` entry."""
        if not isinstance(entry, dict):
            raise ReproError(f"malformed shard entry in checkpoint header: {entry!r}")
        try:
            return cls(int(entry["index"]), int(entry["count"]))
        except (KeyError, TypeError, ValueError):
            raise ReproError(
                f"malformed shard entry in checkpoint header: {entry!r}"
            ) from None

    def select(self, tasks: Sequence[CampaignTask]) -> list[CampaignTask]:
        """This shard's slice of the canonical task list (order preserved).

        Whole (configuration, replicate) groups are dealt round-robin:
        group ``g`` (0-based first-appearance order) belongs to shard
        ``(g % count) + 1``.  The slices of the ``count`` plans over the
        same task list are disjoint and their union is the full list.
        """
        groups: dict[tuple[str, int], int] = {}
        selected: list[CampaignTask] = []
        for task in tasks:
            instance = (task.config.name, task.replicate)
            g = groups.setdefault(instance, len(groups))
            if g % self.count == self.index - 1:
                selected.append(task)
        return selected

    def selects_triple(
        self, tasks: Sequence[CampaignTask]
    ) -> set[tuple[str, int, str]]:
        """The (config, replicate, scheduler) triples this shard owns."""
        return {task.triple for task in self.select(tasks)}

    def siblings(self) -> list["ShardPlan"]:
        """All ``count`` plans of this partition (including this one)."""
        return [ShardPlan(i, self.count) for i in range(1, self.count + 1)]
