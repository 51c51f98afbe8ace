"""Platform model: machines, clusters, databanks and capability classes.

The target platform is a federation of *sites* (clusters).  Each site hosts a
homogeneous set of processors and a local copy of some of the protein
databanks.  A request targeting databank *d* may only execute on processors
whose site hosts *d* -- this is the *restricted availability* constraint of
the paper, which turns the uniform-machines problem into a special case of
unrelated machines.

Speeds are expressed as *cycle times* :math:`p_i` (seconds per unit of work),
so that the processing time of job :math:`J_j` of size :math:`W_j` on machine
:math:`M_i` is :math:`p_{i,j} = W_j\\,p_i` -- exactly the uniform model of
Section 2.2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.errors import ModelError
from repro.utils.validation import require_positive

__all__ = ["Machine", "Cluster", "CapabilityClass", "Platform"]


@dataclass(frozen=True)
class Machine:
    """A single processor.

    Parameters
    ----------
    machine_id:
        Unique non-negative integer identifier (platform-wide).
    cycle_time:
        :math:`p_i`, in seconds per unit of work (strictly positive).
    cluster_id:
        Identifier of the site this machine belongs to.
    databanks:
        The databanks locally available to this machine.  An empty set means
        the machine can only serve jobs with no data dependence.
    name:
        Optional human-readable label.
    """

    machine_id: int
    cycle_time: float
    cluster_id: int = 0
    databanks: frozenset[str] = frozenset()
    name: str = ""

    def __post_init__(self) -> None:
        if self.machine_id < 0:
            raise ModelError(f"machine_id must be non-negative, got {self.machine_id}")
        try:
            require_positive(self.cycle_time, "cycle_time")
        except ValueError as exc:
            raise ModelError(str(exc)) from exc
        if not isinstance(self.databanks, frozenset):
            object.__setattr__(self, "databanks", frozenset(self.databanks))

    @property
    def speed(self) -> float:
        """Work units processed per second (:math:`1/p_i`)."""
        return 1.0 / self.cycle_time

    def hosts(self, databank: str | None) -> bool:
        """True when this machine may process a job targeting ``databank``."""
        if databank is None:
            return True
        return databank in self.databanks

    @property
    def label(self) -> str:
        """A short display label (name if set, otherwise ``M<id>``)."""
        return self.name or f"M{self.machine_id}"


@dataclass(frozen=True)
class Cluster:
    """A site: a group of identical machines sharing the same databanks."""

    cluster_id: int
    machines: tuple[Machine, ...]

    def __post_init__(self) -> None:
        if not self.machines:
            raise ModelError("a Cluster must contain at least one machine")
        banks = {m.databanks for m in self.machines}
        if len(banks) != 1:
            raise ModelError("all machines of a cluster must host the same databanks")
        cycle_times = {m.cycle_time for m in self.machines}
        if len(cycle_times) != 1:
            raise ModelError("all machines of a cluster must have the same cycle time")
        wrong = [m for m in self.machines if m.cluster_id != self.cluster_id]
        if wrong:
            raise ModelError(
                f"machines {[m.machine_id for m in wrong]} carry a cluster_id "
                f"different from {self.cluster_id}"
            )

    @property
    def databanks(self) -> frozenset[str]:
        return self.machines[0].databanks

    @property
    def cycle_time(self) -> float:
        return self.machines[0].cycle_time

    @property
    def aggregate_speed(self) -> float:
        """Sum of the speeds of the cluster's machines."""
        return sum(m.speed for m in self.machines)

    def __len__(self) -> int:
        return len(self.machines)


@dataclass(frozen=True)
class CapabilityClass:
    """A maximal group of machines hosting exactly the same databank set.

    Because the divisible-load model has no per-job parallelism bound, any
    allocation of work to such a group can be split across its members
    proportionally to their speed without changing feasibility (see
    DESIGN.md, "Machine aggregation by capability class").  The LP-based
    schedulers therefore work on capability classes rather than individual
    machines, which keeps linear programs small.
    """

    databanks: frozenset[str]
    machine_ids: tuple[int, ...]
    aggregate_speed: float

    def __post_init__(self) -> None:
        if not self.machine_ids:
            raise ModelError("a CapabilityClass must contain at least one machine")
        if self.aggregate_speed <= 0:
            raise ModelError(
                f"a CapabilityClass must have positive aggregate speed, got {self.aggregate_speed}"
            )

    @property
    def cycle_time(self) -> float:
        """Equivalent cycle time of the aggregated class (:math:`1/\\sum 1/p_i`)."""
        return 1.0 / self.aggregate_speed

    def hosts(self, databank: str | None) -> bool:
        if databank is None:
            return True
        return databank in self.databanks


class Platform(Sequence[Machine]):
    """An immutable collection of machines forming the target platform."""

    __slots__ = ("_machines", "_by_id", "_ids", "_clusters", "_hosting")

    def __init__(self, machines: Iterable[Machine]):
        machines = tuple(machines)
        if not machines:
            raise ModelError("a Platform must contain at least one machine")
        by_id: dict[int, Machine] = {}
        for machine in machines:
            if not isinstance(machine, Machine):
                raise ModelError(f"Platform expects Machine instances, got {type(machine)!r}")
            if machine.machine_id in by_id:
                raise ModelError(f"duplicate machine_id {machine.machine_id}")
            by_id[machine.machine_id] = machine
        self._machines = machines
        self._by_id = by_id
        self._ids = tuple(by_id)
        self._clusters: tuple[Cluster, ...] | None = None
        self._hosting: dict[str | None, tuple[Machine, ...]] = {}

    # -- constructors ------------------------------------------------------
    @classmethod
    def single_machine(cls, cycle_time: float = 1.0, databanks: Iterable[str] = ()) -> "Platform":
        """A single-processor platform (the uni-processor model of Section 4)."""
        return cls([Machine(0, cycle_time, 0, frozenset(databanks))])

    @classmethod
    def uniform(cls, cycle_times: Sequence[float], databanks: Iterable[str] = ()) -> "Platform":
        """A fully uniform platform: every machine hosts every databank."""
        banks = frozenset(databanks)
        return cls(
            Machine(i, ct, i, banks) for i, ct in enumerate(cycle_times)
        )

    @classmethod
    def from_clusters(
        cls,
        cluster_specs: Sequence[tuple[int, float, Iterable[str]]],
    ) -> "Platform":
        """Build a platform from ``(num_processors, cycle_time, databanks)`` tuples.

        Each tuple describes one site: its processor count, the per-processor
        cycle time and the databanks replicated on that site.
        """
        machines: list[Machine] = []
        machine_id = 0
        for cluster_id, (count, cycle_time, banks) in enumerate(cluster_specs):
            if count <= 0:
                raise ModelError(f"cluster {cluster_id} must have at least one processor")
            bankset = frozenset(banks)
            for _ in range(count):
                machines.append(Machine(machine_id, cycle_time, cluster_id, bankset))
                machine_id += 1
        return cls(machines)

    # -- Sequence protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._machines)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self._machines)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return Platform(self._machines[index])
        return self._machines[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Platform):
            return self._machines == other._machines
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._machines)

    def __repr__(self) -> str:
        return f"Platform({len(self._machines)} machines, {len(self.clusters())} clusters)"

    # -- lookups --------------------------------------------------------------
    def by_id(self, machine_id: int) -> Machine:
        """Return the machine with identifier ``machine_id``."""
        return self._by_id[machine_id]

    def ids(self) -> tuple[int, ...]:
        return self._ids

    def clusters(self) -> tuple[Cluster, ...]:
        """Group machines by ``cluster_id`` (cached)."""
        if self._clusters is None:
            grouped: dict[int, list[Machine]] = {}
            for machine in self._machines:
                grouped.setdefault(machine.cluster_id, []).append(machine)
            self._clusters = tuple(
                Cluster(cid, tuple(ms)) for cid, ms in sorted(grouped.items())
            )
        return self._clusters

    def databanks(self) -> frozenset[str]:
        """All databanks hosted somewhere on the platform."""
        banks: set[str] = set()
        for machine in self._machines:
            banks.update(machine.databanks)
        return frozenset(banks)

    def machines_hosting(self, databank: str | None) -> tuple[Machine, ...]:
        """All machines able to process a job targeting ``databank`` (cached)."""
        hosts = self._hosting.get(databank)
        if hosts is None:
            hosts = tuple(m for m in self._machines if m.hosts(databank))
            self._hosting[databank] = hosts
        return hosts

    def aggregate_speed(self, databank: str | None = None) -> float:
        """Total speed (work per second) available to jobs targeting ``databank``.

        This is the power of the *equivalent processor* of Lemma 1:
        :math:`1/p_\\mathrm{equiv} = \\sum_i 1/p_i` over eligible machines.
        """
        speeds = [m.speed for m in self._machines if m.hosts(databank)]
        return float(sum(speeds))

    def is_uniform_for(self, databanks: Iterable[str | None]) -> bool:
        """True when every machine hosts every databank in ``databanks``.

        In that case the restricted-availability constraint is vacuous and
        Lemma 1 applies directly: the platform behaves like a single
        preemptive processor of speed :meth:`aggregate_speed`.
        """
        for bank in databanks:
            if bank is None:
                continue
            if any(not m.hosts(bank) for m in self._machines):
                return False
        return True

    def capability_classes(self) -> tuple[CapabilityClass, ...]:
        """Group machines by identical databank sets.

        Classes are returned in deterministic order (sorted by databank set),
        each carrying its aggregated speed and the member machine ids sorted
        by decreasing speed (the order used when splitting work back onto
        physical machines).
        """
        grouped: dict[frozenset[str], list[Machine]] = {}
        for machine in self._machines:
            grouped.setdefault(machine.databanks, []).append(machine)
        classes: list[CapabilityClass] = []
        for banks in sorted(grouped, key=lambda b: (len(b), sorted(b))):
            members = sorted(grouped[banks], key=lambda m: (-m.speed, m.machine_id))
            classes.append(
                CapabilityClass(
                    databanks=banks,
                    machine_ids=tuple(m.machine_id for m in members),
                    aggregate_speed=float(sum(m.speed for m in members)),
                )
            )
        return tuple(classes)

    def restrict_to(self, machine_ids: Iterable[int]) -> "Platform":
        """A sub-platform containing only the given machines."""
        wanted = set(machine_ids)
        return Platform(m for m in self._machines if m.machine_id in wanted)

    def describe(self) -> str:
        """A human-readable multi-line description of the platform."""
        lines = [f"Platform: {len(self)} machines in {len(self.clusters())} clusters"]
        for cluster in self.clusters():
            banks = ", ".join(sorted(cluster.databanks)) or "(none)"
            lines.append(
                f"  cluster {cluster.cluster_id}: {len(cluster)} procs, "
                f"cycle_time={cluster.cycle_time:.4g}s/unit, databanks: {banks}"
            )
        return "\n".join(lines)
