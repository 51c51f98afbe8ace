"""Name-based scheduler registry.

The experiment harness, the CLI and the benchmark files refer to schedulers
by short keys (``"offline"``, ``"swrpt"``, ...).  The registry maps these keys
to factories producing fresh scheduler instances, which matters because most
schedulers keep per-run state.

New strategies can be plugged in with :func:`register_scheduler`, either
directly or through the decorator form::

    @register_scheduler("my-heuristic")
    def _make():
        return MyScheduler()

:class:`RunOptions` declares the run options of the LP schedulers once, and
:meth:`RunOptions.scheduler_options_for` is the one rule mapping them onto
the registered keys.  The string-valued option enum :class:`OnOff` lives
next to it, on the coercion rule of :class:`OptionEnum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.schedulers.base import Scheduler
from repro.schedulers.bender02 import Bender02Scheduler
from repro.schedulers.bender98 import Bender98Scheduler
from repro.schedulers.mct import MCTDivScheduler, MCTScheduler
from repro.schedulers.offline import OfflineScheduler
from repro.schedulers.online_lp import OnlineLPScheduler
from repro.schedulers.policies import parse_policy
from repro.schedulers.priority import (
    EDFScheduler,
    FCFSScheduler,
    SPTScheduler,
    SRPTScheduler,
    SWPTScheduler,
    SWRPTScheduler,
)

__all__ = [
    "register_scheduler",
    "make_scheduler",
    "available_schedulers",
    "paper_schedulers",
    "RunOptions",
    "OptionEnum",
    "OnOff",
    "PAPER_TABLE1_ORDER",
    "ONLINE_LP_SCHEDULERS",
    "LP_SCHEDULERS",
    "SERVICE_SCHEDULERS",
]

#: Keys of the on-line LP heuristics -- the schedulers that accept the
#: replanning knob (``policy=...``).  Kept next to the
#: registrations below so a new variant cannot drift out of sync with the
#: experiment/CLI layers that consult this tuple.
ONLINE_LP_SCHEDULERS: tuple[str, ...] = (
    "online",
    "online-edf",
    "online-egdf",
    "online-nonopt",
)

#: Keys of every scheduler that solves linear programs: the processes that
#: will run one load the HiGHS backend up front (``load_solver``).
LP_SCHEDULERS: tuple[str, ...] = ONLINE_LP_SCHEDULERS + ("offline", "offline-sum", "bender98")

#: Keys of the schedulers usable in *service mode* (streaming arrivals): any
#: strategy that requires no whole-instance knowledge before the first
#: arrival.  Excluded are the clairvoyant off-line optima and the Bender
#: heuristics, whose reset reads the instance-wide job-size ratio Δ --
#: information a daemon does not have when it boots.
SERVICE_SCHEDULERS: tuple[str, ...] = ONLINE_LP_SCHEDULERS + (
    "fcfs",
    "srpt",
    "spt",
    "swpt",
    "swrpt",
    "edf",
    "mct",
    "mct-div",
)


class OptionEnum(str, Enum):
    """Base class for the string-valued option enums.

    Members *are* their canonical spelling (``str(OnOff.ON) == "on"``), so
    they compare equal to it, serialize to JSON as plain strings and pass
    through ``== "auto"``-style checks unchanged.
    """

    # str's __str__/__format__, not Enum's: f"{OnOff.ON}" must be "on" on
    # every supported Python (3.11's StrEnum does this, 3.10 has no StrEnum).
    __str__ = str.__str__
    __format__ = str.__format__

    @classmethod
    def coerce(cls, value: Any, *, param: str | None = None) -> "OptionEnum":
        """Normalize ``value`` into a member of this enum.

        Members pass through; canonical spellings map case-insensitively;
        anything else raises :class:`ValueError` naming the valid choices.
        """
        if isinstance(value, cls):
            return value
        label = param or cls.__name__
        text = str(value).strip().lower()
        try:
            return cls(text)
        except ValueError:
            pass
        valid = ", ".join(repr(m.value) for m in cls)
        raise ValueError(f"{label} must be one of {valid} (got {value!r})")


class OnOff(OptionEnum):
    """A boolean toggle spelled ``on``/``off`` (``--state-bank``).

    Truthiness follows the toggle (``bool(OnOff.OFF) is False``), so the
    member can replace a plain bool anywhere.
    """

    ON = "on"
    OFF = "off"

    def __bool__(self) -> bool:
        return self is OnOff.ON

    @classmethod
    def coerce(cls, value: Any, *, param: str | None = None) -> "OnOff":
        if isinstance(value, bool):
            return cls.ON if value else cls.OFF
        return super().coerce(value, param=param)  # type: ignore[return-value]


@dataclass(frozen=True, kw_only=True)
class RunOptions:
    """The run options of the LP schedulers, declared once.

    :class:`~repro.experiments.config.ExperimentConfig` and
    :class:`~repro.service.daemon.ServiceConfig` inherit these fields, the
    CLI derives its ``--replan-policy`` flag from their metadata, and
    :meth:`scheduler_options_for` is the one rule that maps them onto the
    LP schedulers' constructor options.

    Values are validated on construction: the policy must parse, or
    :class:`ValueError` is raised.
    """

    replan_policy: str = field(
        default="on-arrival",
        metadata={
            "metavar": "SPEC",
            "help": "replan cadence of the on-line LP heuristics: "
            "'on-arrival' (paper default), 'batched:<seconds>' or "
            "'threshold[:<factor>]'",
        },
    )

    def __post_init__(self) -> None:
        parse_policy(self.replan_policy)

    def scheduler_options_for(self, key: str) -> dict[str, object]:
        """Constructor options these run options imply for scheduler ``key``.

        The replan policy goes to the on-line LP heuristics
        (``ONLINE_LP_SCHEDULERS``); every other scheduler gets no options.
        The values are plain strings, so the result can go into a trace
        header as it is.
        """
        if key in ONLINE_LP_SCHEDULERS:
            return {"policy": self.replan_policy}
        return {}


SchedulerFactory = Callable[[], Scheduler]

_REGISTRY: dict[str, SchedulerFactory] = {}


def register_scheduler(key: str, factory: SchedulerFactory | None = None):
    """Register ``factory`` under ``key`` (usable as a decorator)."""
    key = key.lower()

    def _register(fn: SchedulerFactory) -> SchedulerFactory:
        if key in _REGISTRY:
            raise ValueError(f"scheduler key {key!r} is already registered")
        _REGISTRY[key] = fn
        return fn

    if factory is None:
        return _register
    return _register(factory)


def make_scheduler(key: str, **kwargs) -> Scheduler:
    """Instantiate the scheduler registered under ``key``.

    Keyword arguments are forwarded to the factory (most factories accept
    none; the LP-based and Bender98 factories accept tuning options, see
    :meth:`RunOptions.scheduler_options_for`).
    """
    try:
        factory = _REGISTRY[key.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheduler {key!r}; known schedulers: {known}") from None
    return factory(**kwargs) if kwargs else factory()


def available_schedulers() -> list[str]:
    """All registered scheduler keys, sorted."""
    return sorted(_REGISTRY)


#: The strategies of Table 1 of the paper, in the paper's row order.
PAPER_TABLE1_ORDER: tuple[str, ...] = (
    "offline",
    "online",
    "online-edf",
    "online-egdf",
    "bender98",
    "swrpt",
    "srpt",
    "spt",
    "bender02",
    "mct-div",
    "mct",
)


def paper_schedulers(*, include_bender98: bool = True) -> list[str]:
    """The scheduler keys evaluated in the paper's Table 1.

    ``include_bender98=False`` drops Bender98, whose prohibitive overhead
    restricted it to 3-cluster platforms in the paper (Section 5.3).
    """
    keys = list(PAPER_TABLE1_ORDER)
    if not include_bender98:
        keys.remove("bender98")
    return keys


# -- built-in registrations --------------------------------------------------------

register_scheduler("offline", lambda **kw: OfflineScheduler(**kw))
register_scheduler("offline-sum", lambda **kw: OfflineScheduler(reoptimize_sum=True, **kw))
register_scheduler("online", lambda **kw: OnlineLPScheduler(variant="online", **kw))
register_scheduler("online-edf", lambda **kw: OnlineLPScheduler(variant="online-edf", **kw))
register_scheduler("online-egdf", lambda **kw: OnlineLPScheduler(variant="online-egdf", **kw))
register_scheduler(
    "online-nonopt", lambda **kw: OnlineLPScheduler(variant="online-nonopt", **kw)
)
register_scheduler("bender98", lambda **kw: Bender98Scheduler(**kw))
register_scheduler("bender02", lambda **kw: Bender02Scheduler(**kw))
register_scheduler("fcfs", lambda **kw: FCFSScheduler(**kw))
register_scheduler("srpt", lambda **kw: SRPTScheduler(**kw))
register_scheduler("spt", lambda **kw: SPTScheduler(**kw))
register_scheduler("swpt", lambda **kw: SWPTScheduler(**kw))
register_scheduler("swrpt", lambda **kw: SWRPTScheduler(**kw))
register_scheduler("edf", lambda **kw: EDFScheduler(**kw))
register_scheduler("mct", lambda **kw: MCTScheduler(**kw))
register_scheduler("mct-div", lambda **kw: MCTDivScheduler(**kw))
