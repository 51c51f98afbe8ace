"""Machine availability timelines for fault injection.

A :class:`FaultTimeline` is the exogenous description of when machines leave
and rejoin the platform.  It is deliberately *dumb* data: a sorted list of
per-machine DOWN/UP transitions plus a loss model describing what happens to
work that was in flight on a machine when it failed.  The simulation engine
delivers the transitions through the kernel's ``WAKEUP`` event seam (see
``simulation/clock.py``) so that availability changes ride the exact same
batched event path as job arrivals.

Two loss models are supported:

``resume``
    The machine's in-flight work survives the outage (think checkpoint on
    every byte, or a disconnect that merely pauses the CPU).  Remaining work
    is unchanged; the job simply continues elsewhere or waits.

``restart``
    Progress beyond the last checkpoint is lost.  With checkpoint fraction
    ``f`` in ``[0, 1]`` a job that had processed ``p`` units of its size
    ``w`` keeps only ``f * p`` of that progress, i.e. its remaining work is
    reset to ``w - f * p``.  ``f = 0`` is a full restart; ``f = 1`` is
    equivalent to ``resume``.

The on-disk format is JSONL, one *interval* per line::

    {"machine": 3, "down": 12.5, "up": 40.0}
    {"machine": 0, "down": 55.0, "up": null}

``up: null`` (or a missing ``up`` key) means the machine never returns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "LOSS_MODELS",
    "FaultEvent",
    "FaultTimeline",
    "apply_loss",
    "load_fault_timeline",
    "save_fault_timeline",
]

#: Supported in-flight work loss models.
LOSS_MODELS = ("resume", "restart")


@dataclass(frozen=True)
class FaultEvent:
    """One availability transition: machine ``machine_id`` goes down or up."""

    time: float
    machine_id: int
    up: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ModelError(f"fault transition time must be finite and >= 0, got {self.time}")


def apply_loss(
    remaining: float,
    size: float,
    *,
    loss_model: str = "resume",
    checkpoint_fraction: float = 0.0,
) -> float:
    """Remaining work of a job after the machine processing it failed.

    ``remaining`` is the job's remaining work at the instant of the failure
    and ``size`` its total work.  Under ``resume`` the value is returned
    unchanged; under ``restart`` the uncheckpointed progress is added back.
    """
    if loss_model == "resume":
        return remaining
    if loss_model != "restart":
        raise ModelError(f"unknown loss model {loss_model!r}; expected one of {LOSS_MODELS}")
    processed = max(0.0, size - remaining)
    restored = size - checkpoint_fraction * processed
    # Guard against float drift: never report more work than the job's size
    # nor less than it actually had left.
    return min(size, max(remaining, restored))


class FaultTimeline:
    """A sorted collection of machine availability transitions.

    The timeline is immutable after construction.  An empty timeline is
    falsy, which the engine uses to keep the no-faults fast path bit-identical
    to a fault-unaware run.
    """

    __slots__ = ("_events", "loss_model", "checkpoint_fraction")

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        *,
        loss_model: str = "resume",
        checkpoint_fraction: float = 0.0,
    ) -> None:
        if loss_model not in LOSS_MODELS:
            raise ModelError(f"unknown loss model {loss_model!r}; expected one of {LOSS_MODELS}")
        if not (0.0 <= checkpoint_fraction <= 1.0):
            raise ModelError(f"checkpoint_fraction must lie in [0, 1], got {checkpoint_fraction}")
        ordered = sorted(events, key=lambda e: (e.time, e.machine_id, e.up))
        self._events: tuple[FaultEvent, ...] = tuple(ordered)
        self.loss_model = loss_model
        self.checkpoint_fraction = checkpoint_fraction
        self._validate_alternation()

    def _validate_alternation(self) -> None:
        state: dict[int, bool] = {}  # machine -> currently down?
        for event in self._events:
            down_now = state.get(event.machine_id, False)
            if event.up and not down_now:
                raise ModelError(
                    f"machine {event.machine_id} comes UP at t={event.time} without being down"
                )
            if not event.up and down_now:
                raise ModelError(
                    f"machine {event.machine_id} goes DOWN at t={event.time} while already down"
                )
            state[event.machine_id] = not event.up

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultTimeline({len(self._events)} transitions, "
            f"loss_model={self.loss_model!r}, checkpoint_fraction={self.checkpoint_fraction})"
        )

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def machine_ids(self) -> tuple[int, ...]:
        return tuple(sorted({e.machine_id for e in self._events}))

    def restrict_to(self, machine_ids: Iterable[int]) -> "FaultTimeline":
        """Timeline containing only transitions of ``machine_ids``."""
        keep = set(machine_ids)
        return FaultTimeline(
            (e for e in self._events if e.machine_id in keep),
            loss_model=self.loss_model,
            checkpoint_fraction=self.checkpoint_fraction,
        )

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_intervals(
        cls,
        intervals: Iterable[tuple[int, float, float | None]],
        *,
        loss_model: str = "resume",
        checkpoint_fraction: float = 0.0,
    ) -> "FaultTimeline":
        """Build from ``(machine_id, down_time, up_time_or_None)`` triples."""
        events: list[FaultEvent] = []
        for machine_id, down, up in intervals:
            events.append(FaultEvent(time=float(down), machine_id=int(machine_id), up=False))
            if up is not None:
                if up <= down:
                    raise ModelError(
                        f"machine {machine_id} outage must end after it starts "
                        f"(down={down}, up={up})"
                    )
                events.append(FaultEvent(time=float(up), machine_id=int(machine_id), up=True))
        return cls(events, loss_model=loss_model, checkpoint_fraction=checkpoint_fraction)

    def intervals(self) -> list[tuple[int, float, float | None]]:
        """Inverse of :meth:`from_intervals` (open outages get ``None``)."""
        open_down: dict[int, float] = {}
        rows: list[tuple[int, float, float | None]] = []
        for event in self._events:
            if event.up:
                rows.append((event.machine_id, open_down.pop(event.machine_id), event.time))
            else:
                open_down[event.machine_id] = event.time
        for machine_id, down in sorted(open_down.items()):
            rows.append((machine_id, down, None))
        rows.sort(key=lambda r: (r[1], r[0]))
        return rows

    # -- engine-facing queries ---------------------------------------------

    def transitions_after(self, start: float = 0.0) -> tuple[FaultEvent, ...]:
        """Transitions at or after ``start``, in delivery order."""
        return tuple(e for e in self._events if e.time >= start)


def save_fault_timeline(timeline: FaultTimeline, path: "str | Path") -> None:
    """Write ``timeline`` as JSONL intervals (see module docstring)."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        header = {
            "loss_model": timeline.loss_model,
            "checkpoint_fraction": timeline.checkpoint_fraction,
        }
        handle.write(json.dumps({"fault_trace": header}) + "\n")
        for machine_id, down, up in timeline.intervals():
            handle.write(json.dumps({"machine": machine_id, "down": down, "up": up}) + "\n")


def load_fault_timeline(
    path: "str | Path",
    *,
    loss_model: str | None = None,
    checkpoint_fraction: float | None = None,
) -> FaultTimeline:
    """Read a JSONL fault trace; explicit keyword overrides beat the header."""
    source = Path(path)
    header: Mapping[str, object] = {}
    rows: list[tuple[int, float, float | None]] = []
    with source.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ModelError(f"{source}:{line_no}: invalid JSON in fault trace") from exc
            if "fault_trace" in payload:
                header = payload["fault_trace"] or {}
                continue
            try:
                machine = int(payload["machine"])
                down = float(payload["down"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(
                    f"{source}:{line_no}: fault interval needs 'machine' and 'down'"
                ) from exc
            raw_up = payload.get("up")
            rows.append((machine, down, None if raw_up is None else float(raw_up)))
    model = loss_model if loss_model is not None else str(header.get("loss_model", "resume"))
    fraction = (
        checkpoint_fraction
        if checkpoint_fraction is not None
        else float(header.get("checkpoint_fraction", 0.0))
    )
    return FaultTimeline.from_intervals(rows, loss_model=model, checkpoint_fraction=fraction)


def _coerce_timeline(value: object) -> "FaultTimeline | None":
    """Accept a timeline, a trace path, interval triples, or None."""
    if value is None:
        return None
    if isinstance(value, FaultTimeline):
        return value
    if isinstance(value, (str, Path)):
        return load_fault_timeline(value)
    if isinstance(value, Sequence):
        return FaultTimeline.from_intervals(value)  # type: ignore[arg-type]
    raise ModelError(f"cannot interpret {type(value).__name__} as a fault timeline")
