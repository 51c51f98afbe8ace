"""In-memory span recorder for the traced benchmark pass.

The benchmark owns its tracing: while a traced pass runs, :class:`Tracer`
replaces the layers' public callables (class methods and module-level
functions of :mod:`repro`) with thin wrappers that record one span per call,
and puts every original back on exit.  Nothing under ``src/`` knows about
it, and the untraced pass -- the one the end-to-end numbers come from --
never installs it.

A span is ``(name, start, end, parent, run)``: ``parent`` is the span that
was open on the same thread when this one started, ``run`` the identifier of
the unit of work (one ``simulate()``, one daemon step) the workload set on
the tracer.  A layer's *self time* is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["Span", "Tracer", "self_seconds", "inclusive_seconds", "durations"]


class Span:
    """One recorded call; ``end`` is ``None`` while the call is open."""

    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name: str, start: float, parent: "Span | None", run: str):
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.run = run

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Records spans and owns the wrappers that produce them.

    ``clock`` is injectable for tests.  Spans may be opened from any thread
    (the daemon's engine and HTTP handler threads do); each thread keeps its
    own stack of open spans, so a span's parent is always on its own thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: Identifier stamped on every span opened from now on.
        self.run = ""
        self._open = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------
    def begin(self, name: str) -> Span:
        stack = self._open.__dict__.setdefault("stack", [])
        span = Span(name, self.clock(), stack[-1] if stack else None, self.run)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic across threads
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.stack.pop()

    # -- wrapping ----------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: "Callable[[object], None] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` (class or module) by a span-recording wrapper.

        ``on_return``, when given, is handed every return value after its
        span closed (how the benchmark gets at results a layer above drops).
        """
        original = vars(owner)[attr]
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                value = original(*args, **kwargs)
            finally:
                end(span)
            if on_return is not None:
                on_return(value)
            return value

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_function(self, func: Callable, name: str) -> None:
        """Wrap ``func`` in every loaded ``repro`` module that refers to it.

        Callers that did ``from module import func`` hold their own
        reference, so patching the defining module alone would miss them.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.wrap(module, attr, name)

    def wrap_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
        seen: set[type] = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls) and not getattr(
                vars(cls)[attr], "__isabstractmethod__", False
            ):
                self.wrap(cls, attr, name)

    def restore(self) -> None:
        """Put every wrapped callable back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------
    def write(self, path: "str | Path") -> Path:
        """Write the closed spans as JSONL: name, start, end, parent, run."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [span for span in self.spans if span.end is not None]
        ids = {id(span): index for index, span in enumerate(spans)}
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": None
                            if span.parent is None
                            else ids.get(id(span.parent)),
                            "run": span.run,
                        }
                    )
                    + "\n"
                )
        return path


# -- span arithmetic ---------------------------------------------------------------
def self_seconds(spans: Iterable[Span]) -> dict[str, float]:
    """Per name: total duration minus the part covered by direct child spans.

    Children run on their parent's thread, one after the other, so the part
    of the parent's interval they cover is the sum of their durations.
    """
    spans = [span for span in spans if span.end is not None]
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    for span in spans:
        if span.parent is not None and span.parent.end is not None:
            totals[span.parent.name] -= span.duration
    return totals


def inclusive_seconds(spans: Iterable[Span]) -> dict[str, float]:
    """Per name: total duration, children included.

    A span nested directly inside a span of its own name (an override
    calling ``super()``) is already counted by its parent and skipped.
    """
    totals: dict[str, float] = {}
    for span in spans:
        if span.parent is not None and span.parent.name == span.name:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def durations(spans: Iterable[Span], name: str) -> list[float]:
    """Durations of the outermost spans called ``name``, in start order."""
    return [
        span.duration
        for span in spans
        if span.name == name
        and not (span.parent is not None and span.parent.name == name)
    ]
