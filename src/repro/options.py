"""Typed option enums for the knobs that accumulated as bare strings.

The experiment surface grew a handful of string/bool toggles over time --
``--state-bank on|off``, ``--solver-backend scipy|highs|auto`` -- each
validated ad hoc at its own entry point.  This module normalizes them
into enums with one shared coercion rule and one shared ``argparse``
helper:

* every enum subclasses :class:`OptionEnum` (a ``str`` mixin, so members
  compare equal to their spelling, serialize to JSON as plain strings and
  pass through existing ``== "auto"``-style checks unchanged);
* :meth:`OptionEnum.coerce` turns user input into a member, accepting the
  canonical spellings case-insensitively and rejecting anything else with
  the list of choices;
* :func:`enum_option` builds the ``add_argument`` keywords so every CLI
  toggle parses, validates and displays its choices the same way.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

__all__ = [
    "OptionEnum",
    "OnOff",
    "SolverBackendChoice",
    "enum_option",
]


class OptionEnum(str, Enum):
    """Base class for the string-valued option enums.

    Members *are* their canonical spelling (``str(OnOff.ON) == "on"``), so
    call sites that historically compared or stored raw strings keep working
    after the migration to typed values.
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
    def from_bool(cls, value: bool) -> "OnOff":
        return cls.ON if value else cls.OFF

    @classmethod
    def coerce(cls, value: Any, *, param: str | None = None) -> "OnOff":
        if isinstance(value, bool):
            return cls.from_bool(value)
        return super().coerce(value, param=param)  # type: ignore[return-value]


class SolverBackendChoice(OptionEnum):
    """LP solver backend selector (``scipy`` | ``highs`` | ``auto``).

    Values mirror :data:`repro.lp.backends.BACKEND_CHOICES`; the member is a
    ``str`` and is handed to :func:`repro.lp.backends.make_backend` as-is.
    """

    SCIPY = "scipy"
    HIGHS = "highs"
    AUTO = "auto"


def enum_option(
    enum_cls: "type[OptionEnum]",
    default: Any,
    *,
    param: str | None = None,
) -> dict[str, Any]:
    """``argparse.add_argument`` keywords for an enum-valued option.

    One helper, every toggle: input goes through :meth:`OptionEnum.coerce`
    (canonical spellings, case-insensitively), the ``choices`` list shows
    them, and the parsed value is always an enum member.
    """

    def parse(text: str) -> OptionEnum:
        try:
            return enum_cls.coerce(text, param=param)
        except ValueError as exc:
            # argparse reports the type error with its own framing; keep ours.
            raise ValueError(str(exc)) from None

    return {
        "type": parse,
        "choices": tuple(enum_cls),
        "default": enum_cls.coerce(default, param=param),
        "metavar": "|".join(m.value for m in enum_cls),
    }
