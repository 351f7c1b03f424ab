"""Shared exception types, and the range check every config section runs."""
from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class SensorError(RuntimeError):
    """Sensor query from an invalid pose (e.g. inside an obstacle)."""


class NoPathError(RuntimeError):
    """Start and goal are not connected in the motion graph."""


class LoadError(RuntimeError):
    """Artifact file is missing fields, truncated, or version-mismatched."""


class TrainingError(RuntimeError):
    """Training produced non-finite values."""


class DependencyError(RuntimeError):
    """A required upstream artifact is missing or inconsistent."""


class ConstraintViolation(RuntimeError):
    """Trained policy failed the path-length constraint gate."""


@dataclass(frozen=True)
class Range:
    """Legal values of a numeric config field, declared next to its type as
    ``Annotated[float, Range(0, 1, lo_open=True)]``. Bounds are inclusive
    unless marked open; None leaves that side unbounded. On a tuple field
    the range holds for every entry, and the tuple needs at least one."""

    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, v) -> bool:
        return ((self.lo is None or (v > self.lo if self.lo_open else v >= self.lo)) and
                (self.hi is None or (v < self.hi if self.hi_open else v <= self.hi)))

    def __str__(self) -> str:
        lo = "(-inf" if self.lo is None else ("(" if self.lo_open else "[") + str(self.lo)
        hi = "inf)" if self.hi is None else str(self.hi) + (")" if self.hi_open else "]")
        return f"{lo}, {hi}"


@functools.cache
def field_ranges(cls) -> tuple[tuple[str, Range], ...]:
    """(name, Range) of every field of dataclass `cls` whose annotation
    declares one, inherited fields included; read once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, r) for f in dataclasses.fields(cls)
                 for r in getattr(hints[f.name], "__metadata__", ()) if isinstance(r, Range))


def check_ranges(obj) -> None:
    """ConfigError naming the first field of dataclass `obj` whose value
    lies outside the Range its annotation declares. None passes. Config
    sections run this as (or first in) their ``__post_init__``."""
    for name, r in field_ranges(type(obj)):
        _check(name, getattr(obj, name), r)


def _check(name: str, v, r: Range) -> None:
    if isinstance(v, tuple):
        if not v:
            raise ConfigError(f"{name} needs at least one entry")
        for x in v:
            _check(name, x, r)
    elif v is not None and v not in r:
        raise ConfigError(f"{name} must be in {r}, got {v}")
