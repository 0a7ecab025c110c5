"""Exception hierarchy and validation helpers for the repro library."""

from __future__ import annotations

from typing import Iterable


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration object was constructed with inconsistent parameters."""


class MappingError(ReproError):
    """A workload could not be mapped onto the given system architecture."""


class CapacityError(ReproError):
    """A working set does not fit in the targeted memory level or device."""


class NetlistError(ReproError):
    """A netlist is structurally invalid (dangling nets, bad arity, cycles)."""


class SynthesisError(ReproError):
    """The EDA flow could not translate a design into the PCL library."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(message)


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if value is None or not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is >= 0 (and not NaN) and return it."""
    if value is None or not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if value is None or not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be within [0, 1], got {value!r}")
    return value


def require_in(name: str, value: object, allowed: Iterable[object]) -> object:
    """Validate that ``value`` is one of ``allowed`` and return it."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
    return value
