"""Shared exception types, and the input rules that every layer applies.

The CLI maps these onto its exit-code contract: DomainError and
ConfigError exit 2, NonConvergenceError exits 3.  The rules on lambda, points,
counts, flow end times, broadcasting, q, the floor a and Re q >= a live here,
so a bad input gets one DomainError wherever it enters, and a spec number
that is no finite real gets one ConfigError.  The rule that a 0-d result
is returned as a Python scalar lives here too.
"""

import math
import numbers

import numpy as np


class ResolventLabError(Exception):
    """Base class for all library errors."""


class DomainError(ResolventLabError, ValueError):
    """Input outside the mathematical domain (|z| >= 1, lambda <= 0, ...)."""


class ConfigError(ResolventLabError, ValueError):
    """Malformed configuration, spec file, or sampling ranges."""


class NonConvergenceError(ResolventLabError, RuntimeError):
    """Solver exhausted its iteration budget, or a point's residual is not finite.

    Signals numerical pathology, not mathematical failure: the resolvent
    exists and is unique whenever Re p >= a >= 0.  The iterate of the
    worst point (largest residual), with its z and lambda, is attached for
    diagnosis.
    """

    def __init__(self, message, w=None, residual=None, iterations=None, z=None, lam=None):
        super().__init__(message)
        self.w = w
        self.residual = residual
        self.iterations = iterations
        self.z = z
        self.lam = lam


class IntegrationError(ResolventLabError, RuntimeError):
    """Flow computation aborted; carries the trajectory up to the failure."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


def _check(ok, message: str, *values) -> None:
    """DomainError unless ``ok`` holds everywhere; the message shows ``values`` at the first entry where it fails."""
    ok = np.asarray(ok)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise DomainError(message.format(*(np.broadcast_to(v, ok.shape).item(first) for v in values)))


def _out(x):
    """A 0-d result as a Python scalar, any other result as the array."""
    return x.item() if np.ndim(x) == 0 else x


def _real(value, name: str) -> float:
    """value as a float; ConfigError unless it is a finite real number, not a bool or text."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer that no double holds
        pass
    raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def _finite_q(q) -> np.ndarray:
    """q as a complex array; DomainError unless both parts are finite."""
    q = np.asarray(q, dtype=complex)
    _check(np.isfinite(q), "q must be finite, got {}", q)
    return q


def _check_floor(a) -> np.ndarray:
    """a as a float array; DomainError unless 0 <= a < inf, which NaN fails too."""
    a = np.asarray(a, dtype=float)
    _check((0.0 <= a) & (a < math.inf), "accretivity floor must be finite and >= 0, got a = {}", a)
    return a


def _check_class(q, a) -> None:
    """DomainError unless Re q >= a, so that p(0) = q fits the class with floor a."""
    _check(q.real >= a, "need Re q >= a, got Re q = {}, a = {}", q.real, a)


def _check_lambda(lam) -> np.ndarray:
    """lam as a float array; DomainError unless every entry is positive and finite."""
    lam = np.asarray(lam, dtype=float)
    _check(np.isfinite(lam) & (lam > 0.0), "lambda must be positive and finite, got {}", lam)
    return lam


def _check_points(z) -> np.ndarray:
    """z as a complex array; DomainError unless every |z| < 1, which NaN fails."""
    z = np.asarray(z, dtype=complex)
    absz = np.abs(z)
    _check(absz < 1.0, "points must lie in the open unit disk, got |z| = {}", absz)
    return z


def _check_broadcast(*named) -> list:
    """The arrays of (name, array) pairs, broadcast together; DomainError naming every shape unless they broadcast."""
    try:
        return np.broadcast_arrays(*(a for _, a in named))
    except ValueError as exc:
        shapes = ", ".join(f"{name} of shape {np.shape(a)}" for name, a in named)
        raise DomainError(f"shapes do not broadcast: {shapes}") from exc


def _check_t_end(t_end) -> float:
    """t_end as a float; DomainError unless it is finite and >= 0."""
    t_end = float(t_end)
    _check(0.0 <= t_end < math.inf, "t_end must be finite and >= 0, got {}", t_end)
    return t_end


# The most resolvent steps one composition may take.  ``iterate_resolvent`` makes one grid solve per step,
# one after the other, so this bounds the time that one count from outside can ask for.
MAX_COMPOSITIONS = 2**16


def _check_count(n, name: str, maximum: int = 2**63 - 1) -> np.ndarray:
    """n as an int64 array; DomainError unless every entry is an integer, not a bool, in [1, maximum]."""
    items = np.asarray(n, dtype=object)
    ok = np.fromiter((isinstance(v, numbers.Integral) and not isinstance(v, (bool, np.bool_)) and v >= 1
                      for v in items.flat), bool, items.size).reshape(items.shape)
    _check(ok, f"{name} must be an integer >= 1, got {{!r}}", items)
    _check(items <= maximum, f"{name} must be at most {maximum}, got {{!r}}", items)
    return items.astype(np.int64)
