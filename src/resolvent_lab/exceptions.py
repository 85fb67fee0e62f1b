"""Shared exception types, and the input rules that every layer applies.

The CLI maps these onto its exit-code contract: DomainError and
ConfigError exit 2, NonConvergenceError exits 3.  The rules on lambda, points
and counts live here, so a bad input gets one DomainError wherever it enters.
"""

import numbers

import numpy as np


class ResolventLabError(Exception):
    """Base class for all library errors."""


class DomainError(ResolventLabError, ValueError):
    """Input outside the mathematical domain (|z| >= 1, lambda <= 0, ...)."""


class ConfigError(ResolventLabError, ValueError):
    """Malformed configuration, spec file, or sampling ranges."""


class NonConvergenceError(ResolventLabError, RuntimeError):
    """Solver exhausted its iteration budget.

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


def _check_count(n, name: str, minimum: int = 1) -> np.ndarray:
    """n as an int64 array; DomainError unless every entry is an integer, not a bool, and >= ``minimum``."""
    items = np.asarray(n, dtype=object)
    ok = np.fromiter((isinstance(v, numbers.Integral) and not isinstance(v, (bool, np.bool_)) and v >= minimum
                      for v in items.flat), bool, items.size).reshape(items.shape)
    _check(ok, f"{name} must be an integer >= {minimum}, got {{!r}}", items)
    _check(items < 2**63, f"{name} must be below 2**63, got {{!r}}", items)
    return items.astype(np.int64)
