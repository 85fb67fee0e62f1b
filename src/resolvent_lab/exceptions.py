"""Shared exception types.

The CLI maps these onto its exit-code contract: DomainError and
ConfigError exit 2, NonConvergenceError exits 3.
"""


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

