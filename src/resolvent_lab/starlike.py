"""Starlikeness functional of resolvents and empirical order scans.

For G(z) = g(z) z solving the resolvent equation, the functional

    Q(z) = G(z) / (z G'(z)) = 1 + lambda p'(w) w / (1 + lambda p(w)),   w = G(z),

measures starlikeness: G is starlike of order gamma iff Q stays in the disk
|Q - 1/(2 gamma)| <= 1/(2 gamma), and strongly starlike of order beta iff
|arg Q| <= pi beta / 2.  Every resolvent of the implemented class satisfies
|Q - 1| <= 1 (order at least 1/2), and |Q - 1| <= T(rho) whenever
|G| <= rho on the disk.

Q at z = 0 is defined as exactly 1 by continuity (documented convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, _check_count
from .herglotz import GeneratorSpec
from .resolvent import solve_resolvent_grid


def starlike_functional_grid(spec: GeneratorSpec, lam: float, z) -> np.ndarray:
    """Vectorized Q over an array of points (Q = 1 exactly at z = 0): the solve's ``Q``."""
    return solve_resolvent_grid(spec, lam, z).Q


def _scan_points(n_samples, r_max) -> np.ndarray:
    """Deterministic scan grid: a dense boundary ring plus a sunflower fill.

    |Q - 1| and the order functional Re(1/Q) are extremal on |z| = r_max
    (maximum principle / harmonicity), so most points go on the ring; the
    axis points +-r, +-ir are always included since the sharp cases sit on
    atom directions.  n_samples must be an integer >= 1 and r_max must lie
    in (0, 0.999].
    """
    n_samples = int(_check_count(n_samples, "n_samples"))
    if not (0.0 < r_max <= 0.999):
        raise DomainError(f"r_max must lie in (0, 0.999], got {r_max}")
    r_max = float(r_max)
    n_ring = max(8, min((3 * n_samples) // 4, n_samples - 4))
    n_in = max(0, n_samples - n_ring - 4)
    ang = 2.0 * np.pi * (np.arange(n_ring) + 0.371) / n_ring
    ring = r_max * np.exp(1j * ang)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(1, n_in + 1)
    inner = r_max * np.sqrt(k / (n_in + 1.0)) * np.exp(2j * np.pi * golden * k)
    axis = np.array([r_max, -r_max, 1j * r_max, -1j * r_max])
    return np.concatenate([ring, inner, axis])


@dataclass(frozen=True)
class OrderScan:
    """Sample-based estimates of the starlikeness orders.

    order_lb is the largest gamma whose disk contains every sampled Q;
    strong_order_lb is (2/pi) * max sampled |arg Q|.  Both are estimates
    from finitely many samples, not certificates.
    """

    order_lb: float
    strong_order_lb: float
    max_deviation: float
    n_samples: int
    r_max: float


def empirical_order(
    spec: GeneratorSpec,
    lam: float,
    n_samples: int = 512,
    r_max: float = 0.99,
) -> OrderScan:
    """Scan Q over a deterministic grid and report empirical orders.

    n_samples must be an integer >= 1.  The grid has max(n_samples, 12)
    points: at least 8 on the ring |z| = r_max and the 4 axis points.  The
    result's ``n_samples`` is the count scanned.

    The per-sample largest admissible gamma is Re Q / |Q|^2 (the disk
    condition |Q - 1/(2g)| <= 1/(2g) rearranged), so order_lb is its
    minimum clamped to 1.
    """
    zs = _scan_points(n_samples, r_max)
    Q = starlike_functional_grid(spec, lam, zs)
    dev = np.abs(Q - 1.0)
    gamma_caps = Q.real / (Q.real**2 + Q.imag**2)
    order_lb = float(min(1.0, np.min(gamma_caps)))
    strong_lb = float(min(1.0, 2.0 * np.max(np.abs(np.angle(Q))) / math.pi))
    return OrderScan(
        order_lb=order_lb,
        strong_order_lb=strong_lb,
        max_deviation=float(np.max(dev)),
        n_samples=zs.size,
        r_max=float(r_max),
    )
