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

from .bounds import _alpha_beta, _t_refines, distortion_bound, t_function
from .exceptions import DomainError
from .herglotz import GeneratorSpec
from .resolvent import solve_resolvent_grid


def starlike_functional_grid(spec: GeneratorSpec, lam: float, z) -> np.ndarray:
    """Vectorized Q over an array of points (Q = 1 exactly at z = 0): the solve's ``Q``."""
    return solve_resolvent_grid(spec, lam, z).Q


def starlike_functional_fd(spec: GeneratorSpec, lam: float, z: complex, step: float = 1e-6) -> complex:
    """Independent route to Q: central finite difference of h(z) = G(z).

    Q = h / (z h'), with h' approximated by (h(z+d) - h(z-d)) / (2d) along
    the real direction (h is holomorphic, so one direction determines the
    derivative).  Agrees with the closed-form route to relative 1e-6 for
    |z| <= 0.9.
    """
    zc = complex(z)
    if zc == 0.0:
        return 1.0 + 0.0j
    if abs(zc) + step >= 1.0:
        raise DomainError("finite-difference stencil must stay inside the disk")
    pts = np.array([zc, zc + step, zc - step])
    w = solve_resolvent_grid(spec, lam, pts).w
    h_prime = (w[1] - w[2]) / (2.0 * step)
    return complex(w[0] / (zc * h_prime))


def _scan_points(n_samples, r_max) -> np.ndarray:
    """Deterministic scan grid: a dense boundary ring plus a sunflower fill.

    |Q - 1| and the order functional Re(1/Q) are extremal on |z| = r_max
    (maximum principle / harmonicity), so most points go on the ring; the
    axis points +-r, +-ir are always included since the sharp cases sit on
    atom directions.  r_max must lie in (0, 0.999].
    """
    if not (0.0 < r_max <= 0.999):
        raise DomainError(f"r_max must lie in (0, 0.999], got {r_max}")
    n_samples, r_max = int(n_samples), float(r_max)
    n_ring = max(8, (3 * n_samples) // 4)
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


@dataclass(frozen=True)
class TheoremComparison:
    """Analytic deviation bound versus the sampled maximum deviation.

    baseline_only means T(rho) does not refine the universal bound
    |Q - 1| <= 1: rho exceeds rho* (T > 1) or reaches 1 (T unbounded).
    t_bound and slack are then inf.
    """

    rho_used: float
    t_bound: float
    max_deviation: float
    slack: float
    containment_ok: bool
    baseline_only: bool


def theorem_vs_empirical(
    spec: GeneratorSpec,
    lam: float,
    n_samples: int = 512,
    r_max: float = 0.99,
    use_sampled_sup: bool = False,
) -> TheoremComparison:
    """Check |Q - 1| <= T(rho) against samples and report the slack.

    rho defaults to the analytic distortion bound (valid on the whole
    disk); ``use_sampled_sup`` additionally caps it by the sampled
    sup |G| over |z| = r_max, a tighter but sample-based hypothesis.
    """
    zs = _scan_points(n_samples, r_max)
    sol = solve_resolvent_grid(spec, lam, zs)
    max_dev = float(np.max(np.abs(sol.Q - 1.0)))

    rho = distortion_bound(spec.q, spec.a, lam)
    if use_sampled_sup:
        rho = min(rho, float(np.max(np.abs(sol.w))))
    baseline = not _t_refines(spec.q, spec.a, lam, rho)
    t_bound = math.inf if baseline else t_function(*_alpha_beta(spec.q, spec.a, lam), rho)
    return TheoremComparison(
        rho_used=rho,
        t_bound=t_bound,
        max_deviation=max_dev,
        slack=t_bound - max_dev,
        containment_ok=baseline or max_dev <= t_bound + 1e-9,
        baseline_only=baseline,
    )
