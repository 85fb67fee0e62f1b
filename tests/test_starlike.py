"""Starlikeness functional: closed forms, dual-route agreement, the deviation bound T."""

import math

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    distortion_bound,
    sample_generator,
    solve_resolvent_grid,
    starlike_functional_grid,
    starlike_order_from_rho,
    t_function,
)
from conftest import disk_points


def q_at(spec, lam, z) -> complex:
    """Q at one point: a one-point solve's ``Q``."""
    return complex(solve_resolvent_grid(spec, lam, [z]).Q[0])


def starlike_functional_fd(spec, lam, z: complex, step: float = 1e-6) -> complex:
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


def scan_points(n_samples, r_max) -> np.ndarray:
    """Deterministic scan grid: a dense boundary ring, a sunflower fill and the axis points +-r_max, +-i r_max.

    |Q - 1| is extremal on |z| = r_max (maximum principle), so most points go
    on the ring; the sharp cases sit on atom directions, hence the axis
    points.  The grid has max(n_samples, 12) points.
    """
    n_ring = max(8, min((3 * n_samples) // 4, n_samples - 4))
    n_in = max(0, n_samples - n_ring - 4)
    ring = r_max * np.exp(1j * (2.0 * np.pi * (np.arange(n_ring) + 0.371) / n_ring))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(1, n_in + 1)
    inner = r_max * np.sqrt(k / (n_in + 1.0)) * np.exp(2j * np.pi * golden * k)
    axis = np.array([r_max, -r_max, 1j * r_max, -1j * r_max])
    return np.concatenate([ring, inner, axis])


def deviation_and_t(spec, lam, n_samples=512, r_max=0.99):
    """Sampled max |Q - 1| and T(rho) at rho = the distortion bound; T is None where it does not refine order 1/2."""
    q, a = spec.q, spec.a
    max_dev = float(np.max(np.abs(solve_resolvent_grid(spec, lam, scan_points(n_samples, r_max)).Q - 1.0)))
    rho = distortion_bound(q, a, lam)
    if not starlike_order_from_rho(q, a, lam, rho).refined:
        return max_dev, None
    return max_dev, t_function(lam * (q.real - a), lam * a, rho)


class TestClosedForms:
    def test_single_atom_lambda_one(self, single_atom):
        # w = z/(2+z) gives Q = 1 + w/(1-w) = 1 + z/2 exactly
        for z in (0.5, -0.7, 0.4 + 0.4j, -0.2 - 0.9j):
            Q = q_at(single_atom, 1.0, z)
            assert Q == pytest.approx(1 + z / 2, abs=1e-11)
            assert abs(Q - 1.0) == pytest.approx(abs(z) / 2, abs=1e-11)

    def test_constant_p_is_one(self, constant_one):
        for z in (0.5, -0.3 + 0.8j):
            Q = q_at(constant_one, 2.0, z)
            assert Q == 1.0
            assert np.angle(Q) == 0.0

    def test_limit_at_zero(self, random_specs):
        for spec in random_specs[:5]:
            assert q_at(spec, 1.5, 0.0) == 1.0
            small = q_at(spec, 1.5, 1e-8)
            assert small == pytest.approx(1.0, abs=1e-6)


class TestDualRoute:
    def test_agreement_sweep(self, random_specs):
        rng = np.random.default_rng(40)
        checked = 0
        for spec in random_specs[:14]:
            for lam in (0.3, 1.0, 6.0):
                for z in disk_points(rng, 24, r_max=0.9):
                    q1 = q_at(spec, lam, complex(z))
                    q2 = starlike_functional_fd(spec, lam, complex(z))
                    assert abs(q1 - q2) <= 1e-6 * max(1.0, abs(q1))
                    checked += 1
        assert checked >= 1000

    def test_fd_stencil_guard(self, single_atom):
        with pytest.raises(DomainError):
            starlike_functional_fd(single_atom, 1.0, 0.9999999)


class TestUniversalHalfOrder:
    def test_deviation_below_one(self, random_specs):
        rng = np.random.default_rng(41)
        for spec in random_specs[:12]:
            zs = disk_points(rng, 40, r_max=0.999)
            zs = zs[np.abs(zs) > 1e-6]
            for lam in (0.2, 1.0, 2.0, 15.0):
                dev = np.abs(starlike_functional_grid(spec, lam, zs) - 1.0)
                assert np.max(dev) <= 1.0 + 1e-9

    def test_positive_real_part(self, random_specs):
        rng = np.random.default_rng(42)
        for spec in random_specs[:8]:
            zs = disk_points(rng, 30, r_max=0.99)
            Q = starlike_functional_grid(spec, 1.7, zs)
            assert np.all(Q.real > 0)


class TestTheoremComparison:
    """|Q - 1| <= T(rho) at rho = the distortion bound, wherever T(rho) refines order 1/2."""

    def test_baseline_when_radius_one(self, single_atom):
        # q = 1, a = 0, lambda = 1: the distortion bound is 1, so only |Q - 1| <= 1 applies
        assert distortion_bound(1.0, 0.0, 1.0) == 1.0
        max_dev, t = deviation_and_t(single_atom, 1.0)
        assert t is None
        # the deviation r_max/2 is strictly smaller than the trivial bound 1
        assert max_dev == pytest.approx(0.495, abs=1e-9)

    def test_constant_degenerate(self, constant_one):
        # the linear map: rho = 1/2, alpha = 0, so T = 0 and Q == 1 meets it exactly
        assert distortion_bound(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert deviation_and_t(constant_one, 1.0) == (0.0, 0.0)

    def test_quarter_floor_containment(self, quarter_floor_atom):
        assert distortion_bound(1.0, 0.25, 2.0) == pytest.approx(0.5, abs=1e-12)
        max_dev, t = deviation_and_t(quarter_floor_atom, 2.0)
        assert t == pytest.approx(t_function(2 * 0.75, 2 * 0.25, 0.5), abs=1e-12)
        assert max_dev <= t + 1e-9

    def test_containment_holds_when_applicable(self):
        checked = 0
        for seed in range(25):
            spec = sample_generator(4000 + seed)
            for lam in (0.5, 2.0, 8.0):
                max_dev, t = deviation_and_t(spec, lam, n_samples=192, r_max=0.995)
                if t is not None:
                    assert max_dev <= t + 1e-9, (spec, lam, max_dev, t)
                    checked += 1
        assert checked >= 10
