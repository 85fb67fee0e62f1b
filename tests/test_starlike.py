"""Starlikeness functional: closed forms, dual-route agreement, order scans."""

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    distortion_bound,
    empirical_order,
    sample_generator,
    solve_resolvent_grid,
    starlike_functional_grid,
    starlike_order_from_rho,
    t_function,
)
from resolvent_lab.starlike import _scan_points
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


def deviation_and_t(spec, lam, n_samples=512, r_max=0.99):
    """Sampled max |Q - 1| and T(rho) at rho = the distortion bound; T is None where it does not refine order 1/2."""
    q, a = spec.q, spec.a
    max_dev = float(np.max(np.abs(solve_resolvent_grid(spec, lam, _scan_points(n_samples, r_max)).Q - 1.0)))
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


class TestEmpiricalOrder:
    def test_single_atom_reference(self, single_atom):
        # Q = 1 + z/2 on |z| <= r: max deviation r/2, order 1/(1 + r/2)
        scan = empirical_order(single_atom, 1.0, n_samples=256, r_max=0.99)
        assert scan.max_deviation == pytest.approx(0.495, abs=1e-9)
        assert scan.order_lb == pytest.approx(1 / 1.495, abs=1e-9)

    def test_constant_is_linear(self, constant_one):
        scan = empirical_order(constant_one, 3.0, n_samples=128, r_max=0.9)
        assert scan.order_lb == 1.0
        assert scan.strong_order_lb == 0.0
        assert scan.max_deviation == 0.0

    def test_bounds_respected(self, random_specs):
        for spec in random_specs[:6]:
            scan = empirical_order(spec, 1.1, n_samples=128, r_max=0.99)
            assert 0.5 - 1e-9 <= scan.order_lb <= 1.0
            assert 0.0 <= scan.strong_order_lb <= 1.0
            assert scan.max_deviation <= 1.0 + 1e-9

    def test_r_max_guard(self, single_atom):
        with pytest.raises(DomainError):
            empirical_order(single_atom, 1.0, r_max=0.9999)

    def test_n_samples_guard(self, single_atom):
        # 0 and -5 once scanned 12 points without complaint
        for n_samples in (0, -5, float("nan"), 12.0, True):
            with pytest.raises(DomainError, match="n_samples"):
                empirical_order(single_atom, 1.0, n_samples=n_samples)

    def test_scan_has_at_least_twelve_points(self, single_atom):
        # at least 8 ring points and the 4 axis points
        for n_samples, size in ((1, 12), (11, 12), (12, 12), (13, 13), (100, 100)):
            assert empirical_order(single_atom, 1.0, n_samples=n_samples).n_samples == size


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
