"""Starlikeness functional: closed forms, dual-route agreement, order scans."""

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    constant_generator,
    distortion_bound,
    empirical_order,
    extremal_generator,
    rho_star,
    sample_generator,
    solve_resolvent_grid,
    starlike_functional_fd,
    starlike_functional_grid,
    t_function,
    theorem_vs_empirical,
)
from conftest import disk_points


def q_at(spec, lam, z) -> complex:
    """Q at one point: a one-point solve's ``Q``."""
    return complex(solve_resolvent_grid(spec, lam, [z]).Q[0])


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


class TestTheoremComparison:
    def test_baseline_when_radius_one(self, single_atom):
        rep = theorem_vs_empirical(single_atom, 1.0)
        assert rep.baseline_only
        assert rep.rho_used == 1.0
        assert rep.t_bound == np.inf
        assert rep.containment_ok
        # the deviation r_max/2 is strictly smaller than the trivial bound 1
        assert rep.max_deviation == pytest.approx(0.495, abs=1e-9)

    def test_constant_degenerate(self, constant_one):
        rep = theorem_vs_empirical(constant_one, 1.0)
        assert not rep.baseline_only
        assert rep.rho_used == pytest.approx(0.5)
        assert rep.t_bound == 0.0
        assert rep.max_deviation == 0.0
        assert rep.slack == 0.0
        assert rep.containment_ok

    def test_quarter_floor_containment(self, quarter_floor_atom):
        rep = theorem_vs_empirical(quarter_floor_atom, 2.0)
        assert rep.rho_used == pytest.approx(0.5, abs=1e-12)
        assert rep.t_bound == pytest.approx(
            t_function(2 * 0.75, 2 * 0.25, 0.5), abs=1e-12
        )
        assert rep.containment_ok
        assert rep.slack >= -1e-9

    def test_containment_holds_when_applicable(self):
        for seed in range(25):
            spec = sample_generator(4000 + seed)
            for lam in (0.5, 2.0, 8.0):
                rho = distortion_bound(spec.q, spec.a, lam)
                if rho > rho_star(spec.q, spec.a, lam):
                    continue
                rep = theorem_vs_empirical(spec, lam, n_samples=192, r_max=0.995)
                assert rep.containment_ok, (spec, lam, rep)

    def test_max_deviation_is_functional_grid_maximum(self, random_specs):
        from resolvent_lab.starlike import _scan_points

        for spec in random_specs[:4]:
            zs = _scan_points(200, 0.99)
            rep = theorem_vs_empirical(spec, 1.7, n_samples=200, r_max=0.99)
            assert rep.max_deviation == np.max(np.abs(starlike_functional_grid(spec, 1.7, zs) - 1.0))

    def test_sampled_sup_tightens(self, quarter_floor_atom):
        loose = theorem_vs_empirical(quarter_floor_atom, 2.0)
        tight = theorem_vs_empirical(quarter_floor_atom, 2.0, use_sampled_sup=True)
        assert tight.rho_used <= loose.rho_used + 1e-15
        assert tight.containment_ok
