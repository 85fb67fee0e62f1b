"""Closed-form bound formulas against substitution oracles and sampled truth."""

import math

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    calc_order,
    composed_accretivity,
    constant_generator,
    distortion_at_critical_lambda,
    distortion_bound,
    distortion_coefficients,
    est1_bound,
    eval_p,
    extremal_generator,
    region_boundary,
    resolvent_accretivity,
    rho_star,
    sample_generator,
    solve_resolvent_grid,
    starlike_main_margin,
    starlike_order_from_rho,
    t_function,
    threshold_m1,
    threshold_m2,
    value_disk,
)
from resolvent_lab.bounds import _certifying_conditions, _g_floor, _validate_qal

from conftest import critical_distortion_shortcut


def random_parameters(rng):
    rq = rng.uniform(0.05, 3.0)
    q = complex(rq, rng.uniform(-2.0, 2.0))
    a = rng.uniform(0.0, rq)
    lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
    return q, a, lam


class TestDistortion:
    def test_reference_values(self):
        # by substitution into A, B
        assert distortion_bound(1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert distortion_bound(1.0, 0.25, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert distortion_bound(1.0, 0.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_coefficients_assembled(self):
        bs = distortion_coefficients(1.0, 0.25, 2.0)
        assert bs.A == pytest.approx(4.0)
        assert bs.B == pytest.approx(16.0)
        assert bs.distortion == pytest.approx(0.5)
        assert bs.a_lambda == pytest.approx(0.25)
        assert bs.alpha == pytest.approx(1.5)
        assert bs.beta == pytest.approx(0.5)

    def test_range_and_strict_cases(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            q, a, lam = random_parameters(rng)
            d = distortion_bound(q, a, lam)
            assert 0.0 < d <= 1.0
            if a > 1e-12:
                assert d < 1.0

    def test_a_zero_piecewise_structure(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            rq = rng.uniform(0.05, 3.0)
            q = complex(rq, rng.uniform(-2.0, 2.0))
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
            d = distortion_bound(q, 0.0, lam)
            expected = 1.0 if lam * abs(q) ** 2 <= 2 * rq else 1.0 / abs(1 - lam * q)
            assert d == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            distortion_bound(0.5, 0.6, 1.0)  # Re q < a
        with pytest.raises(DomainError):
            distortion_bound(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            distortion_bound(1.0, -0.1, 1.0)

    def test_overflowing_lambda_is_domain_error(self):
        # lam**3 in B overflows (q = 1), and so does (|1 - lam q|^2 - 1)^2 (tiny q)
        for q, a, lam in ((1.0, 0.0, 1e200), (1.0, 0.5, 5e102), (1e-100, 0.0, 1e200)):
            for fn in (distortion_bound, distortion_coefficients, resolvent_accretivity, rho_star):
                with pytest.raises(DomainError):
                    fn(q, a, lam)
        assert distortion_coefficients(1.0, 0.5, 1e50).distortion > 0.0


class TestEst1:
    def test_threshold_point(self):
        assert est1_bound(1.0, 2.0) == 1.0

    def test_beyond_threshold(self):
        assert est1_bound(1.0, 4.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_imaginary_q(self):
        # Re q = 0: threshold 0, bound 1/|1 - i lam| throughout
        for lam in (0.5, 1.0, 9.0):
            assert est1_bound(1j, lam) == pytest.approx(1 / abs(1 - lam * 1j), abs=1e-15)

    def test_dominates_general_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rq = rng.uniform(0.05, 3.0)
            q = complex(rq, rng.uniform(-2.0, 2.0))
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
            assert est1_bound(q, lam) >= distortion_bound(q, 0.0, lam) - 1e-12


class TestComposedAccretivity:
    def test_reference_values(self):
        assert composed_accretivity(1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert composed_accretivity(1.0, 0.25, 2.0) == pytest.approx(0.25, abs=1e-15)
        assert composed_accretivity(1.0, 0.0, 3.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_zero_iff_distortion_one(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            q, a, lam = random_parameters(rng)
            al = composed_accretivity(q, a, lam)
            assert al >= 0.0
            assert (al == 0.0) == (distortion_bound(q, a, lam) == 1.0)


class TestResolventAccretivity:
    def test_constant_class_exact(self):
        # constant p == 1, lambda = 1: the linear resolvent z/2 has floor 1/2
        assert resolvent_accretivity(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        # general constant: (1 + lam Re q)/|1 + lam q|^2
        for q in (2.0, 1.0 + 1.0j, 0.3 - 0.7j):
            for lam in (0.5, 1.0, 4.0):
                expected = (1 + lam * q.real if isinstance(q, complex) else 1 + lam * q) / abs(
                    1 + lam * complex(q)
                ) ** 2
                got = resolvent_accretivity(complex(q), complex(q).real, lam)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_quarter_floor_closed_form(self):
        # q=1, a=1/4, lambda=2: the floor curve is (1 - tau)/3 minimized at
        # the reachable radius 1/2, giving exactly 1/6
        assert resolvent_accretivity(1.0, 0.25, 2.0) == pytest.approx(1 / 6, abs=1e-9)

    def test_weak_case_vanishes(self):
        # q=1, a=0, lambda=1: reachable radius is 1, the floor tends to 0
        assert resolvent_accretivity(1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_is_the_floor_minimum_over_the_reachable_radii(self):
        """d_lambda is the floor at tau_hat, and no radius in [0, tau_hat] is lower."""
        rng = np.random.default_rng(26)
        for i in range(500):
            q = complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0))
            a = (
                0.0,
                q.real,
                q.real * (1.0 - 10.0 ** rng.uniform(-12.0, -4.0)),
                rng.uniform(0.0, q.real),
            )[i % 4]
            lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            d = resolvent_accretivity(q, a, lam)
            # the radii 0 ... tau_hat as gaps 1 - tau, from the gap 1 - tau_hat = lambda a_lambda that d_lambda takes
            gap_hat = max(lam * composed_accretivity(q, a, lam), 1e-9)
            dense = float(np.min(_g_floor(q, a, lam, np.linspace(gap_hat, 1.0, 20001))))
            assert d <= dense + 1e-15 * abs(dense)
            assert dense - d <= 1e-9

    def test_is_a_valid_sampled_floor(self):
        rng = np.random.default_rng(25)
        zs = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        zs = np.concatenate([zs, [0.999 + 0j, -0.999 + 0j]])
        for seed in range(40):
            spec = sample_generator(3000 + seed)
            lam = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            d = resolvent_accretivity(spec.q, spec.a, lam)
            sol = solve_resolvent_grid(spec, lam, zs)
            vals = (np.conj(zs) * sol.w).real / np.abs(zs) ** 2
            assert np.min(vals) >= d - 1e-8

    def test_center_only_estimate_is_not_a_floor(self):
        """Documented discrepancy: the endpoint recipe that keeps only the
        disk center claims 1/2 for the single-atom case at lambda = 1
        (q = 1, a = 0), but the actual functional Re g dips to 1/2.9 there;
        the corrected minimization is what the library ships as d_lambda."""
        center_only_claim = 0.5
        # closed form g(z) = 1/(2 + z): Re g(0.9) = 1/2.9 < 1/2
        observed = (1 / (2 + 0.9)).real
        assert observed < center_only_claim - 0.1
        assert solve_resolvent_grid(extremal_generator(1.0, 0.0), 1.0, [0.9]).g[0] == pytest.approx(observed, abs=1e-12)
        assert resolvent_accretivity(1.0, 0.0, 1.0) <= 1 / 2.9


class TestReciprocalDisk:
    """d_lambda's reciprocal-disk step: on |w| = tau, 1 + lambda p(w) lies in
    D(C, R) = 1 + lambda * (value disk of p), and ``_g_floor`` is the least
    real part of 1/v over that disk."""

    @staticmethod
    def shifted_disk(spec, lam, tau):
        center, radius = value_disk(spec, tau)
        return 1.0 + lam * center, lam * radius

    def test_point_disk(self):
        # tau = 0: the disk is the point 1 + lambda q, and the floor is Re 1/(1 + lambda q)
        q, a, lam = 1.0 + 0.5j, 0.25, 2.0
        assert _g_floor(q, a, lam, 1.0) == pytest.approx((1.0 / (1.0 + lam * q)).real, abs=1e-15)

    def test_real_interval_endpoints(self, single_atom):
        # real q: the disk is symmetric about the real axis, so the floor is 1/(C + R), the
        # reciprocal of its far endpoint 1 + lambda p(tau); the single atom attains it at w = tau
        for tau in (0.1, 0.5, 0.9):
            for lam in (0.3, 1.0, 4.0):
                C, R = self.shifted_disk(single_atom, lam, tau)
                floor = float(_g_floor(1.0 + 0j, 0.0, lam, 1.0 - tau))
                assert floor == pytest.approx(1.0 / (C.real + R), rel=1e-13)
                assert floor == pytest.approx(1.0 / (1.0 + lam * eval_p(single_atom, tau).real), rel=1e-12)

    def test_rotated(self):
        # conjugating q reflects the disk in the real axis, which keeps every real part
        for q in (1.0 + 2j, 0.3 - 1.7j):
            assert resolvent_accretivity(q, 0.2, 1.5) == resolvent_accretivity(q.conjugate(), 0.2, 1.5)
            assert _g_floor(q, 0.2, 1.5, 1.0 - 0.6) == _g_floor(q.conjugate(), 0.2, 1.5, 1.0 - 0.6)

    def test_boundary_to_boundary(self):
        # 1/v maps the boundary of D(C, R) onto the boundary of the image disk, where Re is least
        ang = np.linspace(0.0, 2.0 * np.pi, 200001)
        for seed in range(20):
            spec = sample_generator(5000 + seed)
            lam, tau = 0.5 + seed / 4, 0.05 + 0.9 * (seed % 7) / 7
            C, R = self.shifted_disk(spec, lam, tau)
            sampled = np.min((1.0 / (C + R * np.exp(1j * ang))).real)
            floor = float(_g_floor(spec.q, spec.a, lam, 1.0 - tau))
            assert floor <= sampled + 1e-14
            assert sampled - floor <= 1e-9 * abs(floor)

    def test_rejects_zero_inside(self):
        # Re C - R = 1 + lambda * (Harnack floor) >= 1, so 0 never enters the disk and 1/v is defined on it
        for seed in range(20):
            spec = sample_generator(5100 + seed)
            for lam in (0.1, 1.0, 30.0):
                for tau in (0.0, 0.5, 0.999):
                    C, R = self.shifted_disk(spec, lam, tau)
                    assert C.real - R >= 1.0 - 1e-12


class TestTFunction:
    def test_reference_value(self):
        assert t_function(1.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_cases(self):
        assert t_function(2.0, 1.0, 0.0) == 0.0
        assert t_function(0.0, 1.0, 0.7) == 0.0

    def test_increasing(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            alpha, beta = rng.uniform(0.01, 5.0), rng.uniform(0.0, 5.0)
            rs = np.linspace(0.0, 0.99, 50)
            vals = [t_function(alpha, beta, float(r)) for r in rs]
            assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            t_function(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            t_function(-1.0, 0.0, 0.5)


class TestRhoStar:
    def test_reference_value(self):
        assert rho_star(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_constant_class_is_one(self):
        assert rho_star(1.0, 1.0, 3.0) == 1.0

    def test_large_lambda_limit(self):
        assert rho_star(1.0, 0.0, 1e12) == pytest.approx(1 / (1 + math.sqrt(2)), abs=1e-6)

    def test_t_of_rho_star_is_one(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            q, a, lam = random_parameters(rng)
            rs = rho_star(q, a, lam)
            if rs >= 1.0:
                continue
            assert t_function(lam * (q.real - a), lam * a, rs) == pytest.approx(1.0, abs=1e-12)


class TestOrderFromRho:
    def test_rho_zero(self):
        est = starlike_order_from_rho(1.0, 0.0, 1.0, 0.0)
        assert est.order == 1.0
        assert est.strong_order == 0.0
        assert est.refined

    def test_at_rho_star(self):
        est = starlike_order_from_rho(1.0, 0.0, 1.0, 0.5)
        assert est.order == pytest.approx(0.5, abs=1e-12)
        assert est.strong_order == pytest.approx(1.0, abs=1e-12)
        assert est.refined

    def test_beyond_rho_star_baseline(self):
        est = starlike_order_from_rho(1.0, 0.0, 1.0, 0.8)
        assert est == starlike_order_from_rho(1.0, 0.0, 1.0, 0.8)
        assert (est.order, est.strong_order, est.refined) == (0.5, 1.0, False)

    @pytest.mark.parametrize("q,a,lam", [(1.0, 0.0, 1.0), (1e-200, 0.0, 1e100)])
    def test_rho_one_is_baseline(self, q, a, lam):
        # the distortion bound is exactly 1 here (a = 0, |1 - lam q| <= 1) or rounds to 1
        rho = distortion_bound(q, a, lam)
        assert rho == 1.0
        est = starlike_order_from_rho(q, a, lam, rho)
        assert (est.order, est.strong_order, est.refined) == (0.5, 1.0, False)

    def test_rho_above_one_rejected(self):
        with pytest.raises(DomainError):
            starlike_order_from_rho(1.0, 0.0, 1.0, 1.0 + 1e-12)

    def test_order_range(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            q, a, lam = random_parameters(rng)
            rho = rng.uniform(0.0, 0.999)
            est = starlike_order_from_rho(q, a, lam, rho)
            assert 0.5 <= est.order <= 1.0
            assert 0.0 <= est.strong_order <= 1.0


class TestThresholds:
    def test_m1_values(self):
        assert threshold_m1(1.0, 0.0) == pytest.approx(1 + math.sqrt(5), abs=1e-12)
        assert threshold_m1(1.0, 0.25) == pytest.approx(2.0, abs=1e-12)
        assert threshold_m1(2.0, 0.0) == pytest.approx((2 * math.sqrt(5) + 2) / 4, abs=1e-12)

    def test_m1_tiny_re_q(self):
        # (Re q + a) Re q underflows to 0 here; M1 itself is finite
        assert threshold_m1(1e-200, 0.0) == pytest.approx((1 + math.sqrt(5)) * 1e200, rel=1e-12)

    def test_m2_values(self):
        assert threshold_m2(1.0, 1.0) == pytest.approx((2 * math.sqrt(7) + 1) / 9, abs=1e-12)
        assert threshold_m2(2.0, 1.0) == pytest.approx((3 * math.sqrt(17) + 5) / 16, abs=1e-12)

    def test_m2_small_s_limit(self):
        # series: numerator ~ 4s = 4 lam Re q, denominator ~ 4 lam, so
        # M2 -> Re q; in particular M2 -> 0 as Re q -> 0 at fixed lambda
        for rq in (1e-3, 1e-5):
            assert threshold_m2(complex(rq, 0.0), 1.0) == pytest.approx(rq, rel=1e-2)
        assert threshold_m2(1.0, 1e-6) == pytest.approx(1.0, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            threshold_m1(-1.0, 0.0)
        with pytest.raises(DomainError):
            threshold_m2(0.0, 1.0)

    def test_m2_overflow_is_domain_error(self):
        # s^2 overflows at s = lambda Re q = 1e300, but M2 ~ (1 + sqrt 2)/lambda does not: it once raised
        # "M2 overflows a double" there, and returned 0 where only 2 s^2 overflowed (s = 1e154)
        m2_large = 1.0 + math.sqrt(2.0)
        assert threshold_m2(1e300, 1.0) == pytest.approx(m2_large, rel=1e-15)
        assert threshold_m2(1.0, 1e300) == pytest.approx(m2_large * 1e-300, rel=1e-15)
        assert threshold_m2(1.0, 1e154) == pytest.approx(m2_large * 1e-154, rel=1e-15)
        assert threshold_m2([1.0, 1e300], [1.0, 1.0]).tolist() == [threshold_m2(1.0, 1.0), threshold_m2(1e300, 1.0)]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fn,args",
    [
        (threshold_m1, (1.0, NAN)),
        (threshold_m1, (1.0, INF)),
        (threshold_m1, (1.0, -1.0)),
        (threshold_m1, (complex(NAN, 0.0), 0.0)),
        (threshold_m1, (complex(INF, 0.0), 0.0)),
        (threshold_m1, (complex(1.0, INF), 0.0)),
        (threshold_m2, (complex(NAN, 0.0), 1.0)),
        (threshold_m2, (complex(INF, 0.0), 1.0)),
        (threshold_m2, (1.0, NAN)),
        (t_function, (NAN, 0.0, 0.5)),
        (t_function, (INF, 0.0, 0.5)),
        (t_function, (1.0, NAN, 0.5)),
        (t_function, (1.0, INF, 0.5)),
        (distortion_at_critical_lambda, (1.0, NAN)),
        (distortion_at_critical_lambda, (1.0, INF)),
        (distortion_at_critical_lambda, (1.0, -1.0)),
        (distortion_at_critical_lambda, (complex(NAN, 0.0), 0.0)),
        (distortion_at_critical_lambda, (complex(1.0, NAN), 0.0)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_closed_forms_reject_non_finite_or_negative_input(fn, args):
    # a non-finite q, a, lambda, alpha or beta, or a < 0, is a DomainError, never NaN or a bare ValueError
    with pytest.raises(DomainError):
        fn(*args)


class TestCalcOrder:
    def test_condition_i_grants(self):
        cert = calc_order(1.0, 0.0, 3.5)
        assert cert is not None and cert.condition == "i"
        assert 0.5 < cert.order < 1.0
        # independent pipeline: order = 1/(1 + T(distortion))
        rho = distortion_bound(1.0, 0.0, 3.5)
        expected = 1 / (1 + t_function(3.5, 0.0, rho))
        assert cert.order == pytest.approx(expected, abs=1e-12)

    def test_below_m1_empty(self):
        assert calc_order(1.0, 0.0, 3.0) is None

    def test_condition_ii_grants(self):
        cert = calc_order(1.0, 0.8, 1.0)
        assert cert is not None and cert.condition == "ii"
        assert 0.5 < cert.order < 1.0

    def test_certified_implies_radius_comparison(self):
        # calc_order certifies exactly where one of its conditions holds; all draws go through the array forms
        rng = np.random.default_rng(30)
        q, a, lam = (np.array(v) for v in zip(*(random_parameters(rng) for _ in range(10000))))
        certified = np.logical_or(*_certifying_conditions(*_validate_qal(q, a, lam)))
        assert np.all(starlike_main_margin(q[certified], a[certified], lam[certified]) >= -1e-12)
        assert np.count_nonzero(certified) > 100  # the sweep actually exercises both branches


class TestRegionBoundary:
    def test_reference_values(self):
        assert region_boundary(2.0) == pytest.approx(0.25, abs=1e-15)
        assert region_boundary(1 + math.sqrt(5)) == pytest.approx(0.0, abs=1e-12)
        assert region_boundary(0.1) == pytest.approx(4.19 / 4.41, abs=1e-12)

    def test_small_s_limit(self):
        assert region_boundary(1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_below_one(self):
        for s in np.linspace(0.01, 20, 200):
            assert region_boundary(float(s)) < 1.0

    def test_consistency_with_m1(self):
        # t* vanishes exactly at s = Re q * M1(q, 0)
        for rq in (0.3, 1.0, 2.5):
            s0 = rq * threshold_m1(complex(rq, 0.7), 0.0)
            assert region_boundary(s0) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            region_boundary(0.0)
        # (2 + s)^2 overflows a double
        with pytest.raises(DomainError, match="overflows a double at s = 1e"):
            region_boundary([1.0, 1e200])


class TestCriticalLambdaRegression:
    def test_general_formula_matches_distortion(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rq = rng.uniform(0.05, 3.0)
            q = complex(rq, rng.uniform(-2.0, 2.0))
            a = rng.uniform(0.0, rq)
            lam0 = 2 * rq / abs(q) ** 2
            assert distortion_at_critical_lambda(q, a) == pytest.approx(
                distortion_bound(q, a, lam0), abs=1e-12
            )

    def test_simplified_shortcut_disagrees(self):
        """Documented discrepancy: the real-q shortcut sqrt(q/(4a+q)) does
        not match the general critical-lambda formula when a > 0; the
        library follows the general formula (which the distortion bound
        confirms)."""
        general = distortion_at_critical_lambda(1.0, 0.25)
        shortcut = critical_distortion_shortcut(1.0, 0.25)
        assert general == pytest.approx(0.5, abs=1e-12)
        assert shortcut == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert abs(general - shortcut) > 0.2
        assert distortion_bound(1.0, 0.25, 2.0) == pytest.approx(general, abs=1e-12)

    @pytest.mark.parametrize(
        "q,a,expected", [(1e-200, 0.0, 1.0), (1e-170, 1e-170, 1.0 / 3.0), (1e-300j + 1e-310, 0.0, 1.0)]
    )
    def test_tiny_q_does_not_underflow(self, q, a, expected):
        # |q|^2 underflows to 0 here, so lambda0 = 2 Re q / |q|^2 cannot be formed
        assert distortion_at_critical_lambda(q, a) == pytest.approx(expected, rel=1e-15)
        both = distortion_at_critical_lambda([q, 1.0], [a, 0.25])
        assert both.tolist() == pytest.approx([expected, 0.5], rel=1e-15)


class TestSampledDistortion:
    def test_bound_holds_on_samples(self):
        zs = np.concatenate(
            [
                0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False)),
                0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False)),
            ]
        )
        for seed in range(30):
            spec = sample_generator(500 + seed)
            for lam in (0.1, 1.0, 10.0):
                bound = distortion_bound(spec.q, spec.a, lam)
                sol = solve_resolvent_grid(spec, lam, zs)
                assert np.all(np.abs(sol.w) <= bound * np.abs(zs) + 1e-9)

    def test_sharpness_at_quarter_floor(self):
        # closed form z/(3+z) at z -> -1 attains the 0.5 bound
        spec = extremal_generator(1.0, 0.25)
        sol = solve_resolvent_grid(spec, 2.0, np.array([-0.999 + 0j]))
        assert abs(sol.w[0]) / 0.999 > 0.4995

    def test_fig_curve_helper(self):
        # fig1's curve is the bound on the whole lambda grid at once
        lams = np.array([0.5, 2.0, 3.0])
        np.testing.assert_allclose(distortion_bound(1.0, 0.0, lams), [1.0, 1.0, 0.5], atol=1e-12)
