"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the whole module is deterministic and finishes in well under two
minutes.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from resolvent_lab import (
    SuiteConfig,
    composed_accretivity,
    constant_generator,
    distortion_at_critical_lambda,
    distortion_bound,
    distortion_coefficients,
    extremal_generator,
    integrate,
    ladder_gaps,
    resolvent_accretivity,
    rho_star,
    run_suite,
    sample_generator,
    solve_resolvent_grid,
    squeeze_check,
    starlike_functional_grid,
    t_function,
    threshold_m1,
    threshold_m2,
    region_boundary,
    starlike_main_margin,
)

from conftest import critical_distortion_shortcut

SEED = 20260809


def announce(n, text):
    print(f"PASS criterion {n}: {text}")


def grid_1000():
    radii = np.geomspace(0.05, 0.999, 20)
    angles = 2 * np.pi * np.arange(50) / 50
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def test_criterion_1_closed_form_resolvent():
    spec = extremal_generator(1.0, 0.0)
    zs = grid_1000()
    assert zs.size == 1000
    start = time.perf_counter()
    sol = solve_resolvent_grid(spec, 1.0, zs)
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(sol.w - zs / (2 + zs)))
    assert err <= 1e-10, f"closed-form mismatch {err:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(1, f"1000-point closed-form match, max err {err:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_2_distortion_sweep():
    cfg = SuiteConfig(
        n_generators=200, n_lambdas=40, n_radii=5, n_angles=64, n_random=176
    )
    start = time.perf_counter()
    report = run_suite("distortion", cfg, seed=SEED)
    elapsed = time.perf_counter() - start
    assert report.generators_tested >= 200
    assert report.samples_per_generator == 40 * 500
    assert report.violations == [], report.violations[:3]
    assert report.worst_margin > -1e-9
    assert elapsed < 60.0, f"took {elapsed:.1f}s"

    control_cfg = dataclasses.replace(
        cfg, n_generators=2, n_lambdas=8, negative_control=True
    )
    control = run_suite("distortion", control_cfg, seed=SEED)
    assert len(control.violations) >= 1
    announce(
        2,
        f"{report.generators_tested} generators x 40 lambdas x 500 samples, "
        f"0 violations at 1e-9 in {elapsed:.1f}s; negative control tripped "
        f"{len(control.violations)} violation(s)",
    )


def test_criterion_3_sharpness():
    spec = extremal_generator(1.0, 0.0)
    ring = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
    ring = np.concatenate([ring, [-0.999 + 0j]])
    sol = solve_resolvent_grid(spec, 1.0, ring)
    ratio = np.max(np.abs(sol.w) / np.abs(ring))
    assert ratio >= 0.999
    assert distortion_bound(1.0, 0.0, 1.0) == 1.0

    bound = distortion_bound(1.0, 0.25, 2.0)
    assert bound == pytest.approx(0.5, abs=1e-15)
    # independent route: at lambda = 1/(q - 2a) the bound is (q - 2a)/q
    assert bound == pytest.approx((1.0 - 2 * 0.25) / 1.0, abs=1e-15)
    announce(3, f"sampled ratio {ratio:.6f} against bound 1.0; (1, 1/4, 2) bound = 0.5 exactly")


def test_criterion_4_piecewise_branch_agreement():
    lams = np.linspace(0.05, 6.0, 100)
    worst = 0.0
    for lam in lams:
        got = distortion_bound(1.0, 0.0, float(lam))
        expected = 1.0 if lam <= 2.0 else 1.0 / (lam - 1.0)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-12
    announce(4, f"a=0 curve matches the piecewise branches, worst gap {worst:.2e}")


def test_criterion_5_accretivity_constants():
    cfg = SuiteConfig(n_generators=50, n_lambdas=10, n_radii=4, n_angles=32, n_random=50)
    rep_f = run_suite("accretivity_f_compose", cfg, seed=SEED)
    assert rep_f.violations == [], rep_f.violations[:3]
    assert rep_f.worst_margin > -1e-8
    rep_g = run_suite("accretivity_resolvent", cfg, seed=SEED)
    assert rep_g.violations == [], rep_g.violations[:3]
    assert rep_g.worst_margin > -1e-8

    exact = resolvent_accretivity(1.0, 1.0, 1.0)
    assert exact == pytest.approx(0.5, abs=1e-12)
    announce(
        5,
        f"sampled infima beat a_lambda and d_lambda on {rep_f.generators_tested} generators "
        f"x 10 lambdas (worst margins {rep_f.worst_margin:.1e}, {rep_g.worst_margin:.1e}); "
        "constant-class d = 1/2 exact",
    )


def test_criterion_6_starlikeness():
    cfg = SuiteConfig(n_generators=40, n_lambdas=8, n_radii=4, n_angles=32, n_random=60)
    rep_half = run_suite("starlike_half", cfg, seed=SEED)
    assert rep_half.violations == [], rep_half.violations[:3]

    # closed-form case Q = 1 + z/2
    spec = extremal_generator(1.0, 0.0)
    zs = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 100, endpoint=False))
    Q = starlike_functional_grid(spec, 1.0, zs)
    assert np.max(np.abs(Q - (1 + zs / 2))) <= 1e-9

    rep_t = run_suite("starlike_T", cfg, seed=SEED)
    assert rep_t.violations == [], rep_t.violations[:3]

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        rq = rng.uniform(0.05, 3.0)
        q = complex(rq, rng.uniform(-2.0, 2.0))
        a = rng.uniform(0.0, rq * 0.999)
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        rs = rho_star(q, a, lam)
        if rs < 1.0:
            worst = max(worst, abs(t_function(lam * (rq - a), lam * a, rs) - 1.0))
    assert worst <= 1e-12
    announce(
        6,
        f"|Q-1| <= 1 + 1e-9 on all samples; closed-form Q matched to 1e-9; "
        f"T containment held; T(rho*) = 1 to {worst:.1e} over 1000 draws",
    )


def test_criterion_7_thresholds():
    assert threshold_m1(1.0, 0.0) == pytest.approx(1 + math.sqrt(5), abs=1e-12)
    assert threshold_m2(1.0, 1.0) == pytest.approx((2 * math.sqrt(7) + 1) / 9, abs=1e-12)
    assert abs(region_boundary(1 + math.sqrt(5))) <= 1e-12

    rng = np.random.default_rng(SEED + 1)
    checked = 0
    for _ in range(10000):
        rq = rng.uniform(0.05, 3.0)
        q = complex(rq, rng.uniform(-2.0, 2.0))
        a = rng.uniform(0.0, rq)
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        qq = abs(q) ** 2
        cert = (
            (lam * qq >= 2 * rq and a < rq and lam > threshold_m1(q, a))
            or (lam * qq < 2 * rq and a > threshold_m2(q, lam))
        )
        if cert:
            checked += 1
            assert starlike_main_margin(q, a, lam) >= -1e-12
    assert checked > 500
    announce(
        7,
        f"M1, M2, region-boundary reference values to 1e-12; certified conditions "
        f"implied the radius comparison on {checked}/10000 qualifying draws",
    )


def test_criterion_8_semigroup():
    const = constant_generator(1.0)
    traj = integrate(const, 0.5, 1.0)
    err = abs(traj.endpoint - 0.5 * math.exp(-1.0))
    assert err <= 1e-8
    assert squeeze_check(traj, 1.0).ok

    cfg = SuiteConfig(n_trajectories=3)
    rep = run_suite("squeeze", cfg, seed=SEED)
    assert rep.violations == [], rep.violations[:3]

    gaps = ladder_gaps(extremal_generator(1.0, 0.0), 0.5, 1.0)
    ratios = [g2 / g1 for (_, g1), (_, g2) in zip(gaps, gaps[1:])]
    for r in ratios:
        assert 0.4 <= r <= 0.6, f"ratio {r} outside halving +-20%"
    announce(
        8,
        f"exp decay error {err:.1e}; envelopes respected; ladder ratios "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_9_known_discrepancy_regression():
    general = distortion_at_critical_lambda(1.0, 0.25)
    shortcut = critical_distortion_shortcut(1.0, 0.25)
    assert general == pytest.approx(0.5, abs=1e-12)
    assert shortcut == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert abs(general - shortcut) > 0.2
    # the implementation follows the general formula
    assert distortion_bound(1.0, 0.25, 2.0) == pytest.approx(general, abs=1e-12)
    assert distortion_coefficients(1.0, 0.25, 2.0).distortion == pytest.approx(general, abs=1e-12)
    announce(
        9,
        "critical-lambda general value 0.5 vs circulated shortcut sqrt(1/2); "
        "implementation follows the general formula",
    )
