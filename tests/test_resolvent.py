"""Resolvent solver against closed-form oracles and its own certificates."""

import dataclasses
import decimal
import itertools
import warnings
from decimal import Decimal

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    GeneratorSpec,
    NonConvergenceError,
    SampleConfig,
    constant_generator,
    eval_p,
    extremal_generator,
    iterate_resolvent,
    sample_generator,
    solve_resolvent,
    solve_resolvent_grid,
)
from resolvent_lab import resolvent
from resolvent_lab.herglotz import _p_and_dp
from resolvent_lab.resolvent import DEFAULT_TOL, _solve_core
from conftest import disk_points


def quadratic_oracle(lam, z):
    """Root of (lam-1) w^2 + (1+lam+z) w - z = 0 inside the unit disk.

    The resolvent equation for p(z) = (1+z)/(1-z) reduces to this
    quadratic; exactly one root lies in the disk (asserted).
    """
    if lam == 1.0:
        return z / (2 + z)
    roots = np.roots([lam - 1.0, 1.0 + lam + z, -z])
    inside = [r for r in roots if abs(r) < 1.0]
    assert len(inside) == 1, f"expected a unique interior root, got {roots}"
    return complex(inside[0])


class TestClosedForms:
    def test_constant_p_is_linear(self):
        for q in (1.0, 0.5 + 2.0j, 3.0):
            spec = constant_generator(q)
            for lam in (0.1, 1.0, 7.0):
                for z in (0.5, -0.3 + 0.6j, 0.99j):
                    sol = solve_resolvent(spec, lam, z)
                    assert sol.w == pytest.approx(z / (1 + lam * q), abs=1e-12)

    def test_single_atom_lambda_one(self, single_atom):
        for z in (0.5, -0.9, 0.4 + 0.4j, -0.99j):
            sol = solve_resolvent(single_atom, 1.0, z)
            assert sol.w == pytest.approx(z / (2 + z), abs=1e-12)

    def test_single_atom_general_lambda(self, single_atom):
        rng = np.random.default_rng(42)
        for lam in (0.2, 0.9, 1.5, 2.0, 3.7, 25.0):
            for z in disk_points(rng, 12, r_max=0.99):
                sol = solve_resolvent(single_atom, lam, complex(z))
                assert sol.w == pytest.approx(quadratic_oracle(lam, complex(z)), abs=1e-10)

    def test_planted_sharp_point_forward_error(self, single_atom):
        # the distortion suites' planted sharp point, against a 50-digit root of
        # (lam-1) w^2 + (1+lam+z) w - z = 0, whose coefficients are real there
        lam, z = 1.999, -0.999
        sol = solve_resolvent(single_atom, lam, z)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, b, c = Decimal(lam) - 1, 1 + Decimal(lam) + Decimal(z), -Decimal(z)
            root = (-b + (b * b - 4 * a * c).sqrt()) / (2 * a)
            assert abs(root) < 1
            error = abs(Decimal(sol.w.real) - root)
        assert sol.w.imag == 0.0
        assert error <= Decimal("1e-12")

    def test_quarter_floor_closed_form(self, quarter_floor_atom):
        # for q=1, a=1/4 the lambda=2 resolvent equation collapses to w (3/(1-w)) = z
        for z in (0.5, -0.999, 0.3 - 0.8j):
            sol = solve_resolvent(quarter_floor_atom, 2.0, z)
            assert sol.w == pytest.approx(z / (3 + z), abs=1e-12)


class TestSolutionContract:
    def test_residual_certificate(self, random_specs):
        rng = np.random.default_rng(9)
        for spec in random_specs[:10]:
            for lam in (0.05, 1.0, 20.0):
                zs = disk_points(rng, 30, r_max=0.999)
                sol = solve_resolvent_grid(spec, lam, zs)
                resid = np.abs(sol.w + lam * eval_p(spec, sol.w) * sol.w - zs)
                assert np.all(resid <= 1e-12)

    def test_schwarz_and_multiplier(self, random_specs):
        rng = np.random.default_rng(10)
        for spec in random_specs[:10]:
            zs = disk_points(rng, 30, r_max=0.999)
            for lam in (0.5, 5.0):
                sol = solve_resolvent_grid(spec, lam, zs)
                assert np.all(np.abs(sol.w) <= np.abs(zs) + 1e-12)
                assert np.all(np.abs(sol.w) < 1)
                g_expected = 1 / (1 + lam * eval_p(spec, sol.w))
                assert np.all(np.abs(sol.g - g_expected) <= 1e-10)
                assert np.all(np.abs(sol.g * zs - sol.w) <= 1e-10)

    def test_iterates_stay_in_trust_disk(self, single_atom, random_specs):
        for spec in [single_atom] + random_specs[:5]:
            for lam, z in ((1.0, -0.999), (2.19, -0.999), (0.01, 0.99), (40.0, 0.7j)):
                # the iterate after k rounds is the w of a run capped at k rounds
                for k in range(solve_resolvent(spec, lam, z).iterations + 1):
                    w = _solve_core(spec, np.array([lam + 0j]), np.array([z + 0j]), DEFAULT_TOL, k)[0][0]
                    assert abs(w) <= abs(z) + 1e-12

    def test_z_zero(self, single_atom):
        sol = solve_resolvent(single_atom, 1.0, 0.0)
        assert sol.w == 0.0
        assert sol.g == pytest.approx(0.5)  # 1/(1 + lambda q)
        assert sol.iterations == 0

    def test_maximum_modulus_monotonicity(self, single_atom):
        # sup over |z| = r of |w/z| dominates interior samples
        rng = np.random.default_rng(11)
        lam = 1.3
        r = 0.9
        ring = r * np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
        sup_ring = np.max(np.abs(solve_resolvent_grid(single_atom, lam, ring).w) / r)
        inner = disk_points(rng, 100, r_max=r)
        inner = inner[np.abs(inner) > 1e-3]
        ratios = np.abs(solve_resolvent_grid(single_atom, lam, inner).w) / np.abs(inner)
        assert np.all(ratios <= sup_ring + 1e-9)

    def test_small_lambda_first_order(self, random_specs):
        # w = z - lambda f(z) + O(lambda^2) at lambda = 1e-6
        lam = 1e-6
        rng = np.random.default_rng(12)
        for spec in random_specs[:10]:
            for z in disk_points(rng, 10, r_max=0.9):
                w = solve_resolvent(spec, lam, complex(z)).w
                f = eval_p(spec, z) * z
                assert abs(w - z + lam * f) <= 1e-8 * max(1.0, abs(f))

    def test_validation_errors(self, single_atom):
        with pytest.raises(DomainError):
            solve_resolvent(single_atom, 1.0, 1.0)
        for z in (float("nan"), complex(0.5, float("nan"))):
            with pytest.raises(DomainError):
                solve_resolvent(single_atom, 1.0, z)
            with pytest.raises(DomainError):
                solve_resolvent_grid(single_atom, 1.0, np.array([0.5, z]))
        with pytest.raises(DomainError):
            solve_resolvent(single_atom, 0.0, 0.5)
        with pytest.raises(DomainError):
            solve_resolvent(single_atom, -1.0, 0.5)
        with pytest.raises(DomainError):
            solve_resolvent_grid(single_atom, np.ones(3), np.full(4, 0.5))

    def test_scalar_solve_is_one_point_grid_solve(self, single_atom, random_specs):
        # every field a Python scalar with the bits of the grid's entry
        types = {"w": complex, "g": complex, "residual": float, "iterations": int, "Q": complex, "p": complex}
        for spec in [single_atom] + random_specs[:6]:
            for lam, z in ((1.0, -0.999), (2.19, 0.3 - 0.6j), (0.01, 0.99), (40.0, 0.7j), (1.0, 0.0)):
                one = solve_resolvent(spec, lam, z)
                grid = solve_resolvent_grid(spec, lam, [z])
                for name, kind in types.items():
                    value, entry = getattr(one, name), getattr(grid, name)[0]
                    assert type(value) is kind
                    assert np.array(value, dtype=entry.dtype).tobytes() == entry.tobytes(), name

    def test_iteration_budget_exhaustion(self, single_atom, monkeypatch):
        from resolvent_lab import NonConvergenceError

        # z = -0.95 at lambda = 2 takes more than one round, so a budget of one always raises
        assert solve_resolvent(single_atom, 2.0, -0.95).iterations > 1
        monkeypatch.setattr(resolvent, "MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as info:
            solve_resolvent(single_atom, 2.0, -0.95)
        assert info.value.residual > DEFAULT_TOL
        assert info.value.iterations == 1

    def test_lambda_array_matches_one_call_per_lambda(self, single_atom, random_specs):
        # z = 0.999 on an atom direction at lambda = 0.01 converges last, after
        # the working set has shrunk around it (most points take 2-4 rounds)
        rng = np.random.default_rng(5)
        zs = disk_points(rng, 24, 0.95)
        lams = np.array([0.01, 0.05, 0.7, 2.0, 13.0])
        for spec in [single_atom] + random_specs[:4]:
            slow = 0.999 * np.exp(1j * spec.atoms[0][0])
            pts = np.append(zs, slow)
            sol = solve_resolvent_grid(spec, lams[:, None], pts[None, :])
            assert sol.w.shape == sol.Q.shape == (5, 25)
            assert sol.iterations[0, -1] == sol.iterations.max()
            for i, lam in enumerate(lams):
                one = solve_resolvent_grid(spec, float(lam), pts)
                assert np.array_equal(sol.w[i], one.w)
                assert np.array_equal(sol.Q[i], one.Q)
                assert np.array_equal(sol.iterations[i], one.iterations)
            # the last point running has the bits of a one-point and of a two-point call
            for few in ([slow], [slow, zs[0]]):
                alone = solve_resolvent_grid(spec, lams[0], few)
                assert alone.w[0] == sol.w[0, -1] and alone.Q[0] == sol.Q[0, -1]
                assert alone.iterations[0] == sol.iterations[0, -1]
        # on the single atom it is the one point still running in its last round
        sol = solve_resolvent_grid(single_atom, lams[:, None], np.append(zs, 0.999)[None, :])
        assert np.count_nonzero(sol.iterations == sol.iterations.max()) == 1

    def test_nonconvergence_names_the_worst_point(self, single_atom, monkeypatch):
        from resolvent_lab import NonConvergenceError

        zs = np.array([0.3, -0.95, 0.6j])
        lams = np.array([0.02, 1.0, 40.0])
        monkeypatch.setattr(resolvent, "MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as info:
            solve_resolvent_grid(single_atom, lams[:, None], zs[None, :])
        # the one-round iterates and residuals, in the grid's (lambda, z) order
        lam_grid, z_grid = np.broadcast_arrays(lams[:, None] + 0j, zs[None, :] + 0j)
        w, _, _, residual, _ = _solve_core(single_atom, lam_grid.ravel(), z_grid.ravel(), DEFAULT_TOL, 1)
        i, j = np.unravel_index(np.argmax(residual), lam_grid.shape)
        err = info.value
        assert (err.lam, err.z) == (lams[i], zs[j])
        assert err.w == w[np.argmax(residual)] and err.residual == residual.max()
        assert str(err).endswith(f"at z = {complex(zs[j])}, lambda = {lams[i]}")

    def test_lambda_array_per_point(self, single_atom):
        zs = np.array([0.5, -0.3 + 0.4j, 0.9j])
        lams = np.array([1.0, 0.25, 4.0])
        sol = solve_resolvent_grid(single_atom, lams, zs)
        for z, lam, w in zip(zs, lams, sol.w):
            assert w == pytest.approx(quadratic_oracle(lam, z), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_lambda_array_rejects_bad_entry(self, single_atom, bad):
        with pytest.raises(DomainError):
            solve_resolvent_grid(single_atom, np.array([1.0, bad, 2.0]), np.array([0.1, 0.2, 0.3]))

    def test_grid_carries_functional(self, single_atom, random_specs):
        # Q = G / (z G') with G' from the implicit derivative of the resolvent equation
        zs = np.array([0.0, 0.5, -0.7 + 0.2j, 0.95j])
        for spec in [single_atom] + random_specs[:4]:
            lam = 1.3
            sol = solve_resolvent_grid(spec, lam, zs)
            p, dp = _p_and_dp(spec, sol.w)
            g_prime = 1.0 / (1.0 + lam * p + lam * dp * sol.w)
            expected = np.where(zs == 0, 1.0, sol.w / np.where(zs == 0, 1.0, zs * g_prime))
            assert sol.Q[0] == 1.0
            assert np.max(np.abs(sol.Q - expected)) <= 1e-10

    def test_cold_solve_lands_on_interior_root(self, single_atom):
        # near the boundary F has a second zero just outside the disk; the
        # solver must still land on the interior root
        zs = np.array([-0.999 + 0j])
        sol = solve_resolvent_grid(single_atom, 2.1867, zs)
        assert sol.w[0] == pytest.approx(quadratic_oracle(2.1867, -0.999 + 0j), abs=1e-10)


def start(spec, lam, z):
    """The solver's starting point: the w of ``_solve_core`` run with ``max_iter=0``."""
    z = np.asarray(z, dtype=complex)
    return _solve_core(spec, np.full(z.shape, lam, dtype=complex), z, DEFAULT_TOL, 0)[0]


# The spec's own limits: scale from 0 to 8.9e279, lambda from 1e-300 to 1.7e308, and points from 0 to
# |z| = 1 - 1e-13, 1e-9 and 1e-7 beside the two atoms' directions and at three other angles.
EDGE_SCALES = (0.0, 1e-300, 1.0, 1e10, 1e100, 8.9e279)
EDGE_LAMBDAS = (1e-300, 1e-10, 1.0, 1e10, 1e100, 1e200, 1e300, 1.7e308)
EDGE_POINTS = [0.0, 0.5, -0.5j] + [r * np.exp(1j * t) for r in (0.99, 1.0 - 1e-9, 1.0 - 1e-13)
                                   for t in (0.0, 0.3 + 1e-9, 1.0, 2.0 - 1e-7, np.pi)]


def test_edges_of_the_domain_give_finite_fields_or_nonconvergence():
    # 3456 one-point solves.  A residual that is not finite is no convergence, and Q is finite where lambda p'
    # overflows; under the suite's filterwarnings = error, a RuntimeWarning fails the test too.
    solved = 0
    for scale, lam, a, gamma in itertools.product(EDGE_SCALES, EDGE_LAMBDAS, (0.0, 0.1), (0.0, 0.2)):
        spec = GeneratorSpec(atoms=((0.3, 1.0), (2.0, 2.0)), a=a, scale=scale, gamma=gamma)
        for z in EDGE_POINTS:
            try:
                sol = solve_resolvent_grid(spec, lam, z)
            except NonConvergenceError:
                continue
            assert all(np.isfinite(getattr(sol, f.name)) for f in dataclasses.fields(sol)), (spec, lam, z)
            solved += 1
    assert solved >= 2844  # the points that solve today; in the other 612, w (1 + lambda p(w)) - z overflows


class TestStart:
    def test_start_is_third_order(self, random_specs):
        # the start misses G(z) by O(|z|^4): the ratio stays put from |z| = 1e-2 to 1e-3, where a
        # third-order start would grow it tenfold
        rng = np.random.default_rng(14)
        for spec in random_specs[:12]:
            lam = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            directions = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 8))
            ratios = []
            for r in (1e-2, 1e-3):
                zs = r * directions
                lams = np.full(zs.shape, lam, dtype=complex)
                root = _solve_core(spec, lams, zs, 0.0, 8)[0]  # Newton run to rounding level
                ratios.append(np.max(np.abs(start(spec, lam, zs) - root)) / r**4)
            assert ratios[1] <= 2.0 * ratios[0] + 1e-6

    def test_moebius_start_is_exact(self, single_atom):
        # q = 1, a = 0, lambda = 1: G(z) = z / (2 + z) is the start itself, so no round runs
        zs = np.array([0.5, -0.999, 0.999j, 0.3 - 0.9j, 0.0])
        assert np.max(np.abs(start(single_atom, 1.0, zs) - zs / (2 + zs))) <= 1e-15
        assert np.all(solve_resolvent_grid(single_atom, 1.0, zs).iterations == 0)

    def test_start_falls_back_to_first_order_term(self, single_atom):
        # a start outside the trust disk |w| <= |z| + 1e-12, or not finite (lambda p1 overflows at
        # lambda = 1e308), is replaced by w0 = z / (1 + lambda q), without a warning
        for lam, z in ((0.1, 0.999j), (1e308, 0.5)):
            zs = np.array([z], dtype=complex)
            w0 = zs / (1.0 + np.array([lam], dtype=complex) * single_atom.q)
            with np.errstate(all="ignore"):
                u = lam * 2.0 / (1.0 + lam)  # p1 = p2 = 2 for the single atom
                pade = w0 / (1.0 + u * w0 + (u - u * u) * w0 * w0)
            assert not abs(pade[0]) <= abs(z) + 1e-12
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert start(single_atom, lam, zs)[0] == w0[0]


def rotated(spec, phi):
    """The generator with every atom angle shifted by phi: p_rot(z) = p(z e^(-i phi))."""
    return GeneratorSpec(tuple((t + phi, w) for t, w in spec.atoms), a=spec.a, scale=spec.scale, gamma=spec.gamma)


class TestSlices:
    def test_rotation_identity(self, random_specs):
        # rotating the atoms by -arg u rotates the resolvent: w_rot(z) = conj(u) * w(u z)
        zs = np.array([0.55 - 0.2j, -0.3 + 0.8j, 0.9j, 0.0])
        for spec in random_specs[:8]:
            for phi in (0.7, -1.9, 3.0):
                u = np.exp(1j * phi)
                w_rot = solve_resolvent_grid(rotated(spec, -phi), 1.4, zs).w
                w = solve_resolvent_grid(spec, 1.4, u * zs).w
                assert np.max(np.abs(w_rot - np.conj(u) * w)) <= 1e-10

    def test_constant_p_direction_irrelevant(self, constant_one):
        # constant p has no direction: G(z) = z / (1 + lambda q) commutes with every rotation
        z = 0.3 + 0.3j
        for u in (1.0, 1j, np.exp(0.4j)):
            w = solve_resolvent_grid(constant_one, 2.0, [u * z]).w[0]
            assert np.conj(u) * w == pytest.approx(z / 3, abs=1e-12)


class TestIteration:
    def test_n_one_matches_solve(self, single_atom):
        assert iterate_resolvent(single_atom, 1.0, 0.5, 1) == pytest.approx(
            solve_resolvent(single_atom, 1.0, 0.5).w
        )

    def test_two_fold_closed_form(self, single_atom):
        # apply w = z/(2+z) twice: 0.5 -> 0.2 -> 0.2/2.2
        got = iterate_resolvent(single_atom, 1.0, 0.5, 2)
        assert got == pytest.approx(0.2 / 2.2, abs=1e-12)

    def test_linear_geometric_limit(self, constant_one):
        # constant p == 1, lambda = t/n: z/(1+t/n)^n -> z e^{-t}
        z, t = 0.6, 1.0
        for n in (4, 16, 64):
            got = iterate_resolvent(constant_one, t / n, z, n)
            assert got == pytest.approx(z / (1 + t / n) ** n, abs=1e-12)
        assert abs(iterate_resolvent(constant_one, t / 512, z, 512) - z * np.exp(-t)) < 1e-3

    def test_contraction(self, random_specs):
        for spec in random_specs[:5]:
            z = 0.8 * np.exp(0.3j)
            assert abs(iterate_resolvent(spec, 0.7, z, 4)) <= abs(z)

    def test_n_validation(self, single_atom):
        # a count is an integer >= 1; 2.7 was once truncated to 2 compositions
        for n in (0, [3, 0], 2.7, 2.0, float("nan"), True, [2, 2.5]):
            with pytest.raises(DomainError):
                iterate_resolvent(single_atom, 1.0, 0.5, n)

    def test_scalar_input_returns_complex(self, single_atom):
        got = iterate_resolvent(single_atom, 1.0, 0.5, 3)
        assert type(got) is complex
        w = 0.5
        for _ in range(3):
            w = solve_resolvent(single_atom, 1.0, w).w
        assert got == w

    def test_arrays_match_scalar_calls(self, random_specs):
        rng = np.random.default_rng(11)
        lams = np.array([0.05, 0.3, 1.0, 4.0])[:, None]
        zs = disk_points(rng, 5, 0.95)[None, :]
        ns = np.array([1, 2, 7, 3, 16])[None, :]
        for spec in random_specs[:3]:
            got = iterate_resolvent(spec, lams, zs, ns)
            assert got.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    one = iterate_resolvent(spec, float(lams[i, 0]), complex(zs[0, j]), int(ns[0, j]))
                    assert abs(got[i, j] - one) <= 1e-15


# Hard points, found over the 1.2 M points of a hunt on 400 generators drawn with TRAP_CONFIG (seeds
# from HUNT_SEED, see ``hunt_points``) at HUNT_LAMBDAS: near an atom at small lambda, where F has a second
# zero just outside the disk.  Each once needed a solver guard that is gone: Newton step halving (the
# first two) or an escape from Newton pinned against the trust disk (the last three).  The trust-disk
# cap is the one guard left.  Each row is (seed, lambda, z, iterations) followed by the bits of w.real,
# w.imag and the residual, which a point keeps in any call (``test_trap_bits``).  A change that moves
# them on purpose prints the rows with `PYTHONPATH=src python tests/test_resolvent.py` and lists the
# differences.
TRAP_CONFIG = SampleConfig(max_atoms=12, a_range=(0, 1), scale_range=(0, 5), gamma_range=(-5, 5))
TRAPS = [
    (1027092122, 0.00031622776601683794, -0.9912390919507762 - 0.13207975086515175j, 12,
     ("-0x1.fae9db570ac1fp-1", "-0x1.0ea9a027bffdbp-3", "0x1.8154be2773525p-52")),
    (773143981, 0.00017782794100389227, 0.9466802030329242 + 0.3221747835966395j, 14,
     ("0x1.e3b266870d1eap-1", "0x1.4992625dc1d5fp-2", "0x1.07e0f66afed07p-52")),
    (524763160, 0.01, -0.9740692837433619 - 0.22620572620447538j, 4,
     ("-0x1.b8f604fb39e93p-1", "-0x1.8dd629956335dp-3", "0x1.6a09e667f3bcdp-52")),
    (747044679, 0.0017782794100389228, 0.5526360056363099 + 0.8334107302970994j, 7,
     ("0x1.0f2300e839f98p-1", "0x1.9115bb3b90366p-1", "0x1.4f86ddf9744d0p-44")),
    (847032073, 0.001, -0.7680607204356409 - 0.6403614056326977j, 9,
     ("-0x1.7eea28efa8581p-1", "-0x1.403a863efc766p-1", "0x1.3ba3028532884p-42")),
]
HUNT_SEED = 3
HUNT_LAMBDAS = np.geomspace(1e-4, 1e4, 33)
HUNT_RADII = np.array([0.9, 0.999, 0.99999, 1 - 1e-9])


def hunt_points(spec_seed):
    """The hunt's generator for ``spec_seed`` and its points: one at each of HUNT_RADII next to every atom,
    and 64 random ones on |z| = 0.99999.  The hunt draws each generator's seed and then its 64 angles from
    one ``default_rng(HUNT_SEED)`` stream."""
    rng = np.random.default_rng(HUNT_SEED)
    while int(rng.integers(1 << 30)) != spec_seed:
        rng.uniform(0, 2 * np.pi, 64)
    angles = rng.uniform(0, 2 * np.pi, 64)
    spec = sample_generator(spec_seed, TRAP_CONFIG)
    thetas = np.array([theta for theta, _ in spec.atoms])
    near_atoms = HUNT_RADII[:, None] * np.exp(1j * (thetas + 1e-6))
    return spec, np.append(near_atoms, 0.99999 * np.exp(1j * angles))


def bits(w, residual):
    return float(w.real).hex(), float(w.imag).hex(), float(residual).hex()


def interior_points():
    """1023 interior points, which finish in a few Newton steps."""
    return disk_points(np.random.default_rng(0), 1023, 0.9)


class TestGuards:
    @pytest.mark.parametrize("seed, lam, z, iterations, trap_bits", TRAPS)
    def test_trap_bits(self, seed, lam, z, iterations, trap_bits):
        # a point's bits depend only on (spec, lambda, z): alone, beside z = 0 and among 1023 other points
        spec = sample_generator(seed, TRAP_CONFIG)
        sol = solve_resolvent(spec, lam, z)
        assert (bits(sol.w, sol.residual), sol.iterations) == (trap_bits, iterations)
        sol = solve_resolvent_grid(spec, lam, [z, 0.0])
        assert (bits(sol.w[0], sol.residual[0]), sol.iterations[0]) == (trap_bits, iterations)
        sol = solve_resolvent_grid(spec, lam, np.insert(interior_points(), 517, z))
        assert (bits(sol.w[517], sol.residual[517]), sol.iterations[517]) == (trap_bits, iterations)

    def test_trap_generators_over_the_hunt(self):
        # every point of a trap generator's hunt converges to the root inside the disk
        for seed, lam, z, *_ in TRAPS:
            spec, zs = hunt_points(seed)
            assert z in zs and lam in HUNT_LAMBDAS
            zs = np.broadcast_to(zs, (HUNT_LAMBDAS.size, zs.size))
            sol = solve_resolvent_grid(spec, HUNT_LAMBDAS[:, None], zs)
            assert np.all(np.abs(sol.w) <= np.abs(zs) + 1e-12)

    def test_one_kernel_call_a_round(self, monkeypatch):
        # the first trap point among the interior points
        seed, lam, z, iterations, trap_bits = TRAPS[0]
        spec = sample_generator(seed, TRAP_CONFIG)
        zs = np.append(z, interior_points())
        rows = []

        def recording(spec, w):
            rows.append(np.size(w))
            return _p_and_dp(spec, w)

        monkeypatch.setattr(resolvent, "_p_and_dp", recording)
        sol = solve_resolvent_grid(spec, lam, zs)
        assert sol.iterations[0] == sol.iterations.max() == iterations
        # the start, then one call a round on the working set, which is cut down to the trap point alone
        assert len(rows) == 1 + iterations
        assert rows[-1] == 1
        assert bits(sol.w[0], sol.residual[0]) == trap_bits


if __name__ == "__main__":
    # print TRAPS at the current solver, in its layout, with `PYTHONPATH=src python tests/test_resolvent.py`
    print("TRAPS = [")
    for seed, lam, z, *_ in TRAPS:
        sol = solve_resolvent(sample_generator(seed, TRAP_CONFIG), lam, z)
        print(f"    ({seed}, {lam!r}, {z.real!r} {'-' if z.imag < 0 else '+'} {abs(z.imag)!r}j, {sol.iterations},")
        print(f"     {bits(sol.w, sol.residual)!r}),".replace("'", '"'))
    print("]")
