"""Resolvent solver against closed-form oracles and its own certificates."""

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    GeneratorSpec,
    constant_generator,
    eval_p,
    extremal_generator,
    iterate_resolvent,
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
        for spec in [single_atom] + random_specs[:6]:
            for lam, z in ((1.0, -0.999), (2.19, 0.3 - 0.6j), (0.01, 0.99), (40.0, 0.7j), (1.0, 0.0)):
                one = solve_resolvent(spec, lam, z)
                grid = solve_resolvent_grid(spec, lam, [z])
                assert one.w == grid.w[0] and one.g == grid.g[0]
                assert one.residual == grid.residual[0] and one.iterations == grid.iterations[0]

    def test_iteration_budget_exhaustion(self, single_atom, monkeypatch):
        from resolvent_lab import NonConvergenceError

        # z = -0.95 takes more than one round, so a budget of one always raises
        assert solve_resolvent(single_atom, 1.0, -0.95).iterations > 1
        monkeypatch.setattr(resolvent, "MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as info:
            solve_resolvent(single_atom, 1.0, -0.95)
        assert info.value.residual > DEFAULT_TOL
        assert info.value.iterations == 1

    def test_lambda_array_matches_one_call_per_lambda(self, single_atom, random_specs):
        # z = 0.999 on an atom direction at lambda = 0.02 converges last, after
        # the working set has shrunk around it (most points take 2-4 rounds)
        rng = np.random.default_rng(5)
        zs = disk_points(rng, 24, 0.95)
        lams = np.array([0.02, 0.05, 0.7, 2.0, 13.0])
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
            # the last point running keeps a finished one beside it, so it
            # has the bits of a two-point call (a one-row kernel sum may not)
            pair = solve_resolvent_grid(spec, lams[0], [slow, zs[0]])
            assert pair.w[0] == sol.w[0, -1] and pair.Q[0] == sol.Q[0, -1]
            assert pair.iterations[0] == sol.iterations[0, -1]
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
