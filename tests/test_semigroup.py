"""Flow integration, squeezing envelopes and the product formula."""

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    GeneratorSpec,
    IntegrationError,
    constant_generator,
    composed_accretivity,
    eval_p,
    extremal_generator,
    integrate,
    integrate_composed,
    iterate_resolvent,
    ladder_gaps,
    sample_generator,
    solve_resolvent,
    squeeze_check,
)
from resolvent_lab import semigroup
from resolvent_lab.semigroup import MAX_T_END


class TestIntegrate:
    def test_linear_real(self, constant_one):
        traj = integrate(constant_one, 0.5, 1.0)
        assert abs(traj.endpoint - 0.5 * np.exp(-1.0)) <= 1e-8

    def test_linear_complex(self):
        spec = constant_generator(1.0 + 1.0j)
        z0 = 0.4 - 0.2j
        traj = integrate(spec, z0, 1.5)
        assert abs(traj.endpoint - z0 * np.exp(-(1 + 1j) * 1.5)) <= 1e-8

    def test_self_consistency_tight_rerun(self, single_atom):
        # nonlinear case: endpoint agrees with a rerun at a much tighter
        # tolerance (the adaptive analogue of halving every step)
        a = integrate(single_atom, 0.5, 1.0, tol=1e-9).endpoint
        b = integrate(single_atom, 0.5, 1.0, tol=1e-12).endpoint
        assert abs(a - b) <= 1e-8

    def test_modulus_non_increasing(self, random_specs):
        for spec in random_specs[:6]:
            traj = integrate(spec, 0.7 * np.exp(0.9j), 2.0)
            mods = np.abs(traj.points)
            assert np.all(np.diff(mods) <= 1e-9)
            assert np.all(mods <= abs(traj.z0) + 1e-12)

    def test_endpoint_envelope(self, random_specs):
        for spec in random_specs[:6]:
            traj = integrate(spec, 0.6, 1.0, tol=1e-9)
            assert abs(traj.endpoint) <= np.exp(-spec.a) * 0.6 + 1e-8

    def test_t_zero(self, single_atom):
        traj = integrate(single_atom, 0.3, 0.0)
        assert traj.endpoint == 0.3

    def test_domain_errors(self, single_atom):
        with pytest.raises(DomainError):
            integrate(single_atom, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(single_atom, 0.5, -1.0)

    @pytest.mark.parametrize("t_end", [-1.0, float("nan"), float("inf"), 2.0 * MAX_T_END, 1e300])
    def test_both_integrators_reject_bad_t_end(self, single_atom, t_end):
        with pytest.raises(DomainError):
            integrate(single_atom, 0.5, t_end)
        with pytest.raises(DomainError):
            integrate_composed(single_atom, 1.0, 0.5, t_end)

    @pytest.mark.parametrize(
        "spec,lam",
        [
            (extremal_generator(1e6, 0.0), 1e-9),
            (constant_generator(1e6), 1e-9),
            (GeneratorSpec(atoms=((0.0, 1.0),), a=0.0, scale=1e308, gamma=1e308), 1e-9),
        ],
        ids=["atom-q-1e6", "constant-q-1e6", "q-near-overflow"],
    )
    def test_both_integrators_bound_rate_times_t_end(self, spec, lam):
        # RK45 takes about |q / (1 + lam q)| * t_end steps; q = 1e6 at t_end = 1 once took 93 s
        for t_end in (1.0, 2.0 * MAX_T_END / 1e6):
            with pytest.raises(DomainError, match="lambda q"):
                integrate(spec, 0.5, t_end)
            with pytest.raises(DomainError, match="lambda q"):
                integrate_composed(spec, lam, 0.5, t_end)
        assert integrate(spec, 0.5, 0.0).endpoint == 0.5

    def test_composed_rate_falls_with_lambda(self):
        # q / (1 + lam q) is about 1 / lam, so a large q composes with lam = 1 at t_end = 1
        traj = integrate_composed(constant_generator(1e6), 1.0, 0.5, 1.0)
        exact = 0.5 * np.exp(-1e6 / (1.0 + 1e6))
        assert abs(traj.endpoint - exact) <= 1e-6  # w's absolute tolerance 1e-12, times 1 + lam q

    @pytest.mark.parametrize("z0", [1.0, -0.6 + 0.8j, complex(float("nan"), 0.0)])
    def test_both_integrators_reject_bad_start(self, single_atom, z0):
        with pytest.raises(DomainError):
            integrate(single_atom, z0, 1.0)
        with pytest.raises(DomainError):
            integrate_composed(single_atom, 1.0, z0, 1.0)

    def test_composed_t_zero(self, single_atom):
        traj = integrate_composed(single_atom, 1.0, 0.3, 0.0)
        assert traj.endpoint == 0.3
        assert traj.times.tolist() == [0.0]

    def test_composed_may_start_in_pole_zone(self, single_atom):
        # the composed right-hand side evaluates p at G(u), away from the atom
        traj = integrate_composed(single_atom, 1.0, 0.9996, 0.1)
        assert abs(traj.endpoint) < 0.9996

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, 1e-20])
    def test_both_integrators_reject_bad_tol(self, single_atom, tol):
        with pytest.raises(DomainError):
            integrate(single_atom, 0.5, 1.0, tol=tol)
        with pytest.raises(DomainError):
            integrate_composed(single_atom, 1.0, 0.5, 1.0, tol=tol)

    @pytest.mark.parametrize("n_eval", [1, 0, -3])
    def test_both_integrators_reject_bad_n_eval(self, single_atom, n_eval):
        with pytest.raises(DomainError):
            integrate(single_atom, 0.5, 1.0, n_eval=n_eval)
        with pytest.raises(DomainError):
            integrate_composed(single_atom, 1.0, 0.5, 1.0, n_eval=n_eval)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_composed_rejects_bad_lambda(self, single_atom, lam):
        for t_end in (1.0, 0.0):
            with pytest.raises(DomainError):
                integrate_composed(single_atom, lam, 0.5, t_end)

    def test_composed_constant_closed_form(self):
        # p == q: G_lam(u) = u / (1 + lam q), so u(t) = z0 e^(-q t / (1 + lam q))
        q, z0 = 1.0 + 1.0j, 0.4 - 0.2j
        spec = constant_generator(q)
        for lam in (0.2, 1.0, 5.0):
            traj = integrate_composed(spec, lam, z0, 1.5)
            exact = z0 * np.exp(-q * traj.times / (1 + lam * q))
            assert traj.points[0] == z0
            assert np.max(np.abs(traj.points - exact)) <= 1e-8

    def test_composed_self_consistency_tight_rerun(self, single_atom):
        for spec in [single_atom] + [sample_generator(s) for s in (9001, 9002, 9003)]:
            for lam in (0.2, 5.0):
                a = integrate_composed(spec, lam, 0.55 * np.exp(0.4j), 1.0, tol=1e-9).endpoint
                b = integrate_composed(spec, lam, 0.55 * np.exp(0.4j), 1.0, tol=1e-12).endpoint
                assert abs(a - b) <= 1e-8

    def test_composed_flow_makes_one_solve(self, single_atom, monkeypatch):
        calls = []

        def counting(name):
            fn = getattr(semigroup, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("solve_resolvent", "eval_p"):
            monkeypatch.setattr(semigroup, name, counting(name))
        integrate_composed(single_atom, 1.0, 0.5, 2.0)
        assert calls == ["solve_resolvent"]

    def test_composed_pole_guard_applies_to_w(self, single_atom):
        # for a tiny lambda, w0 = G(z0) stays within the zone of the atom at 1
        with pytest.raises(IntegrationError) as info:
            integrate_composed(single_atom, 1e-10, 0.99999, 1.0)
        assert info.value.trajectory.points.tolist() == [0.99999]

    def test_pole_proximity_partial_result(self, single_atom):
        # |z0| < 1 is legal input, but starting on the atom axis within the
        # proximity zone must abort with the partial trajectory attached
        with pytest.raises(IntegrationError) as info:
            integrate(single_atom, 0.9996, 1.0)
        assert info.value.trajectory is not None
        assert info.value.trajectory.points[0] == pytest.approx(0.9996)

    def test_semigroup_property(self, single_atom):
        mid = integrate(single_atom, 0.5, 0.4).endpoint
        two_leg = integrate(single_atom, mid, 0.6).endpoint
        direct = integrate(single_atom, 0.5, 1.0).endpoint
        assert abs(two_leg - direct) <= 1e-6


class TestSqueeze:
    def test_equality_case(self, constant_one):
        traj = integrate(constant_one, 0.5, 1.0)
        rep = squeeze_check(traj, 1.0)
        assert rep.ok
        assert abs(rep.worst_margin) <= 1e-8

    def test_complex_rate(self):
        # |e^{-(1+i)t}| = e^{-t}
        spec = constant_generator(1.0 + 1.0j)
        traj = integrate(spec, 0.5, 1.0)
        assert squeeze_check(traj, 1.0).ok

    def test_inflated_floor_fails(self, constant_one):
        # the constant generator attains the envelope, so any larger floor
        # must be rejected
        traj = integrate(constant_one, 0.5, 1.0)
        assert not squeeze_check(traj, 1.1).ok

    def test_sampled_specs(self, random_specs):
        for spec in random_specs[:6]:
            traj = integrate(spec, -0.5 + 0.3j, 1.5)
            assert squeeze_check(traj, spec.a).ok


class TestFlowResolventConsistency:
    def test_resolvent_derivative_at_zero_lambda(self, random_specs):
        # (G_lam(z) - z)/lam -> -f(z) as lam -> 0
        lam = 1e-5
        for spec in random_specs[:8]:
            for z in (0.5, -0.4 + 0.5j):
                w = solve_resolvent(spec, lam, z).w
                f = eval_p(spec, z) * z
                err = abs((w - z) / lam + f)
                assert err <= 1e-3 * max(1.0, abs(f))

    def test_composed_flow_respects_a_lambda(self, quarter_floor_atom):
        lam = 2.0
        traj = integrate_composed(quarter_floor_atom, lam, 0.6, 1.0)
        floor = composed_accretivity(quarter_floor_atom.q, quarter_floor_atom.a, lam)
        assert floor > 0
        assert squeeze_check(traj, floor, slack=1e-6).ok

    def test_composed_flow_respects_a_lambda_random(self, random_specs):
        for k, spec in enumerate(random_specs[:8]):
            for lam in (0.5, 2.0, 8.0):
                traj = integrate_composed(spec, lam, 0.6 * np.exp(1j * k), 1.0)
                floor = composed_accretivity(spec.q, spec.a, lam)
                assert squeeze_check(traj, floor, slack=1e-8).ok


class TestProductFormula:
    def test_linear_closed_form(self, constant_one):
        # iterated value is exactly z0/(1+t/n)^n
        z0, t = 0.5, 1.0
        for n in (8, 32):
            iterated = iterate_resolvent(constant_one, t / n, z0, n)
            assert iterated == pytest.approx(z0 / (1 + t / n) ** n, abs=1e-12)
            expected_gap = abs(z0 / (1 + t / n) ** n - z0 * np.exp(-t))
            [(_, gap)] = ladder_gaps(constant_one, z0, t, ns=(n,))
            assert gap == pytest.approx(expected_gap, abs=1e-8)

    def test_t_zero_gap(self, single_atom):
        assert ladder_gaps(single_atom, 0.4, 0.0, ns=(1,)) == [(1, 0.0)]

    def test_ladder_halves(self, single_atom):
        gaps = ladder_gaps(single_atom, 0.5, 1.0)
        ratios = [g2 / g1 for (_, g1), (_, g2) in zip(gaps, gaps[1:])]
        for r in ratios:
            assert 0.4 <= r <= 0.6

    def test_ladder_monotone_for_random_specs(self):
        for seed in (9001, 9002, 9003):
            spec = sample_generator(seed)
            gaps = ladder_gaps(spec, 0.5, 1.0)
            vals = [g for _, g in gaps]
            for g1, g2 in zip(vals, vals[1:]):
                if g1 < 1e-7:
                    continue
                assert g2 < g1

    def test_ladder_matches_product_formula(self, single_atom, constant_one):
        specs = [single_atom, constant_one] + [sample_generator(s) for s in (9001, 9002, 9003, 9004)]
        for spec in specs:
            for z0, t in ((0.5, 1.0), (-0.35 + 0.35j, 0.7)):
                ns = (3, 8, 16, 32)
                gaps = ladder_gaps(spec, z0, t, ns=ns)
                assert [n for n, _ in gaps] == list(ns)
                for (_, gap), n in zip(gaps, ns):
                    [(_, one_rung)] = ladder_gaps(spec, z0, t, ns=(n,))
                    assert abs(gap - one_rung) <= 1e-15

    def test_ladder_edge_cases(self, single_atom):
        assert ladder_gaps(single_atom, 0.5, 1.0, ns=()) == []
        assert ladder_gaps(single_atom, 0.5, 0.0, ns=(1, 4)) == [(1, 0.0), (4, 0.0)]
        with pytest.raises(DomainError):
            ladder_gaps(single_atom, 0.5, 1.0, ns=(8, 0))

    def test_iterated_matches_compose(self, single_atom):
        # a rung's gap is |G_{t/n}^(n)(z0) - u(t, z0)| against the ladder's flow endpoint
        endpoint = integrate(single_atom, 0.5, 1.0, tol=semigroup._LADDER_ODE_TOL, n_eval=2).endpoint
        [(_, gap)] = ladder_gaps(single_atom, 0.5, 1.0, ns=(2,))
        assert gap == abs(iterate_resolvent(single_atom, 0.5, 0.5, 2) - endpoint)
