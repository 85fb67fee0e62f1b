"""Flow integration, squeezing envelopes and the product formula."""

import numpy as np
import pytest

from resolvent_lab import (
    DomainError,
    GeneratorSpec,
    IntegrationError,
    SampleConfig,
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
    solve_resolvent_grid,
    squeeze_check,
)
from resolvent_lab import semigroup
from resolvent_lab.herglotz import _p_and_dp
from resolvent_lab.resolvent import MAX_ITER, _solve_core
from test_resolvent import TRAP_CONFIG


class TestIntegrate:
    def test_linear_real(self, constant_one):
        traj = integrate(constant_one, 0.5, 1.0)
        assert abs(traj.endpoint - 0.5 * np.exp(-1.0)) <= 1e-8

    def test_zero_generator_stays_put(self):
        # p == 0 has q = 0, so nothing moves: not the plain flow, nor the composed one, nor a rung of the ladder
        spec, z0 = constant_generator(0.0), 0.3 - 0.4j
        for traj in (integrate(spec, z0, 1.0), integrate_composed(spec, 2.0, z0, 1.0)):
            assert traj.times.size == 201 and np.all(traj.points == z0)
        assert ladder_gaps(spec, z0, 1.0) == [(n, 0.0) for n in (8, 16, 32, 64, 128)]

    def test_linear_complex(self):
        spec = constant_generator(1.0 + 1.0j)
        z0 = 0.4 - 0.2j
        traj = integrate(spec, z0, 1.5)
        assert abs(traj.endpoint - z0 * np.exp(-(1 + 1j) * 1.5)) <= 1e-8

    def test_self_consistency_tight_rerun(self, single_atom):
        # nonlinear case: every sample time is its own root-find, so the
        # endpoint does not depend on how many times are sampled before it
        a = semigroup._flow(single_atom, 0.0, 0.5, np.linspace(0.0, 1.0, 2)).endpoint
        b = semigroup._flow(single_atom, 0.0, 0.5, np.linspace(0.0, 1.0, 1001)).endpoint
        assert abs(a - b) <= 1e-14

    def test_modulus_non_increasing(self, random_specs):
        for spec in random_specs[:6]:
            traj = integrate(spec, 0.7 * np.exp(0.9j), 2.0)
            mods = np.abs(traj.points)
            assert np.all(np.diff(mods) <= 1e-9)
            assert np.all(mods <= abs(traj.z0) + 1e-12)

    def test_endpoint_envelope(self, random_specs):
        for spec in random_specs[:6]:
            traj = integrate(spec, 0.6, 1.0)
            assert abs(traj.endpoint) <= np.exp(-spec.a) * 0.6 + 1e-8

    def test_t_zero(self, single_atom):
        traj = integrate(single_atom, 0.3, 0.0)
        assert traj.endpoint == 0.3

    def test_domain_errors(self, single_atom):
        with pytest.raises(DomainError):
            integrate(single_atom, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(single_atom, 0.5, -1.0)

    @pytest.mark.parametrize("t_end", [-1.0, float("nan"), float("inf")])
    def test_both_integrators_reject_bad_t_end(self, single_atom, t_end):
        with pytest.raises(DomainError, match="t_end must be finite and >= 0"):
            integrate(single_atom, 0.5, t_end)
        with pytest.raises(DomainError, match="t_end must be finite and >= 0"):
            integrate_composed(single_atom, 1.0, 0.5, t_end)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", [2e4, 1e300])
    def test_both_integrators_match_closed_forms_at_large_t_end(self, single_atom, t_end):
        # the flow's cost does not grow with t_end: the single atom keeps u / (1 + u)^2 = z0 / (1 + z0)^2 e^(-t),
        # and the composed flow of p == q is z0 e^(-q t / (1 + lam q)), both 0 once e^(-t) underflows
        traj = integrate(single_atom, 0.5, t_end)
        u, t = traj.points, traj.times
        assert np.allclose(u / (1.0 + u) ** 2, 0.5 / 1.5**2 * np.exp(-t), rtol=1e-12, atol=0.0)
        q = 1.0 + 1.0j
        traj = integrate_composed(constant_generator(q), 1.0, 0.5, t_end)
        assert np.allclose(traj.points, 0.5 * np.exp(-q / (1.0 + q) * traj.times), rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec,lam",
        [
            (extremal_generator(1e6, 0.0), 1e-9),
            (constant_generator(1e6), 1e-9),
            (GeneratorSpec(atoms=((0.0, 1.0),), a=0.0, scale=1e279, gamma=1e308), 1e-9),
        ],
        ids=["atom-q-1e6", "constant-q-1e6", "q-near-overflow"],
    )
    def test_both_integrators_take_large_rate_times_t_end(self, spec, lam):
        # |q / (1 + lam q)| t_end up to 1e308.  A single atom at theta = 0 has the closed form
        # K(u(t)) = K(z0) e^(-q t), K(u) = u (1 + u c / q)^(-2 scale / c) with c = scale - a - i gamma:
        # u e^(-q t) for p == q, and u / (1 + u)^2 = z0 / (1 + z0)^2 e^(-q t) for a = gamma = 0
        q, c = spec.q, complex(spec.scale - spec.a, -spec.gamma)

        def koenigs(u):
            return u * (1.0 + u * c / q) ** (-2.0 * spec.scale / c)

        for t_end in (1.0, 0.02):
            traj = integrate(spec, 0.5, t_end)
            assert traj.points.size == 201
            assert np.all(np.abs(koenigs(traj.points) - koenigs(0.5) * np.exp(-q * traj.times))
                          <= 1e-12 * abs(koenigs(0.5)))
            traj = integrate_composed(spec, lam, 0.5, t_end)
            mods = np.abs(traj.points)
            assert np.all(np.isfinite(mods)) and np.all(np.diff(mods) <= 0.0) and mods[0] == 0.5
            if spec.scale == 0.0:
                assert np.allclose(traj.points, 0.5 * np.exp(-q / (1.0 + lam * q) * traj.times), rtol=1e-9, atol=0.0)
        # far out e^(-Re q t), and with it K(u), underflows: every sample past t = 0 is 0, also where q t
        # overflows a double (the near-overflow atom)
        assert np.all(integrate(spec, 0.5, 30.0).points[1:] == 0.0)
        assert np.all(integrate_composed(spec, lam, 0.5, 30.0).points[1:] == 0.0)
        assert integrate(spec, 0.5, 0.0).endpoint == 0.5

    @pytest.mark.filterwarnings("error")
    def test_flow_without_a_phase_is_an_integration_error(self):
        # p == 1e308 i turns u at t = 2 by 2e308 radians, which no double holds, while |u| stays |z0|
        with pytest.raises(IntegrationError, match="overflows a double") as info:
            integrate(constant_generator(1e308j), 0.5, 2.0)
        assert info.value.trajectory.points.tolist() == [0.5]
        assert abs(integrate(constant_generator(1e308j), 0.5, 1.0).endpoint) == pytest.approx(0.5, rel=1e-15)

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


# A 30-atom generator with a near-double zero of p: at t_end = 30 from z0 = 0.9, dividing by a subnormal in the
# pair's term once overflowed, and rescaling an underflowed guess divided by zero.
NEAR_PAIR = sample_generator(540722093982,
                             SampleConfig(max_atoms=40, scale_range=(0.0, 50.0), gamma_range=(-20.0, 20.0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_end", [30.0, 746.0, 1e4, 1e300])
def test_flows_stay_finite_and_quiet_once_the_target_underflows(single_atom, random_specs, t_end):
    # each sample is finite and inside its envelope e^(-a t)|z0|, or e^(-a_lambda t)|z0| for the composed flow
    for spec in [single_atom, NEAR_PAIR] + random_specs[:4]:
        for z0 in (0.5, 0.9, -0.6 + 0.3j):
            traj = integrate(spec, z0, t_end)
            assert np.all(np.isfinite(traj.points)) and squeeze_check(traj, spec.a).ok
            for lam in (0.5, 2.0):
                traj = integrate_composed(spec, lam, z0, t_end)
                floor = composed_accretivity(spec.q, spec.a, lam)
                assert np.all(np.isfinite(traj.points)) and squeeze_check(traj, floor).ok


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
        report = squeeze_check(traj, floor)
        assert report.ok and report.worst_margin == 0.0

    def test_composed_flow_respects_a_lambda_random(self, random_specs):
        for k, spec in enumerate(random_specs[:8]):
            for lam in (0.5, 2.0, 8.0):
                traj = integrate_composed(spec, lam, 0.6 * np.exp(1j * k), 1.0)
                floor = composed_accretivity(spec.q, spec.a, lam)
                assert squeeze_check(traj, floor).ok


class TestProductFormula:
    def test_linear_closed_form(self, constant_one):
        # iterated value is exactly z0/(1+t/n)^n
        z0, t = 0.5, 1.0
        gaps = dict(ladder_gaps(constant_one, z0, t))
        for n in (8, 32):
            iterated = iterate_resolvent(constant_one, t / n, z0, n)
            assert iterated == pytest.approx(z0 / (1 + t / n) ** n, abs=1e-12)
            expected_gap = abs(z0 / (1 + t / n) ** n - z0 * np.exp(-t))
            assert gaps[n] == pytest.approx(expected_gap, abs=1e-8)

    def test_t_zero_gap(self, single_atom):
        for z0 in (0.4, 0.5):
            assert ladder_gaps(single_atom, z0, 0.0) == [(n, 0.0) for n in semigroup._LADDER]

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
        # a rung does not depend on the other rungs: each, chained alone from the flow at its own times, gives its gap
        specs = [single_atom, constant_one] + [sample_generator(s) for s in (9001, 9002, 9003, 9004)]
        for spec in specs:
            for z0, t in ((0.5, 1.0), (-0.35 + 0.35j, 0.7)):
                gaps = ladder_gaps(spec, z0, t)
                assert [n for n, _ in gaps] == list(semigroup._LADDER)
                for n, gap in gaps:
                    flow = semigroup._flow(spec, 0.0, z0, np.linspace(0.0, t, n + 1))
                    [one_rung], converged = semigroup._chains(spec, flow.z0, t, [n], flow.points[1:])
                    assert converged.all()
                    assert abs(gap - abs(one_rung - flow.endpoint)) <= 1e-15

    def test_iterated_matches_compose(self, single_atom):
        # a rung's gap is |G_{t/n}^(n)(z0) - u(t, z0)| against the ladder's flow endpoint; the chain
        # and iterate_resolvent's solves stop on different tests, so they agree to 1e-12, not bit for bit
        endpoint = integrate(single_atom, 0.5, 1.0).endpoint
        gap = dict(ladder_gaps(single_atom, 0.5, 1.0))[8]
        assert gap == pytest.approx(abs(iterate_resolvent(single_atom, 0.125, 0.5, 8) - endpoint), abs=1e-12)



# ---------------------------------------------------------------------------
# the product-formula chains: accuracy, certificate and fallback
# ---------------------------------------------------------------------------


def sequential_compositions(spec, z0s, t, ns, tol):
    """G_{t/n}^(n)(z0) for every z0 (rows) and n (columns), one solve to |F| <= ``tol`` per step."""
    counts = np.broadcast_to(np.asarray(ns), (len(z0s), len(ns))).ravel()
    w = np.repeat(np.asarray(z0s, dtype=complex), len(ns))
    lams = (t / counts).astype(complex)
    for k in range(max(ns)):
        running = counts > k
        w[running], _, _, residual, _ = _solve_core(spec, lams[running], w[running], tol, MAX_ITER)
        assert residual.max(initial=0.0) <= tol
    return w.reshape(len(z0s), len(ns))


def single_atom_resolvent(z, s):
    """G_s(z) for p = (1 + w) / (1 - w): the root of (s - 1) w^2 + (1 + s + z) w - z = 0 with |w| <= |z|."""
    b = 1.0 + s + z
    root = np.sqrt(b * b + 4.0 * (s - 1.0) * z)
    root = root if (np.conj(b) * root).real >= 0.0 else -root
    return 2.0 * z / (b + root)


CHAIN_SPECS = {"single-atom": extremal_generator(1.0, 0.0), "constant": constant_generator(1.0)} | {
    f"sample-{seed}": sample_generator(seed) for seed in (9001, 9002, 9003, 9004)
}


@pytest.mark.parametrize("name", CHAIN_SPECS)
def test_chain_matches_tight_sequential_composition(name):
    # the doubling ladder samples the flow at linspace(0, t, 129)
    spec, ns = CHAIN_SPECS[name], semigroup._LADDER
    theta = spec.atoms[0][0] if spec.atoms else 0.0
    z0s = [r * np.exp(1j * (theta + d)) for r in (0.5, 0.9, 0.999) for d in (0.0, 0.7, np.pi)]
    for t in (1.0, 3.0):
        reference = sequential_compositions(spec, z0s, t, ns, tol=1e-14)
        for z0, row in zip(z0s, reference):
            endpoint = semigroup._flow(spec, 0.0, z0, np.linspace(0.0, t, 129)).endpoint
            for (n, gap), w in zip(ladder_gaps(spec, z0, t), row):
                assert abs(gap - abs(w - endpoint)) <= 1e-12, (n, z0, t)


@pytest.mark.parametrize("name", ["single-atom", "constant"])
def test_failed_chains_fall_back_to_iterate_resolvent(name, monkeypatch):
    spec, z0, t, ns = CHAIN_SPECS[name], -0.35 + 0.35j, 1.0, semigroup._LADDER
    monkeypatch.setattr(semigroup, "_CHAIN_ROUNDS", 0)  # no rung converges
    endpoint = semigroup._flow(spec, 0.0, z0, np.linspace(0.0, t, 129)).endpoint  # the ladder's own flow times
    composed = iterate_resolvent(spec, t / np.array(ns), z0, ns)
    assert ladder_gaps(spec, z0, t) == [(n, abs(complex(w) - endpoint)) for n, w in zip(ns, composed)]


def test_only_the_failed_rung_falls_back(single_atom, monkeypatch):
    z0, t, ns = 0.6 * np.exp(0.4j), 1.0, semigroup._LADDER
    chained = ladder_gaps(single_atom, z0, t)
    chains, fallback = semigroup._chains, []

    def fail_16(*args):
        w, converged = chains(*args)
        return w, converged & (np.array(ns) != 16)

    def recording(spec, lam, z, n):
        fallback.append(list(n))
        return iterate_resolvent(spec, lam, z, n)

    monkeypatch.setattr(semigroup, "_chains", fail_16)
    monkeypatch.setattr(semigroup, "iterate_resolvent", recording)
    gaps = ladder_gaps(single_atom, z0, t)
    assert fallback == [[16]]
    assert gaps[:1] + gaps[2:] == chained[:1] + chained[2:]
    endpoint = semigroup._flow(single_atom, 0.0, z0, np.linspace(0.0, t, 129)).endpoint
    assert gaps[1] == (16, abs(iterate_resolvent(single_atom, t / np.array([16]), z0, [16])[0] - endpoint))


def test_rung_that_needs_the_fallback(monkeypatch):
    # a TRAP_CONFIG generator whose n = 32 chain does not converge: that rung alone is composed by iterate_resolvent
    spec, z0 = sample_generator(588145293, TRAP_CONFIG), 0.8794222928291348 + 0.4739382141958459j
    t, ns = 1.0, semigroup._LADDER
    chains, converged = semigroup._chains, []

    def recording(*args):
        w, ok = chains(*args)
        converged.append(ok.tolist())
        return w, ok

    monkeypatch.setattr(semigroup, "_chains", recording)
    gaps = ladder_gaps(spec, z0, t)
    assert converged == [[n != 32 for n in ns]]
    endpoint = semigroup._flow(spec, 0.0, z0, np.linspace(0.0, t, 129)).endpoint
    assert gaps[2] == (32, abs(iterate_resolvent(spec, t / np.array([32]), z0, [32])[0] - endpoint))
    assert [gap for _, gap in gaps] == pytest.approx([0.01243, 0.005860, 0.002911, 0.001423, 0.0007045], rel=1e-3)


def test_chain_leaving_the_trust_disk_is_refused(single_atom):
    # from w_k = -0.9 the first Newton round jumps out of |w| < |z0| + 1e-12; from 0.45 the chain converges
    w, converged = semigroup._chains(single_atom, 0.5 + 0j, 1.0, [8], np.full(8, -0.9 + 0j))
    assert not converged[0]
    w, converged = semigroup._chains(single_atom, 0.5 + 0j, 1.0, [8], np.full(8, 0.45 + 0j))
    assert converged[0]
    assert w[0] == pytest.approx(sequential_compositions(single_atom, [0.5], 1.0, [8], 1e-14)[0, 0], abs=1e-14)


@pytest.mark.parametrize("z0", [0.5, -0.9 + 0.1j, 0.999j])
def test_large_step_ladders_match_closed_forms(z0):
    # t = 1e4 over 8 steps: s = 1250, and the flow itself underflows to 0
    t = 1e4
    gap = dict(ladder_gaps(constant_generator(1.0), z0, t))[8]
    assert gap == pytest.approx(abs(z0 / (1.0 + t / 8) ** 8 - z0 * np.exp(-t)), rel=1e-12)
    w = z0
    for _ in range(8):
        w = single_atom_resolvent(w, t / 8)
    gap = dict(ladder_gaps(extremal_generator(1.0, 0.0), z0, t))[8]
    assert gap == pytest.approx(abs(w), rel=1e-12)

# ---------------------------------------------------------------------------
# the exact flows against scipy's RK45 at rtol 1e-13 (scipy is a test dependency)
# ---------------------------------------------------------------------------


def rk45_flows(spec, lam, z0s, t_end, n_eval):
    """The flows from every start in z0s by RK45 at rtol 1e-13, as one vector state.

    The state is w = G_lam(u), as the library solves it; the result is in u,
    one row per start.  scipy's error norm is an RMS over the components, so
    each start is held a little more loosely than in a scalar run.
    """
    from scipy.integrate import solve_ivp

    z0s = np.asarray(z0s, dtype=complex)
    w0 = solve_resolvent_grid(spec, lam, z0s).w if lam else z0s

    def rhs(t, w):
        p, dp = _p_and_dp(spec, w)  # p and p' in one kernel pass, without eval_p's |w| < 1 check
        return -p * w / (1.0 + lam * (p + dp * w))

    sol = solve_ivp(rhs, (0.0, t_end), w0, method="RK45", rtol=1e-13, atol=1e-16,
                    t_eval=np.linspace(0.0, t_end, n_eval))
    assert sol.status == 0, sol.message
    w = sol.y
    return w * (1.0 + lam * eval_p(spec, w))


def rk45_flow(spec, lam, z0, t_end, n_eval):
    """The flow from one start by RK45: a scalar state, so the error norm is that start's own."""
    return rk45_flows(spec, lam, [z0], t_end, n_eval)[0]


def _random_spec(n_atoms, seed):
    rng = np.random.default_rng(seed)
    atoms = tuple(zip(rng.uniform(0.0, 2.0 * np.pi, n_atoms), rng.uniform(0.05, 1.0, n_atoms)))
    return GeneratorSpec(atoms, a=rng.uniform(0.0, 1.0), scale=rng.uniform(0.0, 2.0), gamma=rng.uniform(-1.0, 1.0))


GENERAL = {
    "constant": constant_generator(1.0 + 0.5j),
    "single-atom": extremal_generator(1.0, 0.0),
    **{f"random-{n}-atoms": _random_spec(n, 700 + n) for n in (2, 3, 4, 6)},
}
HARD = {
    # p(infinity) = a - scale + i gamma = 0: P drops a degree and h has a polynomial part
    "degree-drop": extremal_generator(1.0, 0.5),
    # p(infinity) = -6e-10: P has a root near 1.7e9
    "near-degree-drop": GeneratorSpec(((0.3, 1.0),), a=0.6, scale=0.6 * (1.0 + 1e-9), gamma=0.0),
    "atoms-1e-6-apart": GeneratorSpec(((1.0, 0.5), (1.0 + 1e-6, 0.5)), a=0.1, scale=1.0, gamma=0.2),
    # a and gamma put p(r) = p'(r) = 0 at the critical point r ~ 3.53 + 1.38i of the kernel sum
    "double-zero": GeneratorSpec(((0.0, 0.3), (2.5, 0.7)), a=0.9657850299128485, scale=1.0,
                                 gamma=0.13290936690181138),
    # p(infinity) = 0 and the next term of p at infinity nearly cancels: a huge zero beside a polynomial part
    "double-degree-drop": GeneratorSpec(((0.0, 0.5), (np.pi + 1e-12, 0.5)), a=1.0, scale=1.0, gamma=0.0),
    # six equal atoms evenly spaced and a = scale: all six zeros of p sit at infinity, h is a polynomial
    "zeros-at-infinity": GeneratorSpec(tuple((np.pi * k / 3, 1.0) for k in range(6)), a=1.0, scale=1.0, gamma=0.0),
    # 40 evenly spaced atoms: polynomial coefficients would lose half the digits of h'
    "40-atoms": GeneratorSpec(tuple((2.0 * np.pi * k / 40, 1.0 + k % 3) for k in range(40)), a=0.3, scale=1.0,
                              gamma=0.5),
}


def _worst_gap(spec):
    theta = spec.atoms[0][0]
    z0s = np.array([r * np.exp(1j * th) for r in (0.25, 0.55, 0.9, 0.999) for th in (theta, theta + 0.7)])
    worst = 0.0
    for lam in (0.0, 0.2, 1.0, 5.0):
        reference = rk45_flows(spec, lam, z0s, 1.0, 21)
        for z0, ref in zip(z0s, reference):
            traj = semigroup._flow(spec, lam, z0, np.linspace(0.0, 1.0, 21))
            worst = max(worst, float(np.max(np.abs(traj.points - ref))))
    return worst


@pytest.mark.parametrize("name", GENERAL)
def test_exact_flow_matches_rk45(name):
    spec = GENERAL[name]
    assert _worst_gap(spec) <= 1e-10
    z0, t = 0.5 * np.exp(0.3j), 1.0
    endpoint = rk45_flow(spec, 0.0, z0, t, 2)[-1]
    for n, gap in ladder_gaps(spec, z0, t):
        assert abs(gap - abs(iterate_resolvent(spec, t / n, z0, n) - endpoint)) <= 1e-10


@pytest.mark.parametrize("name", HARD)
def test_exact_flow_matches_rk45_on_hard_cases(name):
    assert _worst_gap(HARD[name]) <= 1e-9


def test_composed_flow_matches_scalar_rk45():
    # one start per RK45 run, so the error norm is that start's own; integrate has its scalar cases below
    spec = GENERAL["random-4-atoms"]
    z0 = 0.999 * np.exp(1j * (spec.atoms[0][0] + 0.7))
    traj = semigroup._flow(spec, 1.0, z0, np.linspace(0.0, 1.0, 21))
    assert np.max(np.abs(traj.points - rk45_flow(spec, 1.0, z0, 1.0, 21))) <= 1e-10


def test_near_double_zero_enters_as_a_pair():
    # the two roots lie about 1e-8 apart; as separate terms they would carry rho of order 1e8
    terms = semigroup._koenigs_terms(HARD["double-zero"])
    assert terms.pair_r1.size == 1 and abs(terms.pair_r1[0] - terms.pair_r2[0]) < 1e-6
    assert np.max(np.abs(terms.rho)) < 100.0


@pytest.mark.parametrize("z0", [-0.9999, -0.99999999])
def test_flow_next_to_a_zero_of_p(single_atom, z0):
    # p = (1 + u) / (1 - u) vanishes at u = -1, where G is steep and its log terms nearly singular
    traj = semigroup._flow(single_atom, 0.0, z0, np.linspace(0.0, 1.0, 21))
    assert np.max(np.abs(traj.points - rk45_flow(single_atom, 0.0, z0, 1.0, 21))) <= 1e-10


def test_generator_with_inaccurate_koenigs_terms_is_refused(single_atom, monkeypatch):
    monkeypatch.setattr(semigroup, "_TERMS_TOL", 0.0)
    with pytest.raises(IntegrationError, match="Koenigs function") as info:
        integrate(single_atom, 0.5, 1.0)
    assert info.value.trajectory.points.tolist() == [0.5]


def test_failed_root_find_carries_converged_prefix(single_atom, monkeypatch):
    full = integrate(single_atom, 0.5, 2.0)
    monkeypatch.setattr(semigroup, "_MAX_NEWTON", 3)
    monkeypatch.setattr(semigroup, "_MAX_BISECT", 0)  # halving the gap would recover the missed time
    with pytest.raises(IntegrationError, match="root-find failed") as info:
        integrate(single_atom, 0.5, 2.0)
    prefix = info.value.trajectory
    k = prefix.times.size
    assert 2 <= k < full.times.size
    assert f"t = {full.times[k]:.6g}" in str(info.value)
    assert prefix.times.tolist() == full.times[:k].tolist()
    assert prefix.points.tolist() == full.points[:k].tolist()


def test_missed_times_continue_from_the_previous_one(single_atom, monkeypatch):
    full = integrate(single_atom, 0.25, 2.0)
    newton, sizes = semigroup._newton, []

    def first_pass_misses_odd_times(*args):
        w, p, ok = newton(*args)
        sizes.append(ok.size)
        return w, p, np.where(np.arange(ok.size) % 2 == 1, False, ok) if len(sizes) == 1 else ok

    monkeypatch.setattr(semigroup, "_newton", first_pass_misses_odd_times)
    traj = integrate(single_atom, 0.25, 2.0)
    assert sizes == [201] + [1] * 100
    assert np.max(np.abs(traj.points - full.points)) <= 1e-15


def test_times_that_need_the_restart(monkeypatch):
    # a TRAP_CONFIG generator on which the first Newton pass misses a few times; each restarts from the time before
    spec, z0 = sample_generator(138051204, TRAP_CONFIG), 0.6655162349780125 - 0.7329311979856574j
    newton, calls = semigroup._newton, []

    def recording(*args):
        w, p, ok = newton(*args)
        calls.append(ok.tolist())
        return w, p, ok

    monkeypatch.setattr(semigroup, "_newton", recording)
    traj = integrate(spec, z0, 1.0)
    assert [len(ok) for ok in calls] == [201, 1, 1, 1]
    assert calls[0].count(False) == 3 and calls[1:] == [[True]] * 3
    assert squeeze_check(traj, spec.a).ok
    calls.clear()
    ladder_gaps(spec, z0, 1.0)
    assert [len(ok) for ok in calls] == [129, 1, 1]
    assert calls[0].count(False) == 2 and calls[1:] == [[True]] * 2


# a TRAP_CONFIG start at radius 1 - 1e-6, 0.01 rad beside an atom: p(z0) = 0.116 + 50.4i turns the flow past the
# atom by t = 0.005, and no Newton step from z0 over that whole first gap lowers |G| inside the trust disk
BISECTION_SPEC, BISECTION_Z0 = sample_generator(314728431, TRAP_CONFIG), -0.8022061973771498 + 0.5970454060544251j


def test_flow_that_needs_the_bisection(monkeypatch):
    newton, sizes = semigroup._newton, []

    def recording(*args):
        w, p, ok = newton(*args)
        sizes.append(ok.size)
        return w, p, ok

    monkeypatch.setattr(semigroup, "_newton", recording)
    traj = integrate(BISECTION_SPEC, BISECTION_Z0, 1.0)
    # the first pass, the restart over the whole gap, then the halves of the gap
    assert sizes[0] == 201 and len(sizes) > 2
    assert np.max(np.abs(traj.points - rk45_flow(BISECTION_SPEC, 0.0, BISECTION_Z0, 1.0, 201))) <= 1e-10
    monkeypatch.setattr(semigroup, "_MAX_BISECT", 0)
    with pytest.raises(IntegrationError, match="root-find failed at t = 0.005"):
        integrate(BISECTION_SPEC, BISECTION_Z0, 1.0)


def test_ladder_that_needs_the_bisection():
    t = 1.0
    endpoint = integrate(BISECTION_SPEC, BISECTION_Z0, t).endpoint
    for n, gap in ladder_gaps(BISECTION_SPEC, BISECTION_Z0, t):
        assert abs(gap - abs(iterate_resolvent(BISECTION_SPEC, t / n, BISECTION_Z0, n) - endpoint)) <= 1e-10


def test_ladder_that_needs_the_descent_test():
    # a TRAP_CONFIG start beside an atom: the ladder's flow misses t = 1/128 for good if _newton takes any finite
    # candidate in the trust disk instead of one that lowers |G|, or stops halving a step that does not
    spec, z0 = sample_generator(314728431, TRAP_CONFIG), -0.802126778884191 + 0.5969862985001182j
    gaps = ladder_gaps(spec, z0, 1.0)
    assert [n for n, _ in gaps] == list(semigroup._LADDER)
    assert [gap for _, gap in gaps] == pytest.approx([0.03206, 0.01674, 0.008678, 0.004501, 0.002339], rel=1e-3)


def test_flow_that_needs_the_step_halving():
    # a TRAP_CONFIG start near the circle: without halving a step that does not lower |G|, the flow misses
    # t = 0.005 for good
    spec, z0 = sample_generator(776961316, TRAP_CONFIG), -0.16160418088315234 - 0.9867543254129092j
    assert squeeze_check(integrate(spec, z0, 1.0), spec.a).ok
