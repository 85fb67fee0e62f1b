"""Generator evaluation: kernel sums, value disks, Harnack bounds, sampling."""

import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from resolvent_lab import (
    ConfigError,
    DomainError,
    GeneratorSpec,
    SampleConfig,
    eval_p,
    extremal_generator,
    harnack_bounds,
    load_spec,
    sample_generator,
    spec_from_dict,
    spec_to_dict,
    value_disk,
)
from resolvent_lab.herglotz import _p_and_dp
from conftest import disk_points


def kernel_oracle(spec, z):
    """Direct atom-by-atom evaluation of the defining sum."""
    total = 0.0
    for theta, weight in spec.atoms:
        zeta = np.exp(1j * theta)
        total += weight * (1 + z * np.conj(zeta)) / (1 - z * np.conj(zeta))
    return spec.scale * total + spec.a + 1j * spec.gamma


class TestEvalP:
    def test_p_at_zero_is_q(self, single_atom):
        assert eval_p(single_atom, 0.0) == pytest.approx(1.0)

    def test_single_atom_half(self, single_atom):
        # (1 + 0.5) / (1 - 0.5) = 3
        assert eval_p(single_atom, 0.5) == pytest.approx(3.0, abs=1e-14)

    def test_any_spec_at_zero(self):
        spec = GeneratorSpec(atoms=((0.3, 1.0), (2.0, 2.0)), a=0.2, scale=0.7, gamma=-0.4)
        assert eval_p(spec, 0.0) == pytest.approx(complex(0.9, -0.4), abs=1e-14)

    def test_matches_kernel_oracle(self, random_specs):
        rng = np.random.default_rng(5)
        for spec in random_specs[:10]:
            zs = disk_points(rng, 50)
            np.testing.assert_allclose(eval_p(spec, zs), kernel_oracle(spec, zs), atol=1e-12)

    def test_domain_error_outside_disk(self, single_atom):
        with pytest.raises(DomainError):
            eval_p(single_atom, 1.0)
        with pytest.raises(DomainError):
            eval_p(single_atom, 1.2 + 0.1j)
        for z in (float("nan"), complex(float("nan"), 0.2), np.array([0.3, np.nan])):
            with pytest.raises(DomainError):
                eval_p(single_atom, z)

    def test_pole_guard(self, single_atom):
        with pytest.raises(DomainError):
            eval_p(single_atom, 1.0 - 1e-15)

    def test_constant_spec_has_no_pole(self):
        spec = GeneratorSpec(atoms=((0.0, 1.0),), a=0.5, scale=0.0, gamma=0.1)
        assert eval_p(spec, 1.0 - 1e-15) == pytest.approx(complex(0.5, 0.1))


def kernel_specs():
    """Generators with 1, 2, 3, 6, 9 and 50 atoms."""
    rng = np.random.default_rng(43)
    return [
        GeneratorSpec(atoms=tuple(zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.05, 1.0, n))),
                      a=rng.uniform(0, 1), scale=rng.uniform(0.1, 2), gamma=rng.uniform(-1, 1))
        for n in (1, 2, 3, 6, 9, 50)
    ]


def exact_p_and_dp(spec, z):
    """p(z) and p'(z) from the float constants that the spec fixes, summed exactly in Fractions as
    (real, imag) pairs, with |p(inf)| + sum |a_k / d_k| and sum |b_k / d_k^2|, the sizes of their terms."""
    p_inf, terms = spec._p_inf, spec._terms
    zr, zi = Fraction(z.real), Fraction(z.imag)
    p = [Fraction(p_inf.real), Fraction(p_inf.imag)]
    dp = [Fraction(0), Fraction(0)]
    size_p, size_dp = abs(p_inf), 0.0
    for c, a_k, b_k in terms:
        cr, ci, br, bi = Fraction(c.real), Fraction(c.imag), Fraction(b_k.real), Fraction(b_k.imag)
        dr, di = 1 + zr * cr - zi * ci, zr * ci + zi * cr  # d = 1 + z c
        norm = dr * dr + di * di
        ir, ii = dr / norm, -di / norm  # 1 / d
        sr, si = ir * ir - ii * ii, 2 * ir * ii  # 1 / d^2
        p = [p[0] + Fraction(a_k) * ir, p[1] + Fraction(a_k) * ii]
        dp = [dp[0] + br * sr - bi * si, dp[1] + br * si + bi * sr]
        size_p += a_k / math.sqrt(norm)
        size_dp += abs(b_k) / float(norm)
    return p, dp, size_p, size_dp


def exact_error(value, exact):
    return math.hypot(Fraction(value.real) - exact[0], Fraction(value.imag) - exact[1])


class TestKernelContract:
    """p and p' are summed atom by atom: a point's bits depend only on the point, and on no other point."""

    def test_bits_do_not_depend_on_the_call(self):
        z = disk_points(np.random.default_rng(41), 701, 0.999)
        for spec in kernel_specs():
            p, dp = _p_and_dp(spec, z)
            for size in (1, 2, 3, 17):
                got = [_p_and_dp(spec, z[k : k + size]) for k in range(0, z.size, size)]
                assert np.array_equal(np.concatenate([g[0] for g in got]), p)
                assert np.array_equal(np.concatenate([g[1] for g in got]), dp)
            for shift in (1, 3):
                ps, dps = _p_and_dp(spec, z[shift:])
                assert np.array_equal(ps, p[shift:]) and np.array_equal(dps, dp[shift:])
            p2, dp2 = _p_and_dp(spec, z[:700].reshape(7, 100))
            assert np.array_equal(p2, p[:700].reshape(7, 100)) and np.array_equal(dp2, dp[:700].reshape(7, 100))
            for k in (0, 350, 700):
                assert eval_p(spec, np.asarray(z[k])) == p[k]

    def test_matches_exact_sums(self):
        # each sum of n terms and p(inf) is within 8 (n + 2) eps of the sum of the terms' moduli (the
        # sizes).  The bound counts rounding relative to each term; beside an atom, where |d_k| is small,
        # the rounding of d_k itself is relatively larger, by about 1 / |d_k|, and the bound does not hold.
        eps = np.finfo(float).eps
        z = disk_points(np.random.default_rng(42), 64, 0.999)
        for spec in kernel_specs():
            p, dp = _p_and_dp(spec, z)
            bound = 8 * (spec.n_atoms + 2) * eps
            for k in range(z.size):
                exact_p, exact_dp, size_p, size_dp = exact_p_and_dp(spec, complex(z[k]))
                assert exact_error(p[k], exact_p) <= bound * size_p
                assert exact_error(dp[k], exact_dp) <= bound * size_dp

    def test_rebuilt_spec_has_the_same_bits(self):
        # the constants are fixed when a spec is built, so every way of building it again gives the same p and p'
        z = disk_points(np.random.default_rng(44), 300, 0.999)
        for spec in kernel_specs():
            p, dp = _p_and_dp(spec, z)
            for copy in (spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))), pickle.loads(pickle.dumps(spec)),
                         dataclasses.replace(spec), dataclasses.replace(spec, gamma=spec.gamma)):
                assert copy == spec
                pc, dpc = _p_and_dp(copy, z)
                assert pc.tobytes() == p.tobytes() and dpc.tobytes() == dp.tobytes()

    def test_pole_guard_at_an_atom(self):
        # past |z| = 1 - 1e-13 the guard checks every denominator, alone or among other points
        spec = kernel_specs()[3]
        theta = spec.atoms[4][0]
        z = 0.5 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 3000))
        for on_atom in (np.exp(1j * theta), (1 - 1e-15) * np.exp(1j * theta)):
            z[2500] = on_atom
            for zz in (z, z[2500:2600], z[2500:2501]):
                with pytest.raises(DomainError):
                    _p_and_dp(spec, zz)


def p_prime(spec, z) -> complex:
    """p'(z) at one point, from the kernel pass that also gives p."""
    return complex(_p_and_dp(spec, np.asarray(z, dtype=complex))[1])


class TestEvalPPrime:
    def test_single_atom_at_zero(self, single_atom):
        # d/dz (1+z)/(1-z) = 2/(1-z)^2 -> 2 at z = 0
        assert p_prime(single_atom, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_constant_is_zero(self, constant_one):
        for z in (0.0, 0.5, 0.3 - 0.6j):
            assert p_prime(constant_one, z) == 0.0

    def test_derivative_at_zero_formula(self):
        spec = GeneratorSpec(atoms=((0.7, 1.0), (4.0, 3.0)), a=0.1, scale=0.8, gamma=0.2)
        expected = 2 * spec.scale * sum(w * np.exp(-1j * t) for t, w in spec.atoms)
        assert p_prime(spec, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_matches_finite_differences(self, random_specs):
        h = 1e-6
        rng = np.random.default_rng(6)
        for spec in random_specs[:10]:
            for z in disk_points(rng, 20, r_max=0.9):
                fd = (eval_p(spec, z + h) - eval_p(spec, z - h)) / (2 * h)
                exact = p_prime(spec, z)
                assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact))


class TestValueDisk:
    def test_r_zero_is_point_q(self, random_specs):
        for spec in random_specs[:5]:
            center, radius = value_disk(spec, 0.0)
            assert center == pytest.approx(spec.q)
            assert radius == 0.0

    def test_reference_case(self, single_atom):
        # q = 1, a = 0, r = 1/2: center (1 + 1/4)/(3/4) = 5/3, radius 1/(3/4) = 4/3
        center, radius = value_disk(single_atom, 0.5)
        assert center == pytest.approx(5 / 3, abs=1e-14)
        assert radius == pytest.approx(4 / 3, abs=1e-14)

    def test_constant_spec_radius_zero(self):
        spec = GeneratorSpec(atoms=((1.0, 1.0),), a=0.4, scale=0.0, gamma=0.3)
        for r in (0.0, 0.3, 0.9):
            assert value_disk(spec, r)[1] == 0.0

    def test_membership_sampled(self, random_specs):
        for spec in random_specs[:8]:
            for r in (0.2, 0.7, 0.95):
                center, radius = value_disk(spec, r)
                ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
                vals = eval_p(spec, r * np.exp(1j * ang))
                assert np.all(np.abs(vals - center) <= radius + 1e-10)

    def test_single_atom_boundary_tightness(self, single_atom):
        # real z on the atom axis lands on the disk boundary
        for r in (0.1, 0.5, 0.9):
            center, radius = value_disk(single_atom, r)
            p = eval_p(single_atom, r)
            assert abs(abs(p - center) - radius) <= 1e-10

    def test_domain_error(self, single_atom):
        with pytest.raises(DomainError):
            value_disk(single_atom, 1.0)


def test_radius_arrays_give_the_scalar_calls_bit_for_bit(random_specs):
    # value_disk and harnack_bounds on an array of radii, each entry against its scalar call and against the
    # scalar call's formula in Python's complex arithmetic
    r = np.concatenate([[0.0, 1 - 1e-9, 0.999, 0.1], np.random.default_rng(9).uniform(0.0, 1.0, 20)]).reshape(6, 4)
    specs = random_specs + [GeneratorSpec(atoms=((1.0, 1.0),), a=0.4, scale=0.0, gamma=-0.3)]
    for spec in specs:
        center, radius = value_disk(spec, r)
        lo, hi = harnack_bounds(spec, r)
        assert center.shape == radius.shape == lo.shape == hi.shape == r.shape
        scalars = [value_disk(spec, x) + harnack_bounds(spec, x) for x in r.ravel().tolist()]
        assert all(type(c) is complex and type(d) is type(l) is type(h) is float for c, d, l, h in scalars)
        q = spec.q
        python = [(q + x * x * q.conjugate() - 2.0 * spec.a * x * x) / (1.0 - x * x) for x in r.ravel().tolist()]
        for got, column in zip((center, radius, lo, hi), zip(*scalars)):
            assert got.ravel().tobytes() == np.array(column).tobytes()
        assert center.ravel().tobytes() == np.array(python).tobytes()


class TestHarnack:
    def test_r_zero(self, random_specs):
        for spec in random_specs[:5]:
            lo, hi = harnack_bounds(spec, 0.0)
            assert lo == pytest.approx(spec.q.real)
            assert hi == pytest.approx(spec.q.real)

    def test_reference_case(self, single_atom):
        lo, hi = harnack_bounds(single_atom, 0.5)
        assert lo == pytest.approx(1 / 3, abs=1e-14)
        assert hi == pytest.approx(3.0, abs=1e-14)

    def test_limit_toward_floor(self):
        spec = GeneratorSpec(atoms=((0.0, 1.0),), a=0.35, scale=1.1, gamma=0.0)
        lo, _ = harnack_bounds(spec, 1 - 1e-9)
        assert lo == pytest.approx(spec.a, abs=1e-6)

    def test_matches_disk_exactly(self, random_specs):
        # algebraic identity: (lo, hi) = Re(center) -/+ radius
        for spec in random_specs:
            for r in (0.1, 0.5, 0.9, 0.999):
                center, radius = value_disk(spec, r)
                lo, hi = harnack_bounds(spec, r)
                assert lo == pytest.approx(center.real - radius, abs=1e-12 * max(1, abs(hi)))
                assert hi == pytest.approx(center.real + radius, abs=1e-12 * max(1, abs(hi)))

    def test_sandwich_sampled(self, random_specs):
        for spec in random_specs[:8]:
            for r in (0.3, 0.8):
                lo, hi = harnack_bounds(spec, r)
                ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
                re = eval_p(spec, r * np.exp(1j * ang)).real
                assert np.all(re >= lo - 1e-10)
                assert np.all(re <= hi + 1e-10)
                assert lo >= spec.a - 1e-12


def test_representation_lower_bound_sweep():
    # 10^4 random (spec, z): Re p(z) >= a - 1e-10
    rng = np.random.default_rng(77)
    for i in range(100):
        spec = sample_generator(1000 + i)
        zs = 0.999 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        assert np.all(eval_p(spec, zs).real >= spec.a - 1e-10)


class TestSampler:
    def test_deterministic(self):
        assert sample_generator(1) == sample_generator(1)
        assert sample_generator(1) != sample_generator(2)

    def test_normalized_weights(self):
        for seed in range(20):
            spec = sample_generator(seed)
            assert sum(w for _, w in spec.atoms) == pytest.approx(1.0, abs=1e-12)
            assert all(0 <= t < 2 * math.pi for t, _ in spec.atoms)

    def test_floor_structure(self):
        spec = sample_generator(3, SampleConfig(a_range=(0.5, 1.0), scale_range=(0.1, 1.0)))
        assert spec.a > 0
        assert spec.q.real == pytest.approx(spec.a + spec.scale)
        assert spec.q.real > spec.a

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SampleConfig(max_atoms=0)
        with pytest.raises(ConfigError):
            SampleConfig(a_range=(-0.1, 1.0))
        with pytest.raises(ConfigError):
            SampleConfig(scale_range=(2.0, 1.0))


class TestSpecValidation:
    def test_weights_renormalized(self):
        spec = GeneratorSpec(atoms=((0.0, 2.0), (1.0, 6.0)))
        assert [w for _, w in spec.atoms] == pytest.approx([0.25, 0.75])

    def test_rejects_bad_data(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(atoms=())
        with pytest.raises(ConfigError):
            GeneratorSpec(atoms=((0.0, -1.0),))
        with pytest.raises(ConfigError):
            GeneratorSpec(atoms=((0.0, 1.0),), a=-0.2)
        with pytest.raises(ConfigError):
            GeneratorSpec(atoms=((0.0, 1.0),), scale=-1.0)
        with pytest.raises(ConfigError):
            GeneratorSpec(atoms=((0.0, float("nan")),))
        for atoms in ((0.0, 1.0), ((0.0, 1.0, 2.0),), 3):  # flat, a triple, not iterable
            with pytest.raises(ConfigError, match=r"^atoms must be \(theta, weight\) pairs: "):
                GeneratorSpec(atoms=atoms)

    def test_extremal_requires_req_ge_a(self):
        with pytest.raises(DomainError):
            extremal_generator(0.5, 0.6)


class TestJsonInterchange:
    def test_round_trip(self, tmp_path, random_specs):
        path = tmp_path / "spec.json"
        for spec in random_specs[:5]:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec_to_dict(spec), fh)
            assert load_spec(path) == spec

    def test_renormalizes_on_load(self):
        spec = spec_from_dict(
            {"atoms": [{"theta": 0.0, "weight": 3.0}], "a": 0.0, "scale": 1.0, "gamma": 0.0}
        )
        assert spec.atoms[0][1] == 1.0

    @pytest.mark.parametrize(
        "data",
        [
            {"atoms": [], "a": 0, "scale": 1, "gamma": 0},
            {"atoms": [{"theta": 0.0, "weight": -1.0}], "a": 0, "scale": 1, "gamma": 0},
            {"atoms": [{"theta": 0.0, "weight": float("nan")}], "a": 0, "scale": 1, "gamma": 0},
            {"atoms": [{"theta": 0.0}], "a": 0, "scale": 1, "gamma": 0},
            {"a": 0, "scale": 1, "gamma": 0},
            # the weights sum to inf and would normalise to 0, leaving Re p = a - scale
            {"atoms": [{"theta": 0.0, "weight": 1e308}, {"theta": 1.0, "weight": 1e308}], "a": 0, "scale": 1,
             "gamma": 0},
            # Re q = a + scale overflows
            {"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 1e308, "scale": 1e308, "gamma": 0},
            # integers no double holds
            {"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 10**400, "scale": 1, "gamma": 0},
            {"atoms": [{"theta": 10**400, "weight": 1.0}], "a": 0, "scale": 1, "gamma": 0},
            # a NaN weight beside a positive one reaches GeneratorSpec
            {"atoms": [{"theta": 0.0, "weight": 1.0}, {"theta": 1.0, "weight": float("nan")}], "a": 0,
             "scale": 1, "gamma": 0},
            {"atoms": [{"theta": 0.0, "weight": 0.0}], "a": 0, "scale": 1, "gamma": 0},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ConfigError):
            spec_from_dict(data)

    def test_drops_zero_weight_atoms(self):
        data = {"atoms": [{"theta": 0.0, "weight": 0.0}, {"theta": 1.0, "weight": 2.0}], "a": 0, "scale": 1,
                "gamma": 0}
        assert spec_from_dict(data).atoms == ((1.0, 1.0),)

    @pytest.mark.parametrize("key", ["a", "scale", "gamma"])
    @pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
    def test_rejects_non_numeric_scalars(self, key, value):
        data = {"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 0.0, "scale": 1.0, "gamma": 0.0}
        data[key] = value
        with pytest.raises(ConfigError, match=key):
            spec_from_dict(data)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_dict_schema(self, single_atom):
        data = spec_to_dict(single_atom)
        assert json.dumps(data)  # serializable
        assert set(data) == {"atoms", "a", "scale", "gamma"}
        assert set(data["atoms"][0]) == {"theta", "weight"}
