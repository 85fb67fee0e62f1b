"""Hand values for the benchmark's own reference computations and span bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref


def test_single_atom_resolvent_at_lambda_one_is_z_over_two_plus_z():
    z = np.array([0.5, -0.3 + 0.4j, 0.999j, -0.999])
    assert np.allclose(ref.single_atom_resolvent(1.0, z), z / (2.0 + z), rtol=0, atol=1e-15)


@pytest.mark.parametrize("lam", [0.02, 0.5, 1.999, 2.0, 7.0, 50.0])
def test_single_atom_resolvent_solves_the_equation_inside_the_disk(lam):
    rng = np.random.default_rng(3)
    z = 0.999 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    w = ref.single_atom_resolvent(lam, z)
    p = ref.p_atoms([0.0], [1.0], 0.0, 1.0, 0.0, w)
    assert np.all(np.abs(w) <= np.abs(z) * (1 + 1e-12))
    assert np.max(np.abs(w * (1 + lam * p) - z)) < 1e-12


def test_p_atoms_single_atom_and_constant():
    z = np.array([0.3, 0.2 - 0.7j])
    assert np.allclose(ref.p_atoms([0.0], [1.0], 0.0, 1.0, 0.0, z), (1 + z) / (1 - z), atol=1e-15)
    # weights are normalised; scale 0 leaves the constant a + i gamma
    assert np.allclose(ref.p_atoms([1.0, 2.0], [3.0, 1.0], 0.4, 0.0, -0.2, z), 0.4 - 0.2j)
    two = ref.p_atoms([0.0, math.pi], [2.0, 2.0], 0.0, 1.0, 0.0, z)
    assert np.allclose(two, 0.5 * ((1 + z) / (1 - z) + (1 - z) / (1 + z)), atol=1e-15)


def test_distortion_hand_values():
    # q = 1, a = 0: 1 up to lambda = 2, then 1/|1 - lambda|
    assert ref.distortion(1.0 + 0j, 0.0, 1.5) == pytest.approx(1.0, abs=1e-15)
    assert ref.distortion(1.0 + 0j, 0.0, 3.0) == pytest.approx(0.5, abs=1e-15)
    assert ref.est1(1.0 + 0j, 3.0) == pytest.approx(0.5, abs=1e-15)
    # q = 1, a = 1 (p == 1): A + sqrt(B) = 2 (1 + lam)^2, the linear resolvent's 1/(1 + lam)
    for lam in (0.5, 1.0, 4.0):
        assert ref.distortion(1.0 + 0j, 1.0, lam) == pytest.approx(1.0 / (1.0 + lam), abs=1e-15)
    assert ref.a_lambda(1.0 + 0j, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_d_lambda_hand_values():
    for lam in (0.1, 1.0, 20.0):
        assert ref.d_lambda(1.0 + 0j, 1.0, lam) == pytest.approx(1.0 / (1.0 + lam), abs=1e-14)
    # single atom at lambda = 1: the floor is (1 - tau)/2, smallest at tau = 1 - 1e-9
    assert ref.d_lambda(1.0 + 0j, 0.0, 1.0) == pytest.approx(5e-10, abs=1e-15)


def test_starlikeness_constants():
    q, a, lam = 1.3 - 0.2j, 0.4, 2.5
    rs = ref.rho_star(q, a, lam)
    assert ref.t_bound(lam * (q.real - a), lam * a, rs) == pytest.approx(1.0, abs=1e-14)
    assert ref.rho_star(1.0 + 0j, 1.0, 3.0) == 1.0
    assert ref.t_star(1.0) == pytest.approx(5.0 / 9.0, abs=1e-16)
    assert ref.m1(1.0 + 0j, 0.0) == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-15)
    assert ref.t_star(1.0 + math.sqrt(5.0)) == pytest.approx(0.0, abs=1e-15)
    certified, rho, order, strong, refined = ref.order(1.0 + 0j, 0.5, 3.0)
    assert certified[1] == "i" and refined
    assert order == certified[0] == pytest.approx(1.0 / (1.0 + ref.t_bound(1.5, 1.5, rho)))


def test_koebe_flow_solves_the_ode():
    z0, t, h = 0.5 - 0.2j, 0.7, 1e-5
    assert ref.koebe_flow(z0, 0.0) == pytest.approx(z0, abs=1e-15)
    u = ref.koebe_flow(z0, t)
    du = (ref.koebe_flow(z0, t + h) - ref.koebe_flow(z0, t - h)) / (2 * h)
    assert abs(du + (1 + u) / (1 - u) * u) < 1e-8
    assert abs(u) < abs(z0)


def test_product_formula_gaps():
    assert ref.constant_gap(1.0, 0.5, 1.0, 1) == pytest.approx(0.5 * abs(0.5 - math.exp(-1.0)), abs=1e-16)
    assert ref.constant_gap(2.0, 0.5, 0.0, 4) == 0.0
    gaps = [ref.single_atom_gap(0.4 + 0.1j, 1.0, n) for n in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / gaps[-2] == pytest.approx(0.5, abs=0.02)
    # n = 1 is one resolvent step of length t
    one = ref.single_atom_resolvent(1.0, 0.4 + 0.1j)
    assert ref.single_atom_gap(0.4 + 0.1j, 1.0, 1) == pytest.approx(abs(one - ref.koebe_flow(0.4 + 0.1j, 1.0)))


def test_import_times_attributes_nested_imports_once():
    from workloads import import_times

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       400 |        450 |       scipy",
        "import time:        10 |        460 |     scipy.optimize",
        "import time:        30 |        790 |   resolvent_lab.bounds",
        "import time:        10 |        800 | resolvent_lab",
        "import time:         5 |          5 | cmath",
    ])
    assert import_times(text) == pytest.approx({"resolvent_lab": 800e-6, "numpy": 300e-6, "scipy": 460e-6})


def test_self_time_excludes_child_spans():
    import spans
    from resolvent_lab import herglotz, starlike

    original = starlike.starlike_functional_grid
    tracer = spans.Tracer()
    tracer.install()
    try:
        starlike.starlike_functional_grid(herglotz.extremal_generator(1.0, 0.0), 1.0, np.array([0.5, 0.3j]))
    finally:
        tracer.uninstall()
    assert starlike.starlike_functional_grid is original
    child, parent = tracer.spans
    assert (child.layer, parent.layer) == ("resolvent.grid", "starlike.functional_grid")
    assert child.parent is parent and child.counts["points"] == 2
    assert parent.self_s == pytest.approx(parent.end - parent.start - (child.end - child.start), abs=1e-12)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
