"""Closed forms the benchmark checks the library against.

Everything here is written from the formulas of the paper and the
definitions of the generator class, without importing resolvent_lab, so a
fault in the library cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def p_atoms(thetas, weights, a, scale, gamma, z):
    """p(z) = scale * sum_k m_k (1 + z conj(zeta_k)) / (1 - z conj(zeta_k)) + a + i gamma.

    Weights are normalised here, as the generator class prescribes.
    """
    m = np.asarray(weights, dtype=float)
    m = m / m.sum()
    cz = np.exp(-1j * np.asarray(thetas, dtype=float))
    u = np.multiply.outer(np.asarray(z, dtype=complex), cz)
    return scale * (((1.0 + u) / (1.0 - u)) @ m) + complex(a, gamma)


def ab(q, a, lam):
    """A = |1 - lam q|^2 + 4 lam a + 1 and B = (|1 - lam q|^2 - 1)^2 + 8 lam^3 a |q|^2."""
    m = abs(1.0 - lam * q) ** 2
    return m + 4.0 * lam * a + 1.0, (m - 1.0) ** 2 + 8.0 * lam**3 * a * abs(q) ** 2


def distortion(q, a, lam):
    """Sharp bound sqrt(2 / (A + sqrt(B))) on |G_lambda(z)| / |z|."""
    A, B = ab(q, a, lam)
    return math.sqrt(2.0 / (A + math.sqrt(B)))


def a_lambda(q, a, lam):
    """Accretivity floor (1 - distortion) / lambda of f o G_lambda."""
    return (1.0 - distortion(q, a, lam)) / lam


def _g_floor(q, a, lam, tau):
    """min Re 1/(1 + lam p) over |w| = tau, from the value disk of p at radius tau."""
    s = 1.0 - tau * tau
    centre = 1.0 + lam * (q + tau * tau * q.conjugate() - 2.0 * a * tau * tau) / s
    radius = lam * 2.0 * tau * (q.real - a) / s
    return (centre.real - radius) / (abs(centre) ** 2 - radius * radius)


def d_lambda(q, a, lam):
    """Accretivity floor of G_lambda: min of the floor over tau in [0, distortion].

    A 4097-point scan followed by a golden-section search in the cell
    around the smallest sample.
    """
    q = complex(q)
    top = min(distortion(q, a, lam), 1.0 - 1e-9)
    n = 4096
    vals = [_g_floor(q, a, lam, top * k / n) for k in range(n + 1)]
    i = min(range(n + 1), key=vals.__getitem__)
    lo, hi = top * max(i - 1, 0) / n, top * min(i + 1, n) / n
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = _g_floor(q, a, lam, x1), _g_floor(q, a, lam, x2)
    for _ in range(80):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = _g_floor(q, a, lam, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = _g_floor(q, a, lam, x2)
    return min(vals[i], f1, f2)


def t_bound(alpha, beta, r):
    """Deviation bound T(r) = 2 alpha r / ((1 + beta)(1 - r)^2 + alpha (1 - r^2))."""
    if alpha == 0.0:
        return 0.0
    return 2.0 * alpha * r / ((1.0 + beta) * (1.0 - r) ** 2 + alpha * (1.0 - r * r))


def rho_star(q, a, lam):
    """Radius at which T reaches 1."""
    s = math.sqrt(1.0 + lam * q.real)
    return s / (math.sqrt(2.0 * lam * (q.real - a)) + s)


def m1(q, a):
    return (math.sqrt(5.0 * q.real**2 - 4.0 * a * q.real) + q.real - 2.0 * a) / ((q.real + a) * q.real)


def m2(q, lam):
    s = lam * q.real
    return ((s + 1.0) * math.sqrt(2.0 * s * s + 4.0 * s + 1.0) + s * s + s - 1.0) / (lam * (2.0 + s) ** 2)


def est1(q, lam):
    """Distortion bound for a = 0 in piecewise form."""
    if lam * abs(q) ** 2 <= 2.0 * q.real:
        return 1.0
    return 1.0 / abs(1.0 - lam * q)


def t_star(s):
    """Boundary (4 + 2s - s^2) / (2 + s)^2 of the certified (s, a/q) region."""
    return (4.0 + 2.0 * s - s * s) / (2.0 + s) ** 2


def order(q, a, lam):
    """What `order` reports: the certified order, if any, and the orders from rho = distortion."""
    rho = distortion(q, a, lam)
    alpha, beta = lam * (q.real - a), lam * a
    t = min(t_bound(alpha, beta, rho), 1.0)
    certified = None
    if lam * abs(q) ** 2 >= 2.0 * q.real:
        if lam > m1(q, a):
            certified = (1.0 / (1.0 + t), "i")
    elif a > m2(q, lam):
        certified = (1.0 / (1.0 + t), "ii")
    if rho <= rho_star(q, a, lam):
        return certified, rho, 1.0 / (1.0 + t), 2.0 * math.asin(t) / math.pi, True
    return certified, rho, 0.5, 1.0, False


def single_atom_resolvent(lam, z):
    """G_lambda(z) for p(z) = (1 + z)/(1 - z): the root of

    (lam - 1) w^2 + (1 + lam + z) w - z = 0 with |w| <= |z|.
    Works elementwise on arrays; at lam = 1 it is w = z / (2 + z).
    """
    z = np.asarray(z, dtype=complex)
    b = 1.0 + lam + z
    c = lam - 1.0
    root = np.sqrt(b * b + 4.0 * c * z)
    root = np.where((np.conj(b) * root).real < 0.0, -root, root)
    # 2z / (b + root) is the small root, free of cancellation at c = 0
    return 2.0 * z / (b + root)


def koebe_flow(z0, t):
    """Flow of p(z) = (1 + z)/(1 - z) at time t: u / (1 + u)^2 = e^-t z0 / (1 + z0)^2."""
    c = math.exp(-t) * z0 / (1.0 + z0) ** 2
    # c u^2 + (2c - 1) u + c = 0; the roots multiply to 1, one lies in the disk
    b = 2.0 * c - 1.0
    root = cmath.sqrt(b * b - 4.0 * c * c)
    big = (-b - root) if abs(-b - root) >= abs(-b + root) else (-b + root)
    return 2.0 * c / big


def constant_gap(q, z0, t, n):
    """Product-formula gap for p == q: |z0 (1 + q t/n)^-n - z0 e^-qt|."""
    return abs(z0 * (1.0 + q * t / n) ** (-n) - z0 * cmath.exp(-q * t))


def single_atom_gap(z0, t, n):
    """Product-formula gap for p(z) = (1 + z)/(1 - z), both sides in closed form."""
    w = complex(z0)
    for _ in range(n):
        w = complex(single_atom_resolvent(t / n, w))
    return abs(w - koebe_flow(complex(z0), t))
