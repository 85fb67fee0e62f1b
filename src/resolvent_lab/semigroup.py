"""Flow of the generator: du/dt + p(u) u = 0, and the product formula.

For Re p >= a >= 0 the solution decays like |u(t)| <= e^(-a t) |z0| (the
squeezing envelope) and stays inside the disk.

Both flows share one form.  The composed flow of f o G_lambda runs in
w = G_lambda(u), where u = H(w) = w (1 + lambda p(w)) and H' is the F' of
the resolvent equation, so it does not vanish:
dw/dt = -p(w) w / (1 + lambda p(w) + lambda p'(w) w).  One solve gives
w0 = G_lambda(z0), and H maps the trajectory back to u.  The plain flow is
lambda = 0, where w is u.

The flow is exact, through the Koenigs linearisation (Berkson & Porta,
Michigan Math. J. 1978; Reich & Shoikhet 2005).  With zeta_k the atom
directions, p(u) = p(infinity) + sum_k A_k / (u - zeta_k), where
p(infinity) = a - scale + i gamma and A_k = -2 scale m_k zeta_k, so

    1 / (u p(u)) - 1 / (q u) = h'(u),  h(u) = poly(u) + sum_j rho_j log(1 - u / r_j),

where r_j are the zeros of p (all with |r_j| >= 1, so each principal log is
analytic in the disk) and rho_j = 1 / (r_j p'(r_j)).  With
kappa = q / (1 + lambda q) and phi = h + lambda log p, the function
K(w) = w e^(kappa phi(w)) satisfies K(w(t)) = K(w0) e^(-kappa t), so each
sample time is one root of

    G(w) = w e^(kappa (phi(w) - phi(w0))) - w0 e^(-kappa t),
    G'(w) = e^(kappa (phi(w) - phi(w0))) kappa (1 + lambda p + lambda p' w) / p,

and a Newton step needs only p and p'.  All sample times share one guarded
Newton iteration.  It starts from a guess that slides from w0 e^(-kappa t)
(right near w0) to the linearisation of K at 0 (right for small w); a step
is accepted only inside the trust disk |w| <= |w0| + 1e-12 and only when
it lowers |G|, halving it otherwise.  A time that misses restarts from the converged
point before it; if that misses too, IntegrationError carries the
converged prefix.

``_koenigs_terms`` builds h once per generator:

* Zeros.  They are the reciprocals of the eigenvalues of an arrowhead
  pencil in the partial-fraction form of p, not roots of the polynomial
  p prod_k (1 - u conj(zeta_k)), whose monomial coefficients lose up to
  seven digits of h' at 50 evenly spaced atoms and all of them at 100;
  the pencil keeps h' to about 1e-15 there.  Every isolated zero is polished
  with Newton steps on p.
* Zeros at or near infinity and the polynomial part.  When p(infinity) is
  zero, p has fewer finite zeros and 1 / (u p) has a polynomial part; when
  it is near zero, p has a huge zero.  Zeros beyond ``_HUGE_ROOT`` are not
  log terms: ``poly`` is the Taylor series at 0 of everything but the
  other terms, from the power series of 1 / p.  It converges like
  _HUGE_ROOT^-k, holds an exact polynomial part exactly, and never
  subtracts a huge rho_j from the polynomial part.  The zeros at infinity
  are counted from the leading terms of p's expansion there that vanish to
  rounding, because their eigenvalues scatter around 0 by eps^(1/m).
* Near-double zeros (confluent terms).  Two zeros closer than
  ``_PAIR_GAP`` |r| carry rho_j of order 1 / |r_1 - r_2| and opposite sign.
  Such a pair enters in divided-difference form, g(r_1) l[r_1, r_2] +
  g[r_1, r_2] l(r_2) with l(r) = log(1 - u / r) and g = rho (r_1 - r_2),
  which is exact at any separation and tends to the confluent
  (double-zero) terms as the pair closes.  Every divided difference is a
  sum over the atoms with no cancellation between the pair.  A pair is not
  polished: the eigenvalues place it backward stably, and Newton on p
  would not.  Three or more zeros within that distance are not grouped
  further.
* A check.  h' is compared with 1 / (u p) - 1 / (q u) on a circle, and a
  flow refuses a generator whose relative error there exceeds
  ``_TERMS_TOL`` rather than return a wrong trajectory.

The n-fold resolvent composition G_{t/n} o ... o G_{t/n} approximates the
flow at time t with an O(1/n) gap (the product formula).  ``ladder_gaps``
is its one entry point: a ladder of n values shares one flow endpoint and
composes all its rungs together, one grid solve per step, and one n is a
one-rung ladder.

A flow's cost does not depend on t_end: both integrators take any finite
t_end >= 0 (far out, w0 e^(-kappa t) underflows to 0) and n_eval >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, IntegrationError, _check_count, _check_lambda, _check_points
# eval_p is not called here: perfbench's traced run wraps it in this
# namespace, and tests/test_bindings.py pins every name that run looks up.
from .herglotz import GeneratorSpec, _atom_arrays, _p_and_dp, eval_p  # noqa: F401
from .resolvent import iterate_resolvent, solve_resolvent

# A start whose integration variable w lies this close to an atom direction
# (|1 - w conj(zeta)| at or below the threshold) is refused with an
# IntegrationError: p and its logarithm are ill-conditioned there.
POLE_PROXIMITY = 5e-4

_EPS = np.finfo(float).eps
# Newton rounds per sample time, and halvings of a step that does not lower |G|.
_MAX_NEWTON = 60
_MAX_BACKTRACK = 30
# A sample time has converged once |G| or the Newton correction is within
# this many rounding errors (see _settled).
_TOL_ULPS = 64
# Targets w0 e^(-kappa t) below this are underflow, not flow.
_TINY = 1e-300
# Zeros of p beyond this modulus go into the Taylor part of h, whose
# coefficients then fall like _HUGE_ROOT^-k; _TAYLOR_EXTRA terms past the
# degree of the polynomial part take them below eps.
_HUGE_ROOT = 1e3
_TAYLOR_EXTRA = 8
# Two zeros of p closer than this times their modulus form a near-double pair.
_PAIR_GAP = 1e-2
_POLISH_STEPS = 4
# h' is checked against 1 / (u p) - 1 / (q u) on this circle, and a flow refuses a generator whose
# relative error there exceeds _TERMS_TOL (2000 sample_generator draws and 100 atoms: below 1e-14).
_PROBE = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
_TERMS_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the flow started at z0.

    |points| is non-increasing (a >= 0) and |points[k]| <= |z0| throughout.
    """

    times: np.ndarray
    points: np.ndarray
    z0: complex

    def envelope(self, a: float) -> np.ndarray:
        """Squeezing envelope e^(-a t) |z0| along the stored times."""
        return np.exp(-a * self.times) * abs(self.z0)

    @property
    def endpoint(self) -> complex:
        return complex(self.points[-1])


@dataclass(frozen=True)
class _Koenigs:
    """h(u) = polyval(poly, u) + sum rho log(1 - u / roots) + sum pair_g l[pair_r1, pair_r2](u).

    ``error`` is the measured relative error of h' (see _koenigs_terms).
    """

    roots: np.ndarray
    rho: np.ndarray
    pair_r1: np.ndarray
    pair_r2: np.ndarray
    pair_g: np.ndarray
    poly: np.ndarray
    error: float


def _near_pairs(roots):
    """Split roots into isolated ones and near-double pairs, closest pairs first."""
    roots, pairs = list(roots), []
    while True:
        gaps = [(abs(r - s), i, j) for i, r in enumerate(roots) for j, s in enumerate(roots[:i])
                if abs(r - s) < _PAIR_GAP * max(abs(r), abs(s))]
        if not gaps:
            return np.array(roots, dtype=complex), pairs
        _, i, j = min(gaps)
        pairs.append((roots[i], roots[j]))
        del roots[i], roots[j]


@lru_cache(maxsize=4096)
def _koenigs_terms(spec: GeneratorSpec) -> _Koenigs:
    """The terms of h for one generator (see the module docstring); cached per spec like _atom_arrays."""
    empty = np.zeros(0, dtype=complex)
    if spec.scale == 0.0:  # p == q, h == 0
        return _Koenigs(empty, empty, empty, empty, empty, np.zeros(1, dtype=complex), 0.0)
    weights, conj_zetas = _atom_arrays(spec)
    zetas, n = 1.0 / conj_zetas, conj_zetas.size
    # p(u) = d + sum_k A_k / (u - zeta_k), since (1 + x) / (1 - x) = 2 / (1 - x) - 1; scaled by sigma
    d = complex(spec.a, spec.gamma) - spec.scale
    A = -2.0 * spec.scale * weights * zetas
    sigma = abs(d) + np.abs(A).sum()
    d, A = d / sigma, A / sigma

    def p_dp(u):
        inv = 1.0 / (np.asarray(u)[..., None] - zetas)
        return d + inv @ A, -(inv * inv) @ A

    # p(u) = 0 with y_k = A_k / (u - zeta_k) is M [1; y] = u N [1; y]; C = M^-1 N has the eigenvalues 1 / r_j
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0, 0], M[0, 1:], M[1:, 0] = -d, -1.0, A
    M[1:, 1:] = np.diag(zetas)
    mu = np.linalg.eigvals(np.linalg.solve(M, np.diag(np.r_[0.0, np.ones(n)])))
    # p has as many zeros at infinity as leading terms of its expansion there, d + sum_j (sum_k A_k
    # zeta_k^j) / u^(j+1), that are zero to rounding; their eigenvalues scatter around 0 by eps^(1/m)
    moments = np.abs(np.r_[d, (A * zetas ** np.arange(n)[:, None]).sum(axis=1)]) > 8 * _EPS
    at_infinity = int(np.argmax(moments)) if moments.any() else n
    all_roots = 1.0 / mu[np.argsort(-np.abs(mu))][:n - at_infinity]
    roots, pairs = _near_pairs(all_roots[np.abs(all_roots) <= _HUGE_ROOT])
    for _ in range(_POLISH_STEPS):
        pr, dpr = p_dp(roots)
        cand = roots - pr / dpr
        roots = np.where(np.abs(p_dp(cand)[0]) < np.abs(pr), cand, roots)
    # p has no zero inside the disk, so a root that rounding put there belongs on the circle
    roots = np.where(np.abs(roots) < 1.0, roots / np.abs(roots), roots)
    rho = list(1.0 / (roots * p_dp(roots)[1]) / sigma)
    pair_g = []
    for r1, r2 in pairs:
        # near the pair p = (u - r1)(u - r2) f with f(u) = p[u, r1, r2] = sum A / ((u - zeta)(r1 - zeta)(r2 - zeta)),
        # so rho_1 = g(r1) / (r1 - r2) with g = 1 / (u f), and (u f)[r1, r2] = r1 f[r1, r2] + f(r2)
        c = A / ((r1 - zetas) * (r2 - zetas))
        b1, b2 = r1 * np.sum(c / (r1 - zetas)), r2 * np.sum(c / (r2 - zetas))
        bdd = -r1 * np.sum(c / ((r1 - zetas) * (r2 - zetas))) + b2 / r2
        pair_g.append(1.0 / b1 / sigma)
        rho.append(-bdd / (b1 * b2) / sigma)  # g[r1, r2] l(r2): an ordinary term at r2
    rho = np.array(rho, dtype=complex)
    log_roots = np.r_[roots, [r2 for _, r2 in pairs]].astype(complex)
    pair_r1 = np.array([r1 for r1, _ in pairs], dtype=complex)
    pair_g = np.array(pair_g, dtype=complex)

    # Taylor coefficients at 0 of 1 / (u p) - 1 / (q u), less the terms above: with p = q + sum_k c_k u^k,
    # c_k = 2 scale sum_j m_j conj(zeta_j)^k, the series b of 1 / p follows from q b_k = -sum_i c_i b_(k-i)
    n_terms = n + _TAYLOR_EXTRA
    powers = np.arange(1, n_terms + 1)
    c = 2.0 * spec.scale * (conj_zetas ** powers[:, None]) @ weights
    b = np.zeros(n_terms + 1, dtype=complex)
    b[0] = 1.0 / spec.q
    for k in range(1, n_terms + 1):
        b[k] = -(c[:k] @ b[k - 1::-1]) / spec.q
    series = b[1:] + (rho[:, None] * log_roots[:, None] ** -powers.astype(float)).sum(axis=0)
    for r1, (_, r2), g in zip(pair_r1, pairs, pair_g):
        # u^k coefficient of l[r1, r2]' = 1 / ((u - r1)(u - r2)): sum_i r1^(-i-1) r2^(i-k-1)
        series -= g * np.array([np.sum(r1 ** -np.arange(1.0, k + 2) * r2 ** (np.arange(k + 1.0) - k - 1))
                                for k in range(n_terms)])
    poly = np.polyint(series[::-1])
    # coefficients at the rounding level of h's terms are zeros; often all of them are
    significant = np.abs(poly) > _EPS * (np.abs(rho).sum() + np.abs(b).max())
    poly = poly[np.argmax(significant):] if significant.any() else np.zeros(1, dtype=complex)
    pair_r2 = log_roots[roots.size:]

    # h' against (1 / p - 1 / q) / u on the probe circle, relative to the largest |1 / (u p)| there
    u = _PROBE
    inv_p = 1.0 / p_dp(u)[0] / sigma
    dh = (np.polyval(np.polyder(poly), u) + (1.0 / (u[:, None] - log_roots)) @ rho
          + (1.0 / ((u[:, None] - pair_r1) * (u[:, None] - pair_r2))) @ pair_g)
    error = float(np.max(np.abs(dh - (inv_p - 1.0 / spec.q) / u)) / np.max(np.abs(inv_p / u)))
    return _Koenigs(log_roots, rho, pair_r1, pair_r2, pair_g, poly, error)


def _log1p(x):
    """log(1 + x) for complex x, accurate for small |x| (numpy's complex log1p is not) and near x = -1.

    |1 + x|^2 is 1 + re (re + 2) + im^2 for |x| < 1/2, through log1p, and
    (1 + re)^2 + im^2 otherwise, where 1 + re is exact and nothing cancels.
    """
    re, im = x.real, x.imag
    small = np.abs(x) < 0.5
    far = np.log(np.where(small, 1.0, (1.0 + re) ** 2 + im * im))
    return 0.5 * np.where(small, np.log1p(np.where(small, re * (re + 2.0) + im * im, 0.0)), far) \
        + 1j * np.arctan2(im, 1.0 + re)


def _phi(spec, lam, w):
    """p(w), p'(w) and phi(w) = h(w) + lambda log p(w) on a flat array of points."""
    terms = _koenigs_terms(spec)
    p, dp = _p_and_dp(spec, w)
    phi = np.log(1.0 - np.multiply.outer(w, 1.0 / terms.roots)) @ terms.rho
    if terms.poly.size > 1:
        phi = phi + np.polyval(terms.poly, w)
    if terms.pair_r1.size:
        u = w[:, None]
        y = u / (terms.pair_r1 * (terms.pair_r2 - u))  # l[r1, r2](u) = log1p(x) / x * y
        x = y * (terms.pair_r1 - terms.pair_r2)
        x[np.abs(x) < _TINY] = 0.0  # log1p(x) / x is 1 there, and dividing by a subnormal x overflows
        nonzero = np.where(x == 0.0, 1.0, x)
        phi = phi + (np.where(x == 0.0, 1.0, _log1p(nonzero) / nonzero) * y) @ terms.pair_g
    if lam:
        phi = phi + lam * np.log(p)
    return p, dp, phi


def _settled(kappa, lam, w, p, dp, phi, phi0, G, target):
    """Which points are done, and G'(w).

    A point is done once |G| is within the rounding error of G, or once the
    Newton correction |G / G'| is within that relative error of w, which
    holds where G is steep (w near a zero of p).  G is rounded like its
    exponent kappa (phi - phi0), to about eps |kappa| (|phi| + |phi0|).
    """
    rel = _TOL_ULPS * _EPS * (1.0 + abs(kappa) * (np.abs(phi) + abs(phi0)))
    slope = np.exp(kappa * (phi - phi0)) * kappa * (1.0 + lam * (p + dp * w)) / p
    aG = np.abs(G)
    return (aG <= rel * np.abs(target) + _TINY) | (aG <= rel * np.abs(w * slope)), slope


def _newton(spec, lam, kappa, w0, phi0, target, guess):
    """Guarded Newton on G for every target at once; returns w, p(w) and which points converged.

    A point stops once _settled, or once no step, however halved, lowers
    |G|.  A candidate far from the root may overflow exp; its |G| is then
    inf or NaN, which the descent test rejects.
    """
    cap = abs(w0) + 1e-12
    w = guess.copy()
    p, dp, phi = _phi(spec, lam, w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G = w * np.exp(kappa * (phi - phi0)) - target
        done, slope = _settled(kappa, lam, w, p, dp, phi, phi0, G, target)
        idx = np.flatnonzero(~done)
        for _ in range(_MAX_NEWTON):
            if idx.size == 0:
                break
            wa, Ga, step = w[idx], G[idx], G[idx] / slope[idx]
            t = np.ones(idx.size)
            pending = np.ones(idx.size, dtype=bool)
            for _bt in range(_MAX_BACKTRACK):
                cand = wa - t * step
                test = np.flatnonzero(pending & (np.abs(cand) <= cap))
                if test.size:
                    pc, dpc, phic = _phi(spec, lam, cand[test])
                    Gc = cand[test] * np.exp(kappa * (phic - phi0)) - target[idx[test]]
                    good = np.abs(Gc) < np.abs(Ga[test])
                    k = idx[test[good]]
                    w[k], p[k], dp[k], phi[k], G[k] = cand[test[good]], pc[good], dpc[good], phic[good], Gc[good]
                    pending[test[good]] = False
                if not pending.any():
                    break
                t[pending] *= 0.5
            idx = idx[~pending]  # a point with no descent left stops
            done, slope[idx] = _settled(kappa, lam, w[idx], p[idx], dp[idx], phi[idx], phi0, G[idx], target[idx])
            idx = idx[~done]
        return w, p, _settled(kappa, lam, w, p, dp, phi, phi0, G, target)[0]


def _flow(spec, lam, z0, t_end, n_eval):
    """Flow of f o G_lam from z0, solved in w and returned in u; lam = 0 is the plain flow.

    Both integrators check their inputs here; t_end = 0 returns z0.
    """
    z0, t_end = complex(_check_points(z0)), float(t_end)
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"t_end must be finite and >= 0, got {t_end}")
    n_eval = int(_check_count(n_eval, "n_eval", 2))
    start = Trajectory(times=np.array([0.0]), points=np.array([z0], dtype=complex), z0=z0)
    if t_end == 0.0:
        return start
    w0 = solve_resolvent(spec, lam, z0).w if lam else z0
    if spec.scale > 0.0:
        _, conj_zetas = _atom_arrays(spec)
        if float(np.min(np.abs(1.0 - w0 * conj_zetas))) <= POLE_PROXIMITY:
            raise IntegrationError("initial point is inside the pole-proximity zone", trajectory=start)
    error = _koenigs_terms(spec).error
    if not error <= _TERMS_TOL:
        raise IntegrationError(f"the Koenigs function of this generator is off by {error:.3g} relative "
                               f"(at most {_TERMS_TOL:g})", trajectory=start)
    times = np.linspace(0.0, t_end, n_eval)
    kappa = spec.q / (1.0 + lam * spec.q)
    if kappa == 0.0:  # q = 0 only for p == 0, where nothing moves
        return Trajectory(times=times, points=np.full(n_eval, z0), z0=z0)
    phi0 = complex(_phi(spec, lam, np.array([w0]))[2][0])
    with np.errstate(over="ignore", invalid="ignore"):  # kappa t can overflow where e^(-Re kappa t) is 0
        decay = np.where(np.exp(-kappa.real * times) == 0.0, 0.0, np.exp(-kappa * times))
    if not np.isfinite(decay).all():
        raise IntegrationError("Im(kappa) t overflows a double, so the flow has no phase", trajectory=start)
    target = w0 * decay
    # K(w) is w e^(kappa phi(w0)) near w0 and w e^(kappa phi(0)) near 0, phi(0) = lambda log q: the guess
    # slides from one to the other, pulled into the trust disk
    guess = target * np.exp(kappa * (phi0 - (lam * np.log(spec.q) if lam else 0.0)) * (1.0 - decay))
    big = np.abs(guess) > abs(w0)
    guess[big] *= abs(w0) / np.abs(guess[big])
    w, p, converged = _newton(spec, lam, kappa, w0, phi0, target, guess)
    for k in np.flatnonzero(~converged):
        wk, pk, ok = _newton(spec, lam, kappa, w0, phi0, target[k:k + 1], w[k - 1:k])
        if not ok[0]:
            prefix = w[:k] * (1.0 + lam * p[:k])
            prefix[0] = z0
            raise IntegrationError(f"root-find failed at t = {times[k]:.6g}",
                                   trajectory=Trajectory(times=times[:k], points=prefix, z0=z0))
        w[k], p[k] = wk[0], pk[0]
    points = w * (1.0 + lam * p)
    points[0] = z0
    return Trajectory(times=times, points=points, z0=z0)


def integrate(spec: GeneratorSpec, z0: complex, t_end: float, n_eval: int = 201) -> Trajectory:
    """The flow du/dt = -p(u) u from z0, sampled at n_eval times from 0 to t_end.

    Each sample is the exact flow up to rounding (see the module
    docstring).  Starting too close to an atom direction, or a root-find
    that fails, raises IntegrationError carrying the trajectory before it.
    """
    return _flow(spec, 0.0, z0, t_end, n_eval)


def integrate_composed(
    spec: GeneratorSpec,
    lam: float,
    z0: complex,
    t_end: float,
    n_eval: int = 201,
) -> Trajectory:
    """The flow of the composed generator: du/dt = -f(G_lambda(u)).

    Its decay is governed by the composed accretivity floor a_lambda:
    |u(t)| <= e^(-a_lambda t) |z0|.  It is solved in w = G_lambda(u) after
    one resolvent solve, and the pole check applies to w.
    """
    return _flow(spec, float(_check_lambda(lam)), z0, t_end, n_eval)


@dataclass(frozen=True)
class SqueezeReport:
    """Outcome of an envelope check: worst margin of envelope - |u|."""

    ok: bool
    worst_margin: float


def squeeze_check(trajectory: Trajectory, a: float, slack: float = 1e-8) -> SqueezeReport:
    """Check |u(t)| <= e^(-a t) |z0| + slack along the whole trajectory."""
    margins = trajectory.envelope(a) - np.abs(trajectory.points)
    worst = float(np.min(margins))
    return SqueezeReport(ok=bool(worst >= -slack), worst_margin=worst)


def ladder_gaps(spec: GeneratorSpec, z0: complex, t: float, ns=(8, 16, 32, 64, 128)):
    """Product-formula gaps [(n, |G_{t/n}^(n)(z0) - u(t, z0)|)] along an n-ladder; empirically O(1/n).

    One flow endpoint, all rungs composed together; a one-rung ladder is
    the product formula at one n.
    """
    ns = _check_count(ns, "composition count").tolist()
    endpoint = integrate(spec, z0, t, n_eval=2).endpoint
    iterated = iterate_resolvent(spec, t / np.array(ns), z0, ns) if t else [endpoint] * len(ns)
    return [(n, abs(complex(u) - endpoint)) for n, u in zip(ns, iterated)]
