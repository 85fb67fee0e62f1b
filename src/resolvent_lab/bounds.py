"""Closed-form constants attached to a resolvent family.

Everything here is an elementary function of (q, a, lambda), where
q = p(0) and a is the accretivity floor of the generator class.  All
formulas are evaluated in double precision, each in a form that does not
cancel where its direct form would, and each is cross-checked against
sampled truth and against its direct form in decimal arithmetic.

Each closed form takes scalars (giving a float) or arrays that broadcast,
giving the bits and, at the first bad entry, the DomainError of the scalar
calls.  Powers are written as products, as numpy's array ``x**2`` and
``x**3`` round unlike Python's ``**``.

Central quantities, for A = |1 - lambda q|^2 + 4 lambda a + 1 and
B = (|1 - lambda q|^2 - 1)^2 + 8 lambda^3 a |q|^2:

* distortion: sup |G_lambda(z)| / |z|  <=  sqrt(2 / (A + sqrt(B))),
* a_lambda:   accretivity floor of f o G_lambda,
* d_lambda:   accretivity floor of G_lambda itself,
* T, rho*:    the deviation bound |Q - 1| <= T(rho) for the starlikeness
              functional Q, and the radius at which T reaches 1,
* M1, M2, t*: parameter thresholds certifying starlikeness orders > 1/2.

Note on d_lambda: the widely quoted endpoint recipe
min{phi(0), phi(2/(A+sqrt B))} with
phi(t) = (1 + lam Re q - t(1 - lam(Re q - 2a))) / (|1+lam q|^2 - t |1-lam(q-2a)|^2)
keeps only the *center* of the value disk of g = 1/(1 + lambda p(w)) and
drops its radius.  It overestimates the true guarantee: for the single-atom
generator p(z) = (1+z)/(1-z) at lambda = 1 it claims 1/2 while
Re g(0.9) = 1/2.9.  ``resolvent_accretivity`` therefore minimizes the full
center-minus-radius expression over the reachable radius range.  The
library does not ship the center-only recipe; a test pins the discrepancy
against the closed form g(z) = 1/(2 + z) of that case.

That minimum needs no search.  The value disk at radius tau holds every
value that a generator of the class takes on |z| <= tau, so the disks
are nested and grow with tau.  So do the disks of 1 + lambda p and their
reciprocal disks, and the least real part over a growing set can only
fall.  The floor is therefore non-increasing in tau, and its minimum over
[0, tau_hat] is its value at tau_hat, the largest reachable radius.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import _check, _check_class, _check_floor, _check_lambda, _finite_q, _out


def _abs2(v):
    return v.real * v.real + v.imag * v.imag


def _validate_qal(q, a, lam):
    q, a = _finite_q(q), _check_floor(a)
    _check_class(q, a)
    lam = _check_lambda(lam)
    A, B = _ab(q, a, lam)
    _check(np.isfinite(A) & np.isfinite(B), "A or B overflows a double at q = {}, a = {}, lambda = {}", q, a, lam)
    return q, a, lam


def _ab(q, a, lam):
    """A and B, inf or NaN where they overflow, unwarned: ``_validate_qal`` rejects those entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _abs2(1.0 - lam * q)
        c = 8.0 * (lam * lam * lam) * a * _abs2(q)
        if not np.isfinite(c).all():  # lambda^3 overflows above about 5.6e102: there c is 8 (lambda a) |lambda q|^2
            c = np.where(np.isfinite(c), c, 8.0 * (lam * a) * _abs2(lam * q))
        return m + 4.0 * lam * a + 1.0, (m - 1.0) * (m - 1.0) + c


@dataclass(frozen=True)
class BoundSet:
    """All closed-form constants for one (q, a, lambda) triple."""

    q: complex
    a: float
    lam: float
    A: float
    B: float
    distortion: float
    a_lambda: float
    d_lambda: float
    rho_star: float
    alpha: float
    beta: float

    def to_dict(self) -> dict:
        """The fields in order, with ``lam`` named "lambda" and q as [re, im]."""
        data = {"lambda" if f.name == "lam" else f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["q"] = [self.q.real, self.q.imag]
        return data


def distortion_bound(q, a, lam):
    """sqrt(2 / (A + sqrt(B))): sharp bound on |G_lambda(z)| / |z|.

    Always in (0, 1]; equals 1 exactly when a = 0 and |1 - lambda q| <= 1.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    return _out(np.sqrt(2.0 / (A + np.sqrt(B))))


def est1_bound(q, lam):
    """Distortion bound specialized to a = 0, in piecewise form.

    1 for lambda <= 2 Re q / |q|^2, then 1 / |1 - lambda q|.  Above the
    threshold the bound is < 1, so G_lambda has no boundary fixed points.
    """
    q, _, lam = _validate_qal(q, 0.0, lam)
    qq = _abs2(q)
    flat = (qq == 0.0) | (lam * qq <= 2.0 * q.real)
    # np.hypot, not np.abs: numpy's complex abs rounds differently from Python's
    far = np.hypot(1.0 - lam * q.real, lam * q.imag)
    return _out(np.divide(1.0, far, out=np.ones(far.shape), where=~flat))


def composed_accretivity(q, a, lam):
    """Accretivity floor a_lambda = (1 - distortion)/lambda of f o G_lambda.

    Zero exactly when a = 0 and lambda |q|^2 <= 2 Re q, where the distortion
    bound d = sqrt(2 / S), S = A + sqrt(B), is 1.  As d -> 1 at small lambda,
    1 - d cancels, so it is taken as (S - 2) / (S (1 + d)) with

        (S - 2) / lambda = 4a + w + sqrt(w^2 + c),
        w = lambda |q|^2 - 2 Re q,   c = 8 lambda a |q|^2,

    and where w < 0, w + sqrt(w^2 + c) as c / (sqrt(w^2 + c) - w).  The
    square root is hypot(w, sqrt(8 lambda a) |q|), which does not overflow.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    S = A + np.sqrt(B)
    w = lam * _abs2(q) - 2.0 * q.real
    s = np.sqrt(8.0 * lam * a) * np.hypot(q.real, q.imag)
    root = np.hypot(w, s)
    with np.errstate(invalid="ignore", divide="ignore"):  # the branch not taken divides by 0 where root = w
        rest = np.where(w < 0.0, s * (s / (root - w)), w + root)
    return _out((4.0 * a + rest) / (S * (1.0 + np.sqrt(2.0 / S))))


def _g_floor(q, a, lam, gap) -> np.ndarray:
    """Lower bound for Re g on |G| = 1 - gap, via the reciprocal of the value disk.

    1 + lambda p(w) lies in D(C, R), 1 + lambda times the value disk of p:
    Im C = lambda Im q, and its real extent [x, y] is 1 + lambda times the
    Harnack bounds, x = 1 + lambda a + s gap/(2 - gap) and y = 1 + lambda a
    + s (2 - gap)/gap with s = lambda (Re q - a).  x >= 1 keeps 1/v defined,
    and min Re 1/v = x / (x y + (lambda Im q)^2): no term cancels as gap -> 0.
    """
    gap = np.asarray(gap, dtype=float)
    s = lam * (q.real - a)
    x = 1.0 + lam * a + s * gap / (2.0 - gap)
    y = 1.0 + lam * a + s * (2.0 - gap) / gap
    im = lam * q.imag
    return x / (x * y + im * im)


def resolvent_accretivity(q, a, lam):
    """Accretivity floor d_lambda of the resolvent itself: Re g >= d_lambda.

    The center-minus-radius floor of the reciprocal value disk at the
    reachable radius tau_hat = distortion bound; see the module note.  The
    floor is non-increasing in the radius, so no search is needed; its gap
    1 - tau_hat is lambda a_lambda, at least 1e-9.  For constant p (a = Re q)
    the result is (1 + lambda Re q)/|1 + lambda q|^2 up to rounding, the
    linear resolvent's own constant.
    """
    q, a, lam = _validate_qal(q, a, lam)
    return _out(_g_floor(q, a, lam, np.maximum(lam * composed_accretivity(q, a, lam), 1e-9)))


def t_function(alpha, beta, r):
    """Deviation bound T(r) = 2 alpha r / ((1+beta)(1-r)^2 + alpha(1-r^2)).

    Increasing in r on [0, 1), T(0) = 0, and T = 0 for every r when
    alpha = 0 (linear map).  1 - r^2 is (1 - r)(1 + r), so nothing cancels.
    """
    alpha, beta, r = (np.asarray(x, dtype=float) for x in (alpha, beta, r))
    _check((0.0 <= r) & (r < 1.0), "radius must satisfy 0 <= r < 1, got {}", r)
    ok = (0.0 <= alpha) & (alpha < math.inf) & (0.0 <= beta) & (beta < math.inf)
    _check(ok, "alpha and beta must be finite and >= 0, got {}, {}", alpha, beta)
    with np.errstate(over="ignore", invalid="ignore"):  # alpha near the top of the double range gives inf, unwarned
        u = 1.0 - r
        return _out(2.0 * alpha * r / ((1.0 + beta) * (u * u) + alpha * (u * (1.0 + r))))


def rho_star(q, a, lam):
    """Smallest positive radius with T(r) = 1, in closed form.

    sqrt(1 + lam Re q) / (sqrt(2 lam (Re q - a)) + sqrt(1 + lam Re q)),
    with alpha = lam (Re q - a) and beta = lam a implied.  Equals 1 exactly
    when Re q = a (alpha = 0).
    """
    q, a, lam = _validate_qal(q, a, lam)
    s = np.sqrt(1.0 + lam * q.real)
    return _out(s / (np.sqrt(2.0 * lam * (q.real - a)) + s))


def _alpha_beta(q, a, lam):
    """alpha = lambda (Re q - a) and beta = lambda a: the parameters of T for the class."""
    return lam * (q.real - a), lam * a


def _t_refines(q, a, lam, rho):
    """Where T(rho) refines the universal order 1/2: rho < 1 and rho <= rho*, up to one rounding of rho*."""
    return (rho < 1.0) & (rho <= rho_star(q, a, lam) + 1e-15)


def _order(t: float) -> float:
    """Order of starlikeness 1/(1 + min(T, 1)) from a deviation bound T."""
    return 1.0 / (1.0 + min(t, 1.0))


@dataclass(frozen=True)
class OrderEstimate:
    """Starlikeness orders implied by a radius bound on the resolvent.

    ``refined`` is False when only the universal order-1/2 statement
    applies (rho exceeded rho*).
    """

    order: float
    strong_order: float
    refined: bool


def starlike_order_from_rho(q: complex, a: float, lam: float, rho: float) -> OrderEstimate:
    """Orders of starlikeness when |G_lambda| <= rho on the disk, for one (q, a, lambda).

    For rho <= rho*: order 1/(1 + T(rho)) and strong order
    (2/pi) arcsin T(rho).  Where alpha = lam (Re q - a) is 0, T vanishes
    at every radius, rho = 1 included, so the orders are 1 and 0.  Beyond
    rho*, and at rho = 1 (the distortion bound when a = 0 and
    |1 - lam q| <= 1, or when it rounds to 1) where alpha > 0, only the
    universal baseline (order 1/2, strong order 1) is certified.
    """
    q, a, lam = _validate_qal(q, a, lam)
    _check((0.0 <= rho) & (rho <= 1.0), "rho must satisfy 0 <= rho <= 1, got {}", rho)
    alpha, beta = _alpha_beta(q, a, lam)
    if alpha == 0.0 or _t_refines(q, a, lam, rho):
        t = 0.0 if alpha == 0.0 else min(t_function(alpha, beta, rho), 1.0)
        return OrderEstimate(order=_order(t), strong_order=2.0 * math.asin(t) / math.pi, refined=True)
    return OrderEstimate(order=0.5, strong_order=1.0, refined=False)


def _m1(q, a):
    """M1 where Re q > 0 and a >= 0: NaN where a > 1.25 Re q, inf where it overflows a double."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = (q.real - a) / q.real  # 1 - a / Re q, with the one rounding of the division
        return 4.0 * t / ((np.sqrt(1.0 + 4.0 * t) + 1.0 - 2.0 * t) * q.real)


def threshold_m1(q, a):
    """Lambda threshold M1 beyond which the order certificate applies.

    (sqrt(5 Re^2 q - 4 a Re q) + Re q - 2a) / ((Re q + a) Re q).  With
    t = (Re q - a) / Re q, so that no product underflows, it is evaluated
    in the conjugate form 4t / ((sqrt(1 + 4t) + 1 - 2t) Re q), whose
    denominator stays above 1.2 Re q: the direct form cancels as a nears
    Re q, where M1 crosses 0.  Requires Re q > 0 and a <= 1.25 Re q, and a
    DomainError when it overflows a double (Re q below about 3e-308).
    """
    q = _finite_q(q)
    _check(q.real > 0.0, "threshold requires Re q > 0, got {}", q.real)
    a = _check_floor(a)
    m1 = _m1(q, a)
    _check(~np.isnan(m1), "threshold undefined for a = {} > 1.25 Re q", a)
    _check(np.isfinite(m1), "M1 overflows a double at q = {}, a = {}", q, a)
    return _out(m1)


def threshold_m2(q, lam):
    """Floor threshold M2 on the accretivity constant a, for small lambda.

    With s = lambda Re q:
    ((s+1) sqrt(2 s^2 + 4 s + 1) + s^2 + s - 1) / (lambda (2 + s)^2),
    evaluated in the conjugate form
    Re q (2 + s) / ((1 + s) sqrt(2 s^2 + 4 s + 1) + 1 - s - s^2), as the
    direct numerator cancels for small s (to 0 once s is below about
    1e-16, where M2 is about Re q).  Where 2 s^2 overflows (s above about
    9.5e153), both are divided through by s^2.  Requires Re q > 0; M2 is
    at most about Re q, so it never overflows.
    """
    q = _finite_q(q)
    _check(q.real > 0.0, "threshold requires Re q > 0, got {}", q.real)
    lam = _check_lambda(lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = lam * q.real
        rad = 2.0 * s * s + 4.0 * s + 1.0
        small = (2.0 + s) / ((1.0 + s) * np.sqrt(rad) + 1.0 - s - s * s)
        u = 1.0 / s
        large = u * (1.0 + 2.0 * u) / ((1.0 + u) * np.sqrt(2.0 + 4.0 * u + u * u) + u * u - u - 1.0)
        # the ratio is at most 1, so multiplying by Re q last cannot overflow
        return _out(q.real * np.where(np.isinf(rad), large, small))


def starlike_main_margin(q, a, lam):
    """Margin of A + sqrt(B) >= 2 (sqrt(2 lam (Re q - a)/(1 + lam Re q)) + 1)^2.

    Nonnegative margin means the distortion radius does not exceed rho*,
    so the refined order applies with rho = distortion bound.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    t = np.sqrt(2.0 * lam * (q.real - a) / (1.0 + lam * q.real)) + 1.0
    return _out(A + np.sqrt(B) - 2.0 * (t * t))


@dataclass(frozen=True)
class OrderCertificate:
    """Certified order of starlikeness with the condition that granted it."""

    order: float
    condition: str  # "i" or "ii"


def _certifying_conditions(q, a, lam):
    """Where condition (i) and where (ii) of ``calc_order`` hold on validated input; neither where Re q <= 0."""
    qr = q.real
    steep = lam * _abs2(q) >= 2.0 * qr
    # unread entries take q = 1 or lambda = 1, where M1 and M2 are defined; an M1 that overflows is inf
    m1 = _m1(np.where(qr > 0.0, q, 1.0), a)
    m2 = threshold_m2(np.where(steep | (qr <= 0.0), 1.0, q), np.where(steep, 1.0, lam))
    return (qr > 0.0) & steep & (lam > m1), (qr > 0.0) & ~steep & (a > m2)


def calc_order(q: complex, a: float, lam: float):
    """Certified starlikeness order 1/(1 + T(distortion)) for one (q, a, lambda), when available.

    Condition (i): lambda |q|^2 >= 2 Re q and lambda > M1(q, a).
    Condition (ii): lambda |q|^2 < 2 Re q and a > M2(q, lambda).
    Returns None when neither condition holds -- a first-class outcome
    distinguishing "not certified" from an error.  Where alpha = lambda (Re q - a)
    is 0, T vanishes and the order is 1.  Otherwise a condition that holds
    where the distortion bound rounds to 1 is a DomainError naming q.
    """
    q, a, lam = _validate_qal(q, a, lam)
    cond_i, cond_ii = _certifying_conditions(q, a, lam)
    if not (cond_i or cond_ii):
        return None
    if starlike_main_margin(q, a, lam) < -1e-12:
        raise RuntimeError(
            "internal inconsistency: certified condition failed the radius comparison"
        )
    condition = "i" if cond_i else "ii"
    alpha, beta = _alpha_beta(q, a, lam)
    if alpha == 0.0:  # T = 0 at every radius: the order is 1 whatever rho rounds to
        return OrderCertificate(order=1.0, condition=condition)
    rho = distortion_bound(q, a, lam)
    # T(rho) needs rho < 1; the bound can round to 1 where lambda Re q and lambda a are tiny
    _check(rho < 1.0, "the distortion bound rounds to 1 at q = {}, a = {}, lambda = {}, so T(rho) and the "
           "certified order have no value", q, a, lam)
    return OrderCertificate(order=_order(t_function(alpha, beta, rho)), condition=condition)


def region_boundary(s):
    """Boundary curve t*(s) = (4 + 2s - s^2) / (2 + s)^2 of the certified region.

    The certified parameter set in the (s, t) = (lambda q, a/q) plane for
    real q is {s > 0, t*(s) < t < 1}; t* crosses zero at s = 1 + sqrt(5).
    A DomainError when the formula overflows a double (s above about 1e154).
    """
    s = np.asarray(s, dtype=float)
    _check(np.isfinite(s) & (s > 0.0), "s must be positive, got {}", s)
    with np.errstate(over="ignore", invalid="ignore"):
        t = (4.0 + 2.0 * s - s * s) / ((2.0 + s) * (2.0 + s))
    _check(np.isfinite(t), "t* overflows a double at s = {}", s)
    return _out(t)


def distortion_at_critical_lambda(q, a):
    """Distortion bound at lambda0 = 2 Re q / |q|^2, in closed form.

    1 / sqrt(2 lambda0 a + 1 + lambda0 |q| sqrt(2 lambda0 a)), evaluated as
    1 / sqrt(x + 1 + 2c sqrt(x)) with c = Re q / |q| and x = 4 c a / |q| so
    that tiny q does not underflow; 1 at a = 0.  It agrees with the general
    bound at lambda0 because |1 - lambda0 q| = 1 there.
    """
    q = _finite_q(q)
    _check(q.real > 0.0, "critical lambda requires Re q > 0, got {}", q.real)
    a = _check_floor(a)
    r = np.hypot(q.real, q.imag)
    c = q.real / r
    with np.errstate(over="ignore"):
        x = 4.0 * c * (a / r)
        return _out(1.0 / np.sqrt(x + 1.0 + 2.0 * c * np.sqrt(x)))


def distortion_coefficients(q: complex, a: float, lam: float) -> BoundSet:
    """Assemble every closed-form constant for one (q, a, lambda) triple."""
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    alpha, beta = _alpha_beta(q, a, lam)
    return BoundSet(
        q=complex(q),
        a=float(a),
        lam=float(lam),
        A=float(A),
        B=float(B),
        distortion=distortion_bound(q, a, lam),
        a_lambda=composed_accretivity(q, a, lam),
        d_lambda=resolvent_accretivity(q, a, lam),
        rho_star=rho_star(q, a, lam),
        alpha=float(alpha),
        beta=float(beta),
    )
