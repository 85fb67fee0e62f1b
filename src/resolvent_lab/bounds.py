"""Closed-form constants attached to a resolvent family.

Everything here is an elementary function of (q, a, lambda), where
q = p(0) and a is the accretivity floor of the generator class.  All
formulas are evaluated directly in double precision, with no symbolic
simplification, so each one can be cross-checked independently against
sampled truth.

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
center-minus-radius expression over the reachable radius range; the
center-only value is kept as ``accretivity_center_estimate`` for regression
comparison.

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

from .exceptions import DegenerateParameterError, DomainError
from .herglotz import Disk


def _abs2(v: complex) -> float:
    return v.real * v.real + v.imag * v.imag


def _validate_qal(q: complex, a: float, lam: float):
    q = complex(q)
    if not (math.isfinite(q.real) and math.isfinite(q.imag) and math.isfinite(a)):
        raise DomainError("q and a must be finite")
    if a < 0.0:
        raise DomainError(f"accretivity floor must be >= 0, got a = {a}")
    if q.real < a:
        raise DomainError(f"need Re q >= a, got Re q = {q.real}, a = {a}")
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    try:
        A, B = _ab(q, a, lam)
    except OverflowError:
        A = B = math.inf
    if not (math.isfinite(A) and math.isfinite(B)):
        raise DomainError(f"A or B overflows a double at q = {q}, a = {a}, lambda = {lam}")
    return q, float(a), float(lam)


def _ab(q: complex, a: float, lam: float):
    m = _abs2(1.0 - lam * q)
    A = m + 4.0 * lam * a + 1.0
    B = (m - 1.0) ** 2 + 8.0 * lam**3 * a * _abs2(q)
    return A, B


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


def distortion_bound(q: complex, a: float, lam: float) -> float:
    """sqrt(2 / (A + sqrt(B))): sharp bound on |G_lambda(z)| / |z|.

    Always in (0, 1]; equals 1 exactly when a = 0 and |1 - lambda q| <= 1.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    return math.sqrt(2.0 / (A + math.sqrt(B)))


def est1_bound(q: complex, lam: float) -> float:
    """Distortion bound specialized to a = 0, in piecewise form.

    1 for lambda <= 2 Re q / |q|^2, then 1 / |1 - lambda q|.  Above the
    threshold the bound is < 1, so G_lambda has no boundary fixed points.
    """
    q, _, lam = _validate_qal(q, 0.0, lam)
    qq = _abs2(q)
    if qq == 0.0 or lam * qq <= 2.0 * q.real:
        return 1.0
    return 1.0 / abs(1.0 - lam * q)


def composed_accretivity(q: complex, a: float, lam: float) -> float:
    """Accretivity floor a_lambda = (1 - distortion)/lambda of f o G_lambda.

    Zero exactly when the distortion bound is 1.
    """
    return (1.0 - distortion_bound(q, a, lam)) / lam


def _g_floor(q: complex, a: float, lam: float, tau) -> np.ndarray:
    """Lower bound for Re g on |G| = tau, via the reciprocal of the value disk.

    1 + lambda p(w) lies in the disk D(C, R) with C = 1 + lambda c(tau),
    R = lambda r(tau) built from the Herglotz value disk of p at radius tau;
    Re C - R = 1 + lambda * (Harnack floor) >= 1 keeps the reciprocal disk
    well defined, and min Re over {1/v} is (Re C - R) / (|C|^2 - R^2).
    """
    tau = np.asarray(tau, dtype=float)
    denom = 1.0 - tau * tau
    c = (q + tau * tau * np.conj(q) - 2.0 * a * tau * tau) / denom
    r = 2.0 * tau * (q.real - a) / denom
    C = 1.0 + lam * c
    R = lam * r
    return (C.real - R) / (C.real * C.real + C.imag * C.imag - R * R)


def resolvent_accretivity(q: complex, a: float, lam: float) -> float:
    """Accretivity floor d_lambda of the resolvent itself: Re g >= d_lambda.

    The center-minus-radius floor of the reciprocal value disk at the
    reachable radius tau_hat = distortion bound; see the module note.  The
    floor is non-increasing in the radius, so no search is needed.  For
    constant p (a = Re q) the result is (1 + lambda Re q)/|1 + lambda q|^2
    up to rounding, the true constant of the linear resolvent.
    """
    q, a, lam = _validate_qal(q, a, lam)
    tau_hat = min(distortion_bound(q, a, lam), 1.0 - 1e-9)
    return float(_g_floor(q, a, lam, tau_hat))


def accretivity_center_estimate(q: complex, a: float, lam: float) -> float:
    """Endpoint minimum of the center-only floor phi (radius term dropped).

    phi(t) = (1 + lam Re q - t (1 - lam (Re q - 2a)))
             / (|1 + lam q|^2 - t |1 - lam (q - 2a)|^2),
    minimized over t in {0, 2/(A + sqrt B)}.  Kept only as a regression
    reference: it is NOT a valid floor for Re g in general (module note),
    though it is exact for constant p.  Raises DegenerateParameterError if a
    denominator vanishes.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    t_hat = 2.0 / (A + math.sqrt(B))

    def phi(t: float) -> float:
        num = 1.0 + lam * q.real - t * (1.0 - lam * (q.real - 2.0 * a))
        den = _abs2(1.0 + lam * q) - t * _abs2(1.0 - lam * (q - 2.0 * a))
        if den <= 1e-14:
            raise DegenerateParameterError(f"floor denominator vanished at t = {t}")
        return num / den

    return min(phi(0.0), phi(t_hat))


def reciprocal_disk(d: Disk) -> Disk:
    """Image of {1/v : v in d} for a disk d not containing 0.

    Center conj(c) / (|c|^2 - r^2), radius r / (|c|^2 - r^2); boundary maps
    to boundary.
    """
    c, r = d.center, d.radius
    den = _abs2(c) - r * r
    if abs(c) <= r or den <= 0.0:
        raise DomainError("reciprocal disk requires 0 outside the disk")
    return Disk(c.conjugate() / den, r / den)


def t_function(alpha: float, beta: float, r: float) -> float:
    """Deviation bound T(r) = 2 alpha r / ((1+beta)(1-r)^2 + alpha(1-r^2)).

    Increasing in r on [0, 1), T(0) = 0.  alpha = 0 (linear map) returns 0
    for every r by convention.
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"radius must satisfy 0 <= r < 1, got {r}")
    if alpha < 0.0 or beta < 0.0:
        raise DomainError("alpha and beta must be >= 0")
    if alpha == 0.0:
        return 0.0
    return 2.0 * alpha * r / ((1.0 + beta) * (1.0 - r) ** 2 + alpha * (1.0 - r * r))


def rho_star(q: complex, a: float, lam: float) -> float:
    """Smallest positive radius with T(r) = 1, in closed form.

    sqrt(1 + lam Re q) / (sqrt(2 lam (Re q - a)) + sqrt(1 + lam Re q)),
    with alpha = lam (Re q - a) and beta = lam a implied.  Equals 1 exactly
    when Re q = a (alpha = 0).
    """
    q, a, lam = _validate_qal(q, a, lam)
    s = math.sqrt(1.0 + lam * q.real)
    return s / (math.sqrt(2.0 * lam * (q.real - a)) + s)


def _alpha_beta(q: complex, a: float, lam: float):
    """alpha = lambda (Re q - a) and beta = lambda a: the parameters of T for the class."""
    return lam * (q.real - a), lam * a


def _t_refines(q: complex, a: float, lam: float, rho: float) -> bool:
    """Whether T(rho) refines the universal order 1/2: rho < 1 and rho <= rho*, up to one rounding of rho*."""
    return rho < 1.0 and rho <= rho_star(q, a, lam) + 1e-15


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
    """Orders of starlikeness when |G_lambda| <= rho on the disk.

    For rho <= rho*: order 1/(1 + T(rho)) and strong order
    (2/pi) arcsin T(rho).  Beyond rho*, and at rho = 1 (the distortion
    bound when a = 0 and |1 - lam q| <= 1, or when it rounds to 1), only
    the universal baseline (order 1/2, strong order 1) is certified.
    """
    q, a, lam = _validate_qal(q, a, lam)
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must satisfy 0 <= rho <= 1, got {rho}")
    if _t_refines(q, a, lam, rho):
        t = min(t_function(*_alpha_beta(q, a, lam), rho), 1.0)
        return OrderEstimate(order=_order(t), strong_order=2.0 * math.asin(t) / math.pi, refined=True)
    return OrderEstimate(order=0.5, strong_order=1.0, refined=False)


def threshold_m1(q: complex, a: float) -> float:
    """Lambda threshold M1 beyond which the order certificate applies.

    (sqrt(5 Re^2 q - 4 a Re q) + Re q - 2a) / ((Re q + a) Re q), evaluated
    as (sqrt(5 - 4s) + 1 - 2s) / ((1 + s) Re q) with s = a / Re q so that no
    product underflows; requires Re q > 0.
    """
    q = complex(q)
    if q.real <= 0.0:
        raise DomainError(f"threshold requires Re q > 0, got {q.real}")
    if a < 0.0:
        raise DomainError(f"need a >= 0, got {a}")
    s = a / q.real
    rad = 5.0 - 4.0 * s
    if rad < 0.0:
        raise DomainError(f"threshold undefined for a = {a} > 1.25 Re q")
    return (math.sqrt(rad) + 1.0 - 2.0 * s) / ((1.0 + s) * q.real)


def threshold_m2(q: complex, lam: float) -> float:
    """Floor threshold M2 on the accretivity constant a, for small lambda.

    With s = lambda Re q:
    ((s+1) sqrt(2 s^2 + 4 s + 1) + s^2 + s - 1) / (lambda (2 + s)^2);
    requires Re q > 0.
    """
    q = complex(q)
    if q.real <= 0.0:
        raise DomainError(f"threshold requires Re q > 0, got {q.real}")
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    s = lam * q.real
    return ((s + 1.0) * math.sqrt(2.0 * s * s + 4.0 * s + 1.0) + s * s + s - 1.0) / (lam * (2.0 + s) ** 2)


def starlike_main_margin(q: complex, a: float, lam: float) -> float:
    """Margin of A + sqrt(B) >= 2 (sqrt(2 lam (Re q - a)/(1 + lam Re q)) + 1)^2.

    Nonnegative margin means the distortion radius does not exceed rho*,
    so the refined order applies with rho = distortion bound.
    """
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    lhs = 2.0 * (math.sqrt(2.0 * lam * (q.real - a) / (1.0 + lam * q.real)) + 1.0) ** 2
    return A + math.sqrt(B) - lhs


@dataclass(frozen=True)
class OrderCertificate:
    """Certified order of starlikeness with the condition that granted it."""

    order: float
    condition: str  # "i" or "ii"


def _certifying_condition(q: complex, a: float, lam: float):
    """The condition of ``calc_order`` that holds, "i" or "ii", or None when Re q <= 0 or neither does."""
    if q.real <= 0.0:
        return None
    if lam * _abs2(q) >= 2.0 * q.real:
        return "i" if lam > threshold_m1(q, a) else None
    return "ii" if a > threshold_m2(q, lam) else None


def calc_order(q: complex, a: float, lam: float):
    """Certified starlikeness order 1/(1 + T(distortion)), when available.

    Condition (i): lambda |q|^2 >= 2 Re q and lambda > M1(q, a).
    Condition (ii): lambda |q|^2 < 2 Re q and a > M2(q, lambda).
    Returns None when neither condition holds -- a first-class outcome
    distinguishing "not certified" from an error.
    """
    q, a, lam = _validate_qal(q, a, lam)
    condition = _certifying_condition(q, a, lam)
    if condition is None:
        return None
    if starlike_main_margin(q, a, lam) < -1e-12:
        raise RuntimeError(
            "internal inconsistency: certified condition failed the radius comparison"
        )
    rho = distortion_bound(q, a, lam)
    return OrderCertificate(order=_order(t_function(*_alpha_beta(q, a, lam), rho)), condition=condition)


def region_boundary(s: float) -> float:
    """Boundary curve t*(s) = (4 + 2s - s^2) / (2 + s)^2 of the certified region.

    The certified parameter set in the (s, t) = (lambda q, a/q) plane for
    real q is {s > 0, t*(s) < t < 1}; t* crosses zero at s = 1 + sqrt(5).
    """
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    return (4.0 + 2.0 * s - s * s) / (2.0 + s) ** 2


def distortion_at_critical_lambda(q: complex, a: float) -> float:
    """Distortion bound at lambda0 = 2 Re q / |q|^2, in closed form.

    1 / sqrt(2 lambda0 a + 1 + lambda0 |q| sqrt(2 lambda0 a)); agrees with
    the general bound at lambda0 because |1 - lambda0 q| = 1 there.
    """
    q = complex(q)
    if q.real <= 0.0:
        raise DomainError(f"critical lambda requires Re q > 0, got {q.real}")
    lam0 = 2.0 * q.real / _abs2(q)
    x = 2.0 * lam0 * a
    return 1.0 / math.sqrt(x + 1.0 + lam0 * abs(q) * math.sqrt(x))


def distortion_at_critical_lambda_simplified(q: complex, a: float) -> float:
    """sqrt(Re q / (4a + Re q)): a circulating shortcut for real q.

    Disagrees with :func:`distortion_at_critical_lambda` whenever a > 0
    (e.g. q = 1, a = 1/4 gives sqrt(1/2) against the correct 1/2); kept so
    the discrepancy stays documented by a test.  The library follows the
    general formula everywhere.
    """
    q = complex(q)
    if q.real <= 0.0:
        raise DomainError(f"critical lambda requires Re q > 0, got {q.real}")
    return math.sqrt(q.real / (4.0 * a + q.real))


def distortion_coefficients(q: complex, a: float, lam: float) -> BoundSet:
    """Assemble every closed-form constant for one (q, a, lambda) triple."""
    q, a, lam = _validate_qal(q, a, lam)
    A, B = _ab(q, a, lam)
    alpha, beta = _alpha_beta(q, a, lam)
    return BoundSet(
        q=q,
        a=a,
        lam=lam,
        A=A,
        B=B,
        distortion=distortion_bound(q, a, lam),
        a_lambda=composed_accretivity(q, a, lam),
        d_lambda=resolvent_accretivity(q, a, lam),
        rho_star=rho_star(q, a, lam),
        alpha=alpha,
        beta=beta,
    )


def distortion_curve(q: complex, a: float, lambdas) -> np.ndarray:
    """Distortion bound along a lambda grid (the dependence plotted in reports)."""
    return np.array([distortion_bound(q, a, float(l)) for l in np.asarray(lambdas, dtype=float)])
