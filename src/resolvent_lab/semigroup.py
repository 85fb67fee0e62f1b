"""Flow of the generator: du/dt + p(u) u = 0, and the product formula.

For Re p >= a >= 0 the solution decays like |u(t)| <= e^(-a t) |z0| (the
squeezing envelope) and stays inside the disk, so the ODE is smooth and
non-stiff on the sampling range |z0| <= 0.999.  Integration uses an
explicit adaptive 4th/5th-order pair (Dormand-Prince via scipy's RK45)
with per-step tolerance and step rejection.  scipy is imported on the
first integration, not with this module, so the rest of the library loads
without paying for it.

Both flows share one right-hand side.  The composed flow of f o G_lambda
runs in w = G_lambda(u), where u = H(w) = w (1 + lambda p(w)) and H' is the
F' of the resolvent equation, so it does not vanish:
dw/dt = -p(w) w / (1 + lambda p(w) + lambda p'(w) w).  One solve gives
w0 = G_lambda(z0), none runs inside the right-hand side, and H maps the
trajectory back to u.  The plain flow is lambda = 0, where w is u.  The
pole-proximity check applies to the integration variable w.

The n-fold resolvent composition G_{t/n} o ... o G_{t/n} approximates the
flow at time t with an O(1/n) gap (the product formula), checked
empirically against the integrated trajectory.  ``ladder_gaps`` is its one
entry point: a ladder of n values shares one integration and composes all
its rungs together, one grid solve per step, and one n is a one-rung
ladder.

Both integrators bound the work of one call: t_end * max(1, |kappa|) must
lie in [0, MAX_T_END], where kappa = q / (1 + lambda q) is the decay rate
of the flow near 0 (q for the plain flow, lambda = 0).  Once |u| reaches
the absolute tolerance, stability holds the steps to order 1 / |kappa|,
so RK45's step count grows like |kappa| t_end: at q = 1, 0.86 s at
t_end = 1e4 on a 2-core machine and 93 s at 1e6; at t_end = 1, 10 s at
q = 1e5 and 93 s at q = 1e6.  The tolerance must be finite and at least
MIN_ODE_TOL, and n_eval >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, IntegrationError
# eval_p is not called here: perfbench's traced run wraps it in this
# namespace, and tests/test_bindings.py pins every name that run looks up.
from .herglotz import GeneratorSpec, _atom_arrays, _p_and_dp, eval_p  # noqa: F401
from .resolvent import iterate_resolvent, solve_resolvent

DEFAULT_ODE_TOL = 1e-9
MIN_ODE_TOL = 1e-13
MAX_T_END = 1e4
# The flow endpoint that the product-formula gaps are measured against.
_LADDER_ODE_TOL = 1e-11

# Trajectories whose integration variable w comes this close to an atom
# direction (|1 - w conj(zeta)| below the threshold) abort with a partial
# result instead of integrating through a region where the right-hand side
# is numerically unreliable.
POLE_PROXIMITY = 5e-4


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


def _clamp_into_disk(u: complex) -> complex:
    """Radially pull trial stage points back inside the open disk.

    Adaptive stages may overshoot |u| slightly past |z0| during step
    selection; the clamp keeps p evaluable and is error-controlled away by
    step rejection.
    """
    r = abs(u)
    if r >= 1.0 - 1e-12:
        return u * ((1.0 - 1e-12) / r)
    return u


def _flow(spec, lam, z0, t_end, tol, n_eval):
    """Flow of f o G_lam from z0, integrated in w and returned in u; lam = 0 is the plain flow.

    Both integrators check their inputs here; t_end = 0 returns z0.
    """
    z0, t_end, tol, n_eval = complex(z0), float(t_end), float(tol), int(n_eval)
    if not abs(z0) < 1.0:
        raise DomainError(f"initial point requires |z0| < 1, got {abs(z0)}")
    kappa = spec.q / (1.0 + lam * spec.q)
    rate = max(1.0, math.hypot(kappa.real, kappa.imag))
    if not 0.0 <= t_end <= MAX_T_END / rate:
        raise DomainError(f"t_end must lie in [0, {MAX_T_END:g} / max(1, |q / (1 + lambda q)|)] = "
                          f"[0, {MAX_T_END / rate:g}], got {t_end}")
    if not (np.isfinite(tol) and tol >= MIN_ODE_TOL):
        raise DomainError(f"tol must be finite and >= {MIN_ODE_TOL:g}, got {tol}")
    if n_eval < 2:
        raise DomainError(f"n_eval must be >= 2, got {n_eval}")
    start = Trajectory(times=np.array([0.0]), points=np.array([z0], dtype=complex), z0=z0)
    if t_end == 0.0:
        return start
    w0 = solve_resolvent(spec, lam, z0).w if lam else z0
    events = []
    if spec.scale > 0.0:
        _, conj_zetas = _atom_arrays(spec)
        if float(np.min(np.abs(1.0 - w0 * conj_zetas))) <= POLE_PROXIMITY:
            raise IntegrationError("initial point is inside the pole-proximity zone", trajectory=start)

        def pole_event(t, y):
            return float(np.min(np.abs(1.0 - y[0] * conj_zetas))) - POLE_PROXIMITY

        pole_event.terminal = True
        pole_event.direction = -1
        events.append(pole_event)

    def rhs(t, y):
        w = _clamp_into_disk(complex(y[0]))
        p, dp = map(complex, _p_and_dp(spec, np.array(w)))
        return np.array([-p * w / (1.0 + lam * (p + dp * w))])

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.array([w0], dtype=complex),
        method="RK45",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=np.linspace(0.0, t_end, n_eval),
        events=events or None,
    )
    points = np.asarray(sol.y[0])
    if lam:
        points = points * (1.0 + lam * _p_and_dp(spec, points)[0])
        points[0] = z0
    traj = Trajectory(times=np.asarray(sol.t, dtype=float), points=points, z0=z0)
    if sol.status == 1:
        raise IntegrationError(
            f"trajectory entered the pole-proximity zone at t = {sol.t_events[0][0]:.6g}",
            trajectory=traj,
        )
    if sol.status != 0:
        raise IntegrationError(f"integration failed: {sol.message}", trajectory=traj)
    return traj


def integrate(
    spec: GeneratorSpec,
    z0: complex,
    t_end: float,
    tol: float = DEFAULT_ODE_TOL,
    n_eval: int = 201,
) -> Trajectory:
    """Integrate du/dt = -p(u) u from z0 up to t_end.

    Local error per step is held to ``tol``; the endpoint then satisfies
    |u(t_end)| <= e^(-a t_end) |z0| + 10 tol.  Starting too close to an
    atom direction (or drifting into one, for pathological data) raises
    IntegrationError carrying the partial trajectory.
    """
    return _flow(spec, 0.0, z0, t_end, tol, n_eval)


def integrate_composed(
    spec: GeneratorSpec,
    lam: float,
    z0: complex,
    t_end: float,
    tol: float = DEFAULT_ODE_TOL,
    n_eval: int = 201,
) -> Trajectory:
    """Integrate the flow of the composed generator: du/dt = -f(G_lambda(u)).

    Its decay is governed by the composed accretivity floor a_lambda:
    |u(t)| <= e^(-a_lambda t) |z0|.  It runs in w = G_lambda(u) after one
    solve: ``tol`` holds the local error of w, and the pole check applies to w.
    """
    lam = float(lam)
    if not 0.0 < lam < np.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    return _flow(spec, lam, z0, t_end, tol, n_eval)


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
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise DomainError(f"composition count must be >= 1, got {min(ns)}")
    endpoint = integrate(spec, z0, t, tol=_LADDER_ODE_TOL, n_eval=2).endpoint
    iterated = iterate_resolvent(spec, t / np.array(ns), z0, ns) if t else [endpoint] * len(ns)
    return [(n, abs(complex(u) - endpoint)) for n, u in zip(ns, iterated)]
