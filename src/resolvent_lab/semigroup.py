"""Flow of the generator: du/dt + p(u) u = 0, and the product formula.

For Re p >= a >= 0 the solution decays like |u(t)| <= e^(-a t) |z0| (the
squeezing envelope) and stays inside the disk, so the ODE is smooth and
non-stiff on the sampling range |z0| <= 0.999.  Integration uses an
explicit adaptive 4th/5th-order pair (Dormand-Prince via scipy's RK45)
with per-step tolerance and step rejection.  scipy is imported on the
first integration, not with this module, so the rest of the library loads
without paying for it.

The n-fold resolvent composition G_{t/n} o ... o G_{t/n} approximates the
flow at time t with an O(1/n) gap, checked empirically against the
integrated trajectory.  A ladder of n values shares one integration and
composes all its rungs together, one grid solve per step.

Both integrators take 0 <= t_end <= MAX_T_END: once |u| reaches the
absolute tolerance, stability holds the steps to order 1, so the step
count grows like t_end (0.86 s at 1e4 on a 2-core machine, 93 s at 1e6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, IntegrationError
from .herglotz import GeneratorSpec, _atom_arrays, _p_and_dp, eval_p
from .resolvent import iterate_resolvent, solve_resolvent

DEFAULT_ODE_TOL = 1e-9
MAX_T_END = 1e4

# Trajectories this close to an atom direction (|1 - u conj(zeta)| below the
# threshold) abort with a partial result instead of integrating through a
# region where the right-hand side is numerically unreliable.
POLE_PROXIMITY = 5e-4


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the flow started at z0.

    |points| is non-increasing (a >= 0) and |points[k]| <= |z0| throughout.
    """

    times: np.ndarray
    points: np.ndarray
    spec: GeneratorSpec
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


def _integrate_rhs(rhs, spec, z0, t_end, tol, n_eval, guard_start=False):
    """du/dt = rhs from z0 to t_end, checked for both integrators; t_end = 0 returns z0.

    Entering the pole-proximity zone stops the run; ``guard_start`` also rejects a start in it.
    """
    z0 = complex(z0)
    if not abs(z0) < 1.0:
        raise DomainError(f"initial point requires |z0| < 1, got {abs(z0)}")
    if not 0.0 <= t_end <= MAX_T_END:
        raise DomainError(f"t_end must lie in [0, {MAX_T_END:g}], got {t_end}")
    start = Trajectory(times=np.array([0.0]), points=np.array([z0], dtype=complex), spec=spec, z0=z0)
    if t_end == 0.0:
        return start
    events = []
    if spec.scale > 0.0:
        _, conj_zetas = _atom_arrays(spec)
        if guard_start and float(np.min(np.abs(1.0 - z0 * conj_zetas))) <= POLE_PROXIMITY:
            raise IntegrationError("initial point is inside the pole-proximity zone", trajectory=start)

        def pole_event(t, y):
            return float(np.min(np.abs(1.0 - y[0] * conj_zetas))) - POLE_PROXIMITY

        pole_event.terminal = True
        pole_event.direction = -1
        events.append(pole_event)

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.array([z0], dtype=complex),
        method="RK45",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=np.linspace(0.0, t_end, n_eval),
        events=events or None,
    )
    traj = Trajectory(times=np.asarray(sol.t, dtype=float), points=np.asarray(sol.y[0]), spec=spec, z0=complex(z0))
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

    def rhs(t, y):
        u = _clamp_into_disk(complex(y[0]))
        p, _ = _p_and_dp(spec, np.array(u))
        return np.array([-complex(p) * u])

    return _integrate_rhs(rhs, spec, z0, float(t_end), float(tol), int(n_eval), guard_start=True)


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
    |u(t)| <= e^(-a_lambda t) |z0|.  p is evaluated at G_lambda(u), not at
    u, so a start inside the pole-proximity zone is allowed.
    """

    def rhs(t, y):
        u = _clamp_into_disk(complex(y[0]))
        w = solve_resolvent(spec, lam, u).w
        return np.array([-eval_p(spec, w) * w])

    return _integrate_rhs(rhs, spec, z0, float(t_end), float(tol), int(n_eval))


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


@dataclass(frozen=True)
class ProductGap:
    """n-fold resolvent composition against the integrated flow."""

    iterated: complex
    integrated: complex
    gap: float


def _flow_endpoint(spec, z0, t, ns, integrator_tol):
    """u(t, z0) for a product-formula check, once the composition counts are checked."""
    if min(ns, default=1) < 1:
        raise DomainError(f"composition count must be >= 1, got {min(ns)}")
    return integrate(spec, z0, t, tol=integrator_tol, n_eval=2).endpoint


def product_formula(
    spec: GeneratorSpec,
    z0: complex,
    t: float,
    n: int,
    integrator_tol: float = 1e-11,
) -> ProductGap:
    """Gap |G_{t/n}^(n)(z0) - u(t, z0)|; empirically O(1/n)."""
    n = int(n)
    integrated = _flow_endpoint(spec, z0, t, [n], integrator_tol)
    iterated = iterate_resolvent(spec, t / n, z0, n) if t else integrated
    return ProductGap(iterated=iterated, integrated=integrated, gap=abs(iterated - integrated))


def ladder_gaps(
    spec: GeneratorSpec,
    z0: complex,
    t: float,
    ns=(8, 16, 32, 64, 128),
    integrator_tol: float = 1e-11,
):
    """Product-formula gaps [(n, gap)] along an n-ladder: one flow endpoint, all rungs composed together."""
    ns = [int(n) for n in ns]
    endpoint = _flow_endpoint(spec, z0, t, ns, integrator_tol)
    iterated = iterate_resolvent(spec, t / np.array(ns), z0, ns) if t else [endpoint] * len(ns)
    return [(n, abs(complex(u) - endpoint)) for n, u in zip(ns, iterated)]


def estimate_accretivity_floor(spec: GeneratorSpec, r: float, n_angles: int = 4096) -> float:
    """Minimum of Re p over the circle |z| = r (the accretivity functional).

    Re(conj(z) p(z) z)/|z|^2 = Re p(z), so this estimates the infimum
    defining the accretivity constant at radius r; it decreases weakly in
    r toward the floor a.  Dense angular sampling plus one parabolic
    refinement of the minimizer.
    """
    if not (0.0 <= r <= 0.999):
        raise DomainError(f"radius must lie in [0, 0.999], got {r}")
    if r == 0.0:
        return spec.q.real
    ang = 2.0 * np.pi * np.arange(int(n_angles)) / int(n_angles)
    vals = eval_p(spec, r * np.exp(1j * ang)).real
    i = int(np.argmin(vals))
    h = 2.0 * np.pi / int(n_angles)
    ym, y0, yp = vals[i - 1], vals[i], vals[(i + 1) % int(n_angles)]
    denom = ym - 2.0 * y0 + yp
    best = float(y0)
    if denom > 0.0:
        delta = 0.5 * (ym - yp) / denom
        theta = ang[i] + delta * h
        best = min(best, float(eval_p(spec, r * np.exp(1j * theta)).real))
    return best

