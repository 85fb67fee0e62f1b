"""Inversion of w + lambda*p(w)*w = z on the unit disk.

For Re p >= a >= 0 the equation has a unique holomorphic solution
w = G_lambda(z) with |w| <= |z|: rewriting it as w = z / (1 + lambda p(w))
shows the right-hand side maps the whole disk into the closed disk of
radius |z| (|1 + lambda p| >= 1 + lambda a >= 1), and that map is a strict
contraction of the hyperbolic metric, so plain fixed-point iteration always
converges -- though only geometrically, and slowly near the boundary.

The solver therefore runs a guarded Newton iteration on

    F(w) = w (1 + lambda p(w)) - z,      F'(w) = 1 + lambda p(w) + lambda p'(w) w,

accepting a (possibly damped) Newton candidate only when it stays in the
trust disk |w| <= |z| + 1e-12 and strictly reduces |F|; otherwise it falls
back to the fixed-point map, which is always safe.  Newton supplies the
quadratic tail that the fixed-point iteration lacks.

Every solve starts cold from w = z / (1 + lambda q), the first fixed-point
step from 0.  Seeding a solve with the solution at a neighbouring lambda
does not pay: on the geometric lambda grids of the verification suites
it took more iterations than the cold start, and far more on the slowest
points.

``solve_resolvent_grid`` is the one vectorised path: lambda may vary per
point, the result carries Q from the p(w), p'(w) the iteration holds at its
final w, and ``iterate_resolvent`` composes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DomainError, NonConvergenceError
from .herglotz import GeneratorSpec, _check_in_disk, _p_and_dp, rotate_generator

DEFAULT_TOL = 1e-12
MAX_ITER = 10_000

# Reject a Newton step when |F'| falls below this; cannot occur for
# Re p >= 0 away from pathologies (F' = H' of a univalent H), but guarded.
_DERIV_FLOOR = 1e-10
_MAX_BACKTRACK = 26
_NEWTON_HOLD = 8

# F can have a second zero just outside the disk; Newton then pins the
# iterate against the trust-disk cap, cycling with the short fixed-point
# fallback without ever beating its best residual.  When the best residual
# seen has not improved for _STALL_LIMIT iterations, force the (globally
# convergent) fixed-point map for _STALL_HOLD rounds: its escape raises the
# residual temporarily but leaves the trap for good.
_STALL_LIMIT = 30
_STALL_HOLD = 150


@dataclass(frozen=True)
class ResolventSolution:
    """Solved point w = G_lambda(z) together with diagnostics.

    g is the scalar multiplier with w = g*z; it is computed as
    1 / (1 + lambda p(w)), which the resolvent equation makes exact.
    """

    w: complex
    g: complex
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class GridSolution:
    """Vectorized solve over an array of z points (shapes all match z).

    Q = 1 + lambda p'(w) w / (1 + lambda p(w)) is the starlikeness functional (1 at z = 0).
    """

    w: np.ndarray
    g: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    Q: np.ndarray


def _validate_common(lam, tol: float):
    lam = np.asarray(lam, dtype=float)
    bad = ~(np.isfinite(lam) & (lam > 0.0))
    if bad.any():
        raise DomainError(f"lambda must be positive and finite, got {lam[bad].flat[0]}")
    if not np.isfinite(tol) or tol < 1e-14:
        raise ConfigError(f"tolerance must be >= 1e-14, got {tol}")


def _solve_core(spec, lam, z, tol, max_iter, trace=None):
    """Newton-with-fallback iteration on a flat complex array; returns w, p(w), p'(w), |F|, iterations."""
    cap = np.abs(z) + 1e-12
    w = z / (1.0 + lam * spec.q)
    pw, dpw = _p_and_dp(spec, w)
    F = w * (1.0 + lam * pw) - z
    aF = np.abs(F)
    iters = np.zeros(z.shape, dtype=np.int64)
    hold = np.zeros(z.shape, dtype=np.int64)
    best = aF.copy()
    since_best = np.zeros(z.shape, dtype=np.int64)
    if trace is not None:
        trace.append(w.copy())

    for _ in range(max_iter):
        active = aF > tol
        if not active.any():
            break
        iters[active] += 1
        moved = np.zeros(z.shape, dtype=bool)

        Fp = 1.0 + lam * pw + lam * dpw * w
        try_newton = active & (hold == 0) & (np.abs(Fp) > _DERIV_FLOOR)
        if try_newton.any():
            step = np.where(try_newton, F, 0.0) / np.where(try_newton, Fp, 1.0)
            t = np.ones(z.shape)
            pending = try_newton.copy()
            for _bt in range(_MAX_BACKTRACK):
                if not pending.any():
                    break
                cand = w - t * step
                test = pending & (np.abs(cand) <= cap)
                if test.any():
                    safe = np.where(test, cand, 0.0)
                    pc, dpc = _p_and_dp(spec, safe)
                    Fc = safe * (1.0 + lam * pc) - z
                    good = test & (np.abs(Fc) < aF)
                    if good.any():
                        w = np.where(good, cand, w)
                        pw = np.where(good, pc, pw)
                        dpw = np.where(good, dpc, dpw)
                        F = np.where(good, Fc, F)
                        aF = np.abs(F)
                        moved |= good
                        pending &= ~good
                t = np.where(pending, 0.5 * t, t)
            hold[try_newton & ~moved] = _NEWTON_HOLD

        fallback = active & ~moved
        if fallback.any():
            w = np.where(fallback, z / (1.0 + lam * pw), w)
            safe = np.where(fallback, w, 0.0)
            pf, dpf = _p_and_dp(spec, safe)
            pw = np.where(fallback, pf, pw)
            dpw = np.where(fallback, dpf, dpw)
            F = np.where(fallback, w * (1.0 + lam * pw) - z, F)
            aF = np.abs(F)
        hold = np.maximum(hold - 1, 0)
        new_best = aF < 0.9 * best
        best = np.minimum(best, aF)
        since_best = np.where(new_best | ~active, 0, since_best + 1)
        tripped = since_best >= _STALL_LIMIT
        if tripped.any():
            hold[tripped] = _STALL_HOLD
            since_best[tripped] = 0
        if trace is not None:
            trace.append(w.copy())

    return w, pw, dpw, aF, iters


def solve_resolvent_grid(
    spec: GeneratorSpec,
    lam,
    z,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    strict: bool = True,
) -> GridSolution:
    """Solve the resolvent equation on an array of points at once.

    ``lam`` is one positive number or an array that broadcasts against
    ``z``, one lambda per point; the result takes the broadcast shape.
    Each point starts cold (see the module docstring) and stops iterating
    once converged, so a point's solution does not depend on the others.
    The result carries the starlikeness functional ``Q`` at every point.
    With ``strict`` (default) any unconverged point raises
    NonConvergenceError; otherwise inspect ``converged``.
    """
    _validate_common(lam, tol)
    arr = np.asarray(z, dtype=complex)
    _check_in_disk(arr, "resolvent argument")
    if np.ndim(lam):
        arr, lam = np.broadcast_arrays(arr, np.asarray(lam, dtype=float))
        lam = lam.ravel()
    flat = arr.ravel()
    w, pw, dpw, aF, iters = _solve_core(spec, lam, flat, tol, max_iter)
    conv = aF <= tol
    if strict and not conv.all():
        worst = int(np.argmax(aF))
        raise NonConvergenceError(
            f"{int((~conv).sum())} of {flat.size} points unconverged after {max_iter} iterations",
            w=complex(w[worst]),
            residual=float(aF[worst]),
            iterations=max_iter,
        )
    den = 1.0 + lam * pw
    Q = np.where(flat == 0.0, 1.0 + 0.0j, 1.0 + lam * dpw * w / den)
    shape = arr.shape
    return GridSolution(
        w=w.reshape(shape),
        g=(1.0 / den).reshape(shape),
        residual=aF.reshape(shape),
        iterations=iters.reshape(shape),
        converged=conv.reshape(shape),
        Q=Q.reshape(shape),
    )


def solve_resolvent(
    spec: GeneratorSpec,
    lam: float,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    collect_trace: bool = False,
):
    """Solve w + lambda p(w) w = z for a single point.

    Returns a ResolventSolution; with ``collect_trace`` returns
    (solution, [iterates]) so callers can audit that the iteration never
    left |w| <= |z| + 1e-12.  Raises NonConvergenceError after ``max_iter``.
    """
    _validate_common(float(lam), tol)
    zc = complex(z)
    _check_in_disk(zc, "resolvent argument")
    trace = [] if collect_trace else None
    arr = np.array([zc], dtype=complex)
    w, pw, _, aF, iters = _solve_core(spec, lam, arr, tol, max_iter, trace=trace)
    if not aF[0] <= tol:
        raise NonConvergenceError(
            f"no convergence after {max_iter} iterations (residual {aF[0]:.3e})",
            w=complex(w[0]),
            residual=float(aF[0]),
            iterations=max_iter,
        )
    sol = ResolventSolution(
        w=complex(w[0]),
        g=complex((1.0 / (1.0 + lam * pw))[0]),
        residual=float(aF[0]),
        iterations=int(iters[0]),
        converged=True,
    )
    if collect_trace:
        return sol, [complex(t[0]) for t in trace]
    return sol


def solve_slice(
    spec: GeneratorSpec,
    lam: float,
    direction_factor: complex,
    z: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> ResolventSolution:
    """Resolvent of the slice multiplier z -> p(z * u) for |u| = 1.

    Rotating the slice variable by u multiplies each atom interaction by u,
    i.e. shifts every atom angle by -arg(u).  The solution satisfies
    w(z) = conj(u) * w_master(u z) where w_master solves the unrotated
    problem.
    """
    u = complex(direction_factor)
    if abs(abs(u) - 1.0) > 1e-12:
        raise DomainError(f"direction factor must be unimodular, got |u| = {abs(u)}")
    rotated = rotate_generator(spec, -float(np.angle(u)))
    return solve_resolvent(rotated, lam, z, tol=tol, max_iter=max_iter)


def iterate_resolvent(
    spec: GeneratorSpec,
    lam,
    z,
    n,
    tol: float = DEFAULT_TOL,
):
    """n-fold composition G_lambda(G_lambda(...(z))); |result| <= |z|.

    lam, z and n broadcast: each point takes its own n steps at its own
    lambda, and the points still running share one grid solve per step.
    Scalar input returns a complex.
    """
    lams, z, counts = np.broadcast_arrays(lam, np.asarray(z, dtype=complex), np.asarray(n, dtype=np.int64))
    if (counts < 1).any():
        raise DomainError(f"composition count must be >= 1, got {counts.min()}")
    w = z.copy()
    for k in range(int(counts.max(initial=0))):
        running = counts > k
        # a scalar lambda stays a scalar: scalar input keeps the bits of one-point solves
        step_lam = lams[running] if np.ndim(lam) else lam
        w[running] = solve_resolvent_grid(spec, step_lam, w[running], tol=tol).w
    return complex(w) if w.ndim == 0 else w
