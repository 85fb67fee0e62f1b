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

``solve_resolvent_grid`` is the one solve path: lambda is broadcast against
z and carried as one complex number per point, so a scalar lambda and an
array of equal lambdas give the same bits.  The result carries Q from the
final p(w), p'(w); ``iterate_resolvent`` composes through it and
``solve_resolvent`` is a one-point grid solve.  The iterate after k rounds
is the w of a run with ``max_iter=k, strict=False``.

Points converge at very different rates (a few rounds in the interior,
tens near an atom at small lambda), so the solver works on a shrinking
working set: once at most half of it is still running, the finished
points are written out and the arrays are cut down to the running ones.
A working set is never cut to a lone point, whose kernel sum numpy would
round in another order; so a point's bits do not depend on the other
points of the call, and one call over a whole lambda grid gives the bits
of one call per lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DomainError, NonConvergenceError, _check_count, _check_lambda, _check_points
from .herglotz import GeneratorSpec, _p_and_dp

DEFAULT_TOL = 1e-12
MAX_ITER = 10_000
_MIN_TOL = 1e-14

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


def _solve_core(spec, lam, z, tol, max_iter):
    """Newton-with-fallback iteration on a flat complex array; returns w, p(w), p'(w), |F|, iterations.

    ``lam`` is complex, one entry per point: every product with lambda is
    complex, and a float array would be cast again in every one of them.

    A round updates only the active points (|F| > tol).  Once at most half
    of the working set is active, and at least two points are, every
    per-point array is cut down to the active ones; never to a lone point,
    whose one-row kernel sum numpy rounds in another order (``_p_and_dp``).
    """
    out = None  # the full-size w, p, p', |F| and iterations, from the first cut on
    idx = np.arange(z.size)
    cap = np.abs(z) + 1e-12
    w = z / (1.0 + lam * spec.q)
    pw, dpw = _p_and_dp(spec, w)
    F = w * (1.0 + lam * pw) - z
    aF = np.abs(F)
    iters = np.zeros(z.shape, dtype=np.int64)
    hold = np.zeros(z.shape, dtype=np.int64)
    best = aF.copy()
    since_best = np.zeros(z.shape, dtype=np.int64)

    for _ in range(max_iter):
        active = aF > tol
        n_active = np.count_nonzero(active)
        if n_active == 0:
            break
        if 2 <= n_active <= z.size // 2:
            if out is None:  # the full-size arrays already hold every finished point
                out = w, pw, dpw, aF, iters
            else:
                done = np.flatnonzero(~active)
                for full, part in zip(out, (w, pw, dpw, aF, iters)):
                    full[idx[done]] = part[done]
            keep = np.flatnonzero(active)
            idx, z, lam, cap, w, pw, dpw, F, aF, iters, hold, best, since_best = (
                a[keep] for a in (idx, z, lam, cap, w, pw, dpw, F, aF, iters, hold, best, since_best)
            )
            active = np.ones(n_active, dtype=bool)
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

    if out is None:
        return w, pw, dpw, aF, iters
    for full, part in zip(out, (w, pw, dpw, aF, iters)):
        full[idx] = part
    return out


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
    lam = _check_lambda(lam)
    if not np.isfinite(tol) or tol < _MIN_TOL:
        raise ConfigError(f"tolerance must be >= {_MIN_TOL:g}, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ConfigError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    arr = _check_points(z)
    try:
        arr, lam = np.broadcast_arrays(arr, lam)
    except ValueError as exc:
        msg = f"lambda of shape {lam.shape} does not broadcast against z of shape {arr.shape}"
        raise DomainError(msg) from exc
    flat, lam = arr.ravel(), lam.astype(complex, order="C").ravel()
    w, pw, dpw, aF, iters = _solve_core(spec, lam, flat, tol, max_iter)
    conv = aF <= tol
    if strict and not conv.all():
        worst = int(np.argmax(aF))
        z_worst, lam_worst = complex(flat[worst]), float(lam[worst].real)
        raise NonConvergenceError(
            f"{int((~conv).sum())} of {flat.size} points unconverged after {max_iter} iterations; "
            f"worst residual {aF[worst]:.3g} at z = {z_worst}, lambda = {lam_worst}",
            w=complex(w[worst]),
            residual=float(aF[worst]),
            iterations=max_iter,
            z=z_worst,
            lam=lam_worst,
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
) -> ResolventSolution:
    """Solve w + lambda p(w) w = z for a single point: a one-point ``solve_resolvent_grid``.

    Returns a ResolventSolution with the grid's bits.  Raises
    NonConvergenceError after ``max_iter``.
    """
    sol = solve_resolvent_grid(spec, float(lam), [complex(z)], tol=tol, max_iter=max_iter)
    return ResolventSolution(
        w=complex(sol.w[0]),
        g=complex(sol.g[0]),
        residual=float(sol.residual[0]),
        iterations=int(sol.iterations[0]),
        converged=True,
    )


def iterate_resolvent(spec: GeneratorSpec, lam, z, n):
    """n-fold composition G_lambda(G_lambda(...(z))); |result| <= |z|.

    lam, z and n broadcast: each point takes its own n steps at its own
    lambda, and the points still running share one grid solve per step.
    n must hold integers >= 1.  Scalar input returns a complex.
    """
    lams, z, counts = np.broadcast_arrays(lam, np.asarray(z, dtype=complex), _check_count(n, "composition count"))
    w = z.copy()
    for k in range(int(counts.max(initial=0))):
        running = counts > k
        w[running] = solve_resolvent_grid(spec, lams[running], w[running]).w
    return complex(w) if w.ndim == 0 else w
