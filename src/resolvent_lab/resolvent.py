"""Inversion of w + lambda*p(w)*w = z on the unit disk.

For Re p >= a >= 0 the equation has a unique holomorphic solution
w = G_lambda(z) with |w| <= |z|: rewriting it as w = z / (1 + lambda p(w))
shows the right-hand side maps the whole disk into the closed disk of
radius |z| (|1 + lambda p| >= 1 + lambda a >= 1), and that map is a strict
contraction of the hyperbolic metric, so plain fixed-point iteration always
converges -- though only geometrically, and slowly near the boundary.

The solver therefore runs a safeguarded Newton iteration on

    F(w) = w (1 + lambda p(w)) - z,      F'(w) = 1 + lambda p(w) + lambda p'(w) w,

taking the Newton step only when it is finite and stays in the trust disk
|w| <= |z| + 1e-12; otherwise the point takes one step of the fixed-point
map, which is always safe.  Newton supplies the quadratic tail that the
fixed-point iteration lacks.  No step leaves the trust disk, so a
converged point is the root inside the disk, never the second zero F can
have just outside it.

Every solve starts cold, from the third-order Taylor series of G_lambda
at 0 in its [1/2] Pade form.  With D = 1 + lambda q, w0 = z / D (the first
fixed-point step from 0) and p = q + p1 z + p2 z^2 + ..., put
u = lambda p1 / D and v = lambda p2 / D; then

    G_lambda(z) = w0 - u w0^2 + (2 u^2 - v) w0^3 + O(z^4),
    start       = w0 / (1 + u w0 + (v - u^2) w0^2),

which is exact for the Moebius case p = (1 + z)/(1 - z) at lambda = 1.  A
start that is not finite or leaves the trust disk falls back to w0.  The
start only saves rounds (a quarter of the suites' point-iterations); the
trust disk, not the start, makes a converged point the root inside the
disk.  Seeding a solve with the solution at a neighbouring lambda does
not pay: on the geometric lambda grids of the verification suites it took
more iterations than a cold start from w0, and far more on the slowest
points.

``solve_resolvent_grid`` is the one solve path: lambda is broadcast against
z and carried as one complex number per point, so a scalar lambda and an
array of equal lambdas give the same bits.  The result carries Q from the
final p(w), p'(w); ``iterate_resolvent`` composes through it and
``solve_resolvent`` is a one-point grid solve.  The stopping rule is the
module's own: |F| <= DEFAULT_TOL within MAX_ITER rounds, and a point that
misses it raises NonConvergenceError.  The iterate after k rounds is the w
of ``_solve_core`` run with ``max_iter=k``.

Points converge at very different rates (a few rounds in the interior,
tens near an atom at small lambda), so the solver works on a shrinking
working set: once at most half of it is still running, the finished
points are written out and the arrays are cut down to the running ones.
A round makes one kernel call, on the whole working set: gathering the
running points every round would cost more in fancy indexing than it
saves (a solver that did so gave the same bits but raised the
benchmark's ``grid`` median operation from 3.80 to 4.94 ms).  The kernel
gives a point's p and p' the same bits in any call (``_p_and_dp``), and
every other step is elementwise, so a point's bits depend only on
(spec, lambda, z): not on the other points of the call, nor on when the
working set is cut.  One call over a whole lambda grid gives the bits of
one call per lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (MAX_COMPOSITIONS, NonConvergenceError, _check_broadcast, _check_count, _check_lambda,
                         _check_points, _out)
from .herglotz import GeneratorSpec, _p_and_dp

DEFAULT_TOL = 1e-12
MAX_ITER = 10_000
# How far past |z| the trust disk reaches, here and in the flows of ``semigroup``.
_TRUST_SLACK = 1e-12


@dataclass(frozen=True)
class GridSolution:
    """Vectorized solve over an array of z points (shapes all match z); Python scalars from ``solve_resolvent``.

    g is the multiplier with w = g z, computed as 1 / (1 + lambda p(w)),
    which the resolvent equation makes exact.  Q = 1 + lambda p'(w) w /
    (1 + lambda p(w)) is the starlikeness functional (1 at z = 0), and p
    is p(w) from the solve's last kernel call.
    """

    w: np.ndarray
    g: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    Q: np.ndarray
    p: np.ndarray


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _solve_core(spec, lam, z, tol, max_iter):
    """Safeguarded Newton iteration on a flat complex array; returns w, p(w), p'(w), |F|, iterations.

    ``lam`` is complex, one entry per point: every product with lambda is
    complex, and a float array would be cast again in every one of them.

    Each point starts from the Pade form of G_lambda's third-order series,
    or from w0 = z / (1 + lambda q) where that is not finite or not in the
    trust disk (see the module docstring); p1 and p2 are constants of the
    spec, fixed when it was built.  ``max_iter=0`` returns the start.

    A round updates only the active points (|F| > tol).  Once at most half
    of the working set is active, every per-point array is cut down to the
    active ones, however few.  A finished point keeps its w, so the round's
    kernel call gives it the same p, p' and |F| again.  Each active point
    takes its Newton candidate if that is finite and in the trust disk, and
    the fixed-point step otherwise (a division on those points alone); one
    ``_p_and_dp`` call on the working set then gives p and p' at the new
    points, and den = 1 + lambda p and F = w den - z from them serve both
    the residual test and the next round's step.  F' = H'(w) of a univalent
    H does not vanish; a step that is not finite all the same fails the
    trust-disk test.  Overflow and invalid results go unwarned: where
    lambda p(w) overflows, the point's |F| is not finite, it stops, and
    ``solve_resolvent_grid`` raises for it.
    """
    out = None  # the full-size w, p, p', |F| and iterations, from the first cut on
    idx = np.arange(z.size)
    cap = np.abs(z) + _TRUST_SLACK
    p1, p2 = spec._p_series
    D = 1.0 + lam * spec.q
    w = z / D
    r = lam / D
    u, v = r * p1, r * p2
    pade = w / (1.0 + (u + (v - u * u) * w) * w)
    w = np.where(np.abs(pade) <= cap, pade, w)
    pw, dpw = _p_and_dp(spec, w)
    den = 1.0 + lam * pw
    F = w * den - z
    aF = np.abs(F)
    iters = np.zeros(z.shape, dtype=np.int64)

    for _ in range(max_iter):
        active = aF > tol
        n_active = np.count_nonzero(active)
        if n_active == 0:
            break
        if n_active <= z.size // 2:
            if out is None:  # the full-size arrays already hold every finished point
                out = w, pw, dpw, aF, iters
            else:
                done = np.flatnonzero(~active)
                for full, part in zip(out, (w, pw, dpw, aF, iters)):
                    full[idx[done]] = part[done]
            keep = np.flatnonzero(active)
            idx, z, lam, cap, w, pw, dpw, den, F, aF, iters = (
                a[keep] for a in (idx, z, lam, cap, w, pw, dpw, den, F, aF, iters))
            active = np.ones(n_active, dtype=bool)
        iters += active

        cand = w - F / (den + lam * dpw * w)
        newton = np.abs(cand) <= cap
        back = np.flatnonzero(active & ~newton)
        w = np.where(active & newton, cand, w)
        w[back] = z[back] / den[back]
        pw, dpw = _p_and_dp(spec, w)
        den = 1.0 + lam * pw
        F = w * den - z
        aF = np.abs(F)

    if out is None:
        return w, pw, dpw, aF, iters
    for full, part in zip(out, (w, pw, dpw, aF, iters)):
        full[idx] = part
    return out


def solve_resolvent_grid(spec: GeneratorSpec, lam, z) -> GridSolution:
    """Solve the resolvent equation on an array of points at once.

    ``lam`` is one positive number or an array that broadcasts against
    ``z``, one lambda per point; the result takes the broadcast shape.
    Each point starts cold (see the module docstring) and stops iterating
    once converged, so a point's solution does not depend on the others.
    The result carries the starlikeness functional ``Q`` at every point.
    A point still above DEFAULT_TOL after MAX_ITER rounds raises
    NonConvergenceError, naming the worst one.
    """
    lam, arr = _check_broadcast(("lambda", _check_lambda(lam)), ("z", _check_points(z)))
    flat, lam = arr.ravel(), lam.astype(complex, order="C").ravel()
    w, pw, dpw, aF, iters = _solve_core(spec, lam, flat, DEFAULT_TOL, MAX_ITER)
    unconverged = np.count_nonzero(~(aF <= DEFAULT_TOL))  # a residual that is not finite too
    if unconverged:
        worst = int(np.argmax(aF))  # the first NaN, if there is one
        z_worst, lam_worst = complex(flat[worst]), float(lam[worst].real)
        how = (f"after {MAX_ITER} iterations; worst residual {aF[worst]:.3g}" if np.isfinite(aF[worst])
               else "with a residual that is not finite")
        raise NonConvergenceError(
            f"{unconverged} of {flat.size} points unconverged {how} at z = {z_worst}, lambda = {lam_worst}",
            w=complex(w[worst]),
            residual=float(aF[worst]),
            iterations=int(iters[worst]),
            z=z_worst,
            lam=lam_worst,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        den = 1.0 + lam * pw
        # w = 0, so Q = 1, at z = 0; lambda p'(w) w is taken as lambda (p'(w) w) where lambda p'(w) overflows
        ldp = lam * dpw
        Q = 1.0 + np.where(np.isfinite(ldp), ldp * w, lam * (dpw * w)) / den
    shape = arr.shape
    return GridSolution(
        w=w.reshape(shape),
        g=(1.0 / den).reshape(shape),
        residual=aF.reshape(shape),
        iterations=iters.reshape(shape),
        Q=Q.reshape(shape),
        p=pw.reshape(shape),
    )


def solve_resolvent(spec: GeneratorSpec, lam: float, z: complex) -> GridSolution:
    """Solve w + lambda p(w) w = z for a single point: a one-point ``solve_resolvent_grid``.

    Returns its GridSolution with every field a Python scalar of the
    grid's bits, and raises its NonConvergenceError.
    """
    sol = solve_resolvent_grid(spec, float(lam), complex(z))
    return GridSolution(*map(_out, vars(sol).values()))  # the fields, in order


def iterate_resolvent(spec: GeneratorSpec, lam, z, n):
    """n-fold composition G_lambda(G_lambda(...(z))); |result| <= |z|.

    lam, z and n broadcast: each point takes its own n steps at its own
    lambda, and the points still running share one grid solve per step.
    n must hold integers in [1, MAX_COMPOSITIONS].  Scalar input returns a complex.
    """
    counts = _check_count(n, "composition count", maximum=MAX_COMPOSITIONS)
    named = ("lambda", lam), ("z", np.asarray(z, dtype=complex)), ("composition count", counts)
    lams, z, counts = _check_broadcast(*named)
    w = z.copy()
    for k in range(int(counts.max(initial=0))):
        running = counts > k
        w[running] = solve_resolvent_grid(spec, lams[running], w[running]).w
    return _out(w)
