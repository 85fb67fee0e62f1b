"""Finite-atom generators p(z) with Re p >= a on the unit disk.

The library works with maps f(z) = p(z) z whose multiplier is built from a
finite atomic probability measure on the unit circle:

    p(z) = scale * sum_k m_k * (1 + z conj(zeta_k)) / (1 - z conj(zeta_k))
           + a + 1j * gamma,        zeta_k = exp(1j * theta_k),

with scale >= 0, a >= 0 and sum_k m_k = 1.  The Moebius kernel has positive
real part on |z| < 1, so Re p(z) >= a holds everywhere by construction, and
p(0) = q = (a + scale) + 1j * gamma.  Finite atomic data keeps evaluation an
exact weighted sum and reaches the extremal configurations (a single atom on
the real axis) at which the distortion bounds become sharp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DomainError, _check, _check_points

TWO_PI = 2.0 * math.pi

# |1 - z conj(zeta)| below this means we are numerically on a kernel pole.
POLE_GUARD = 1e-14

@dataclass(frozen=True)
class GeneratorSpec:
    """Atomic data defining p (hence f(z) = p(z) z) with Re p >= a.

    atoms  -- tuple of (theta_k, weight_k); thetas wrapped into [0, 2*pi),
              weights positive with a finite total, renormalized to sum to
              1 at construction.
    a      -- accretivity floor, >= 0.
    scale  -- Re p(0) - a, >= 0.  scale == 0 gives the constant p == q.
    gamma  -- Im p(0).

    Every value is finite, and so are p and p' at every point where they
    can be evaluated.  Re q >= a holds structurally, since
    q = (a + scale) + 1j*gamma with scale >= 0.
    """

    atoms: tuple
    a: float = 0.0
    scale: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        try:
            raw = [(float(t), float(w)) for t, w in self.atoms]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"atoms must be (theta, weight) pairs: {exc}") from exc
        if not raw:
            raise ConfigError("at least one atom is required")
        for t, w in raw:
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ConfigError("atom angles and weights must be finite")
            if w <= 0.0:
                raise ConfigError(f"atom weight must be positive, got {w}")
        total = sum(w for _, w in raw)
        if not math.isfinite(total):
            raise ConfigError(f"atom weights must have a finite total, got {total}")
        if abs(total - 1.0) <= 1e-12:
            total = 1.0  # keep construction idempotent for round-trips
        object.__setattr__(self, "atoms", tuple((t % TWO_PI, w / total) for t, w in raw))
        for name in ("a", "scale", "gamma"):
            try:
                v = float(getattr(self, name))
            except (TypeError, ValueError, OverflowError):
                v = math.nan
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite real number")
            if v < 0.0 and name != "gamma":
                raise ConfigError(f"{name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)
        # Every kernel denominator that _p_and_dp accepts has |1 - z conj(zeta)| >= POLE_GUARD: below
        # |z| = 1 - 1e-13 (the solver's domain) it is at least 1 - |z|, above it the guard checks.  A
        # kernel term is then at most 2 / POLE_GUARD in modulus and its derivative 2 / POLE_GUARD^2, so
        # |p| <= a + |gamma| + 2 scale / POLE_GUARD and |p'| <= 2 scale / POLE_GUARD^2.  Both bounds
        # must be finite doubles (scale <= 8.9e279); this also keeps q finite.
        p_max = self.a + abs(self.gamma) + 2.0 * self.scale / POLE_GUARD
        dp_max = 2.0 * self.scale / POLE_GUARD**2
        if not (math.isfinite(p_max) and math.isfinite(dp_max)):
            raise ConfigError(f"p or p' can overflow in the disk: a + |gamma| + 2 scale / {POLE_GUARD:g} = "
                              f"{p_max:.3g} and 2 scale / {POLE_GUARD:g}^2 = {dp_max:.3g} must be finite")
        # What every evaluation reads, fixed here (private, not fields): m_k, conj(zeta_k), p(inf) = a - scale +
        # i gamma, per atom (-conj(zeta_k), a_k = 2 scale m_k, b_k = 2 scale m_k conj(zeta_k)) for _p_and_dp, and
        # the solver's (p1, p2), the z and z^2 Taylor coefficients 2 scale sum_k m_k conj(zeta_k)^j of p at 0.
        weights, conj_zetas = np.array([w for _, w in self.atoms]), np.exp(-1j * np.array([t for t, _ in self.atoms]))
        weighted, two_scale = weights * conj_zetas, 2.0 * self.scale
        terms = zip((-conj_zetas).tolist(), (two_scale * weights).tolist(), (two_scale * weighted).tolist())
        p_series = complex(two_scale * weighted.sum()), complex(two_scale * (weighted * conj_zetas).sum())
        self.__dict__.update(_weights=weights, _conj_zetas=conj_zetas, _p_inf=complex(self.a - self.scale, self.gamma),
                             _terms=tuple(terms), _p_series=p_series)

    @property
    def q(self) -> complex:
        """Value p(0) = (a + scale) + i*gamma."""
        return complex(self.a + self.scale, self.gamma)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

def _p_and_dp(spec: GeneratorSpec, z: np.ndarray):
    """p(z) and p'(z) on points already inside the disk; shared denominators.

    No |z| < 1 check here; callers guarantee it.  The pole guard still
    applies because iterates can drift arbitrarily close to an atom
    direction when |z| itself is close to 1.

    Since (1 + x)/(1 - x) = 2/(1 - x) - 1, the sums are taken atom by atom,
    in the spec's atom order, on 1-D arrays of the points:

        inv_k = 1 / (1 + z (-conj(zeta_k))),
        p     = p(inf) + a_1 inv_1 + a_2 inv_2 + ...,
        p'    = b_1 inv_1^2 + b_2 inv_2^2 + ...,

    with the constants that the spec fixes when it is built.  Every
    operation is elementwise and out-of-place, so a point's p and p' have
    the same bits in every call, whatever the size of the call or the
    point's place in it: numpy
    rounds in-place operations, and a matrix product over a (points x
    atoms) array, differently on a lone point than on a longer array.  The
    temporaries are 1-D and as large as the input, the size of the solver's
    own arrays, so there are no blocks to keep a (points x atoms) array
    below malloc's mmap threshold.
    """
    z = np.asarray(z)
    if spec.scale == 0.0:
        p = np.full(z.shape, complex(spec.a, spec.gamma))
        return p, np.zeros(z.shape, dtype=complex)
    flat = z.reshape(-1)
    near_rim = flat.size > 0 and np.max(np.abs(flat)) > 1.0 - 1e-13
    p, dp = spec._p_inf, 0.0
    for neg_conj_zeta, a_k, b_k in spec._terms:
        denom = 1.0 + flat * neg_conj_zeta
        if near_rim and np.min(np.abs(denom)) < POLE_GUARD:
            raise DomainError("evaluation point is numerically on a kernel pole")
        inv = 1.0 / denom
        p = p + a_k * inv
        dp = dp + b_k * (inv * inv)
    return p.reshape(z.shape), dp.reshape(z.shape)

def eval_p(spec: GeneratorSpec, z):
    """Evaluate p(z) for a scalar or ndarray of points with |z| < 1.

    Guarantees Re p(z) >= a up to roundoff.  Evaluation within 1e-14 of a
    kernel pole (z approaching an atom direction) raises DomainError.
    """
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    p = _p_and_dp(spec, _check_points(z))[0]
    return complex(p[()]) if scalar else p

def value_disk(spec: GeneratorSpec, r):
    """Closed disk |v - center| <= radius containing p(z) for every |z| = r.

    Returns (center, radius): center (q + r^2 conj(q) - 2 a r^2) / (1 - r^2),
    radius 2 r (Re q - a) / (1 - r^2).  For r = 0 this degenerates to {q};
    for scale = 0 the radius vanishes at every r.  An array of radii gives
    the bits of the scalar calls: the center is divided part by part, as
    Python does, since numpy rounds complex-by-real division otherwise.
    """
    r = np.asarray(r, dtype=float)
    _check((0.0 <= r) & (r < 1.0), "radius must satisfy 0 <= r < 1, got {}", r)
    q, rr = spec.q, r * r
    denom = 1.0 - rr
    center = np.empty(r.shape, dtype=complex)
    center.real = (q.real + rr * q.real - 2.0 * spec.a * r * r) / denom
    center.imag = (q.imag - rr * q.imag) / denom
    radius = 2.0 * r * spec.scale / denom
    return (complex(center), float(radius)) if r.ndim == 0 else (center, radius)

def harnack_bounds(spec: GeneratorSpec, r):
    """Sharp two-sided bounds for Re p on the circle |z| = r.

    Returns (lo, hi) with
        lo = ((1 - r) Re q + 2 a r) / (1 + r),
        hi = ((1 + r) Re q - 2 a r) / (1 - r).
    These equal Re(center) -/+ radius of ``value_disk`` identically, and
    lo decreases to a as r -> 1.  An array of radii gives the bits of the
    scalar calls.
    """
    r = np.asarray(r, dtype=float)
    _check((0.0 <= r) & (r < 1.0), "radius must satisfy 0 <= r < 1, got {}", r)
    rq = spec.q.real
    lo = ((1.0 - r) * rq + 2.0 * spec.a * r) / (1.0 + r)
    hi = ((1.0 + r) * rq - 2.0 * spec.a * r) / (1.0 - r)
    return (float(lo), float(hi)) if r.ndim == 0 else (lo, hi)

@dataclass(frozen=True)
class SampleConfig:
    """Ranges used by :func:`sample_generator`."""

    max_atoms: int = 6
    a_range: tuple = (0.0, 1.0)
    scale_range: tuple = (0.0, 2.0)
    gamma_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if int(self.max_atoms) < 1:
            raise ConfigError("max_atoms must be >= 1")
        for name in ("a_range", "scale_range", "gamma_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigError(f"{name} must be a finite (lo, hi) with lo <= hi")
        if self.a_range[0] < 0.0 or self.scale_range[0] < 0.0:
            raise ConfigError("a_range and scale_range must lie within [0, inf)")

def sample_generator(seed, config: SampleConfig | None = None) -> GeneratorSpec:
    """Draw a random generator, deterministic for a fixed seed.

    Angles are uniform on [0, 2*pi); weights are drawn positive and
    renormalized; a, scale, gamma are uniform over the configured ranges.
    """
    cfg = config or SampleConfig()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, cfg.max_atoms + 1))
    thetas = rng.uniform(0.0, TWO_PI, n)
    weights = rng.uniform(0.05, 1.0, n)
    return GeneratorSpec(
        atoms=tuple(zip(thetas.tolist(), weights.tolist())),
        a=float(rng.uniform(*cfg.a_range)),
        scale=float(rng.uniform(*cfg.scale_range)),
        gamma=float(rng.uniform(*cfg.gamma_range)),
    )

def extremal_generator(q: complex = 1.0, a: float = 0.0) -> GeneratorSpec:
    """Single-atom generator with p(0) = q and floor a, its atom at theta = 0.

    For q = 1, a = 0 this is p(z) = (1 + z)/(1 - z), the
    configuration at which the distortion bound is attained.
    """
    q = complex(q)
    if q.real < a:
        raise DomainError(f"need Re q >= a, got Re q = {q.real}, a = {a}")
    return GeneratorSpec(atoms=((0.0, 1.0),), a=a, scale=q.real - a, gamma=q.imag)

def constant_generator(q: complex) -> GeneratorSpec:
    """Constant multiplier p == q (the linear map f(z) = q z); requires Re q >= 0."""
    q = complex(q)
    if q.real < 0.0:
        raise DomainError(f"constant generator needs Re q >= 0, got {q.real}")
    return GeneratorSpec(atoms=((0.0, 1.0),), a=q.real, scale=0.0, gamma=q.imag)

# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {
        "atoms": [{"theta": t, "weight": w} for t, w in spec.atoms],
        "a": spec.a,
        "scale": spec.scale,
        "gamma": spec.gamma,
    }

def spec_from_dict(data: dict) -> GeneratorSpec:
    """Build a spec from its JSON form, dropping atoms of weight 0; GeneratorSpec checks the values."""
    if not isinstance(data, dict):
        raise ConfigError("generator spec must be a JSON object")
    missing = {"atoms", "a", "scale", "gamma"} - set(data)
    if missing:
        raise ConfigError(f"generator spec missing keys: {sorted(missing)}")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ConfigError("atoms must be a non-empty list")
    pairs = []
    for entry in atoms:
        try:
            pairs.append((float(entry["theta"]), float(entry["weight"])))
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad atom entry {entry!r}: {exc}") from exc
    for name in ("a", "scale", "gamma"):
        if isinstance(data[name], bool) or not isinstance(data[name], (int, float)):
            raise ConfigError(f"{name} must be a real number, got {data[name]!r}")
    return GeneratorSpec(
        atoms=tuple((t, w) for t, w in pairs if w != 0.0), a=data["a"], scale=data["scale"], gamma=data["gamma"]
    )

def _read_json(path):
    """The JSON value in a file; invalid JSON is a ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc

def load_spec(path) -> GeneratorSpec:
    return spec_from_dict(_read_json(path))
