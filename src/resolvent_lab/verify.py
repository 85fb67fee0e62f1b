"""Seeded property suites pitting every analytic bound against sampled truth.

Each suite draws a deterministic pool of random generators (plus planted
extremal cases that make the bounds tight), checks samples against an
analytic claim, and records any sample whose margin is below the suite
tolerance.  Reports are reproducible bit-for-bit from (seed, config),
except for the elapsed time.  A suite that checks no sample at all is a
configuration error, not a pass.

The seven suites that check solved resolvents are rows of ``_SWEEPS``, all
run by one loop, ``_sweep``.  For every run of consecutive passes on one
generator it does one cold ``solve_resolvent_grid`` on the generator's
sample set, one row per lambda, and one check per solve block: the row's
claim on the (lambda x z) solution, which carries w = G(z) and Q:

    suite                  claim on w = G(z) or Q                   planted
    distortion             |w|/|z| <= distortion(q, a, lam)         atom(1, 0)
    est1                   |w|/|z| <= est1(q, lam)  (a = 0 pool)    atom(1, 0)
    accretivity_f_compose  Re(conj(z) f(w))/|z|^2 >= a_lambda       const(1), atom(1, 0)
    accretivity_resolvent  Re(conj(z) w)/|z|^2 >= d_lambda          const(1), atom(1, 0)
    ineq_z_oracle          quartic radius inequality in |w|^2 < 1   atom(1, 0)
    starlike_half          |Q - 1| <= 1                             atom(1, 0)
    starlike_T             |Q - 1| <= T(rho) when rho <= rho*       atom(1, 1/4)

A row holds only what differs between these suites: the planted specs,
the sample-config override, the passes (the lambda grid by default;
starlike_half adds lambda = 1.999 after the grid, starlike_T adds
lambda = 2 and skips the passes where rho > rho*), the tolerance, the
claim ``(spec, lam, zs, sol) -> (bound, observed)`` on the grid solution,
lam a column, with its direction, the negative-control transform of the
bound, and est1's closed-form side check.  herglotz_equiv, squeeze,
product_formula and thresholds solve no resolvent grid and keep their own
functions; thresholds checks each claim on all of its draws at once.

Negative controls: with ``negative_control`` set, each suite checks a
deliberately falsified version of its bound (tight enough that a planted
sharp case must trip it) and is expected to report at least one violation.
This guards the detection machinery against vacuous passes.

Tolerances follow the rounding error between claim and check: analytic
identities 1e-12 (the T(rho*) = 1 identity scaled by the conditioning of
T at rho*), solver-mediated inequalities 1e-8 (1e-9 for the distortion
family), value-disk and Harnack checks 1e-10 relative to the compared
magnitude, flow envelopes 1e-8, and product-formula gap ratios 0.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .bounds import (
    _alpha_beta,
    _certifying_conditions,
    _t_refines,
    composed_accretivity,
    distortion_bound,
    est1_bound,
    region_boundary,
    resolvent_accretivity,
    rho_star,
    starlike_main_margin,
    t_function,
    threshold_m1,
)
from .exceptions import ConfigError
from .herglotz import (
    GeneratorSpec,
    SampleConfig,
    constant_generator,
    eval_p,
    extremal_generator,
    harnack_bounds,
    sample_generator,
    spec_to_dict,
    value_disk,
)
from .resolvent import solve_resolvent_grid
from .semigroup import integrate, ladder_gaps

# Bound here but not called: perfbench's traced run wraps them in this
# namespace, and tests/test_bindings.py pins every name that run looks up.
from .bounds import threshold_m2  # noqa: F401
from .starlike import starlike_functional_grid  # noqa: F401

DEFAULT_SEED = 1729
_MAX_RECORDED = 100


def default_seed() -> int:
    """Default suite seed; the RESOLVENT_LAB_SEED environment variable overrides."""
    env = os.environ.get("RESOLVENT_LAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"RESOLVENT_LAB_SEED must be an integer, got {env!r}") from exc


def _has_type_of(value, default) -> bool:
    """True when a value has the type of a SuiteConfig default (an int is a float too, if a double holds it)."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites; per-suite meaning noted inline.

    A config is checked at construction, the same way for every suite:
    each value has the type of its default, lies in range, the ladder
    doubles at every rung, and the sampling ranges make a ``SampleConfig``.
    A zero count is left to ``run_suite``.
    """

    n_generators: int = 40
    n_lambdas: int = 12
    lambda_range: tuple = (0.02, 50.0)
    n_radii: int = 5
    n_angles: int = 64
    n_random: int = 176
    r_max: float = 0.999
    max_atoms: int = SampleConfig.max_atoms
    a_range: tuple = SampleConfig.a_range
    scale_range: tuple = SampleConfig.scale_range
    gamma_range: tuple = SampleConfig.gamma_range
    # flow suites (squeeze, product_formula)
    n_trajectories: int = 4
    t_end: float = 1.0
    ladder: tuple = (8, 16, 32, 64, 128)
    # closed-form parameter sweeps
    n_draws: int = 10000
    negative_control: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                ok = isinstance(value, tuple) and (len(value) == 2 or f.name == "ladder")
                ok = ok and all(_has_type_of(v, f.default[0]) for v in value)
            else:
                ok = _has_type_of(value, f.default)
            if not ok:
                raise ConfigError(f"config key {f.name!r} must look like {f.default!r}, got {value!r}")
        counts = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self) if type(f.default) is int]
        for key, n in counts + [("ladder", n) for n in self.ladder]:
            if n < 0:
                raise ConfigError(f"config key {key!r} is a count and must be >= 0, got {n}")
        if not 0.0 < self.r_max < 1.0:
            raise ConfigError(f"r_max must lie in (0, 1), got {self.r_max}")
        if not all(0.0 < lam < math.inf for lam in self.lambda_range):
            raise ConfigError(f"lambda_range entries must be positive and finite, got {list(self.lambda_range)}")
        if not 0.0 <= self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and >= 0, got {self.t_end}")
        # product_formula compares gap(2n) with gap(n)
        if any(n2 != 2 * n1 for n1, n2 in zip(self.ladder, self.ladder[1:])):
            raise ConfigError(f"each ladder rung must double the one before, got {list(self.ladder)}")
        self.sample_config()

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        """Build a config from its JSON form: an object with known keys, lists read as tuples."""
        if not isinstance(data, dict):
            raise ConfigError("suite config must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def sample_config(self) -> SampleConfig:
        return SampleConfig(
            max_atoms=self.max_atoms,
            a_range=self.a_range,
            scale_range=self.scale_range,
            gamma_range=self.gamma_range,
        )


@dataclass(frozen=True)
class Violation:
    """One sample that broke its bound: expected vs observed and the margin."""

    spec: dict | None
    lam: float | None
    z: list | None
    expected: float
    observed: float
    margin: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class VerificationReport:
    suite: str
    generators_tested: int
    samples_per_generator: int
    violations: list
    worst_margin: float
    seed: int
    elapsed: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Collector:
    """Streams margins; keeps the worst one and up to _MAX_RECORDED violations."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = math.inf
        self.violations: list[Violation] = []
        self.count = 0

    def add_array(self, margins, expected, observed, spec=None, lam=None, zs=None, tol=None):
        """Record margins row-major; the rest broadcasts, and ``spec`` may be a function of a recorded flat index."""
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        self.count += margins.size
        self.worst = min(self.worst, float(margins.min(initial=math.inf)))
        bad = np.flatnonzero(margins < -(self.tol if tol is None else tol))[: _MAX_RECORDED - len(self.violations)]
        if bad.size == 0:
            return
        at = np.unravel_index(bad, margins.shape)
        fields = (np.broadcast_to(np.asarray(v), margins.shape)[at].tolist()
                  for v in (spec, lam, zs, expected, observed, margins))
        for k, s, l, z, e, o, m in zip(bad.tolist(), *fields):
            self.violations.append(
                Violation(
                    spec=spec_to_dict(s) if isinstance(s, GeneratorSpec) else s(k) if callable(s) else s,
                    lam=None if l is None else float(l),
                    z=None if z is None else [complex(z).real, complex(z).imag],
                    expected=float(e),
                    observed=float(o),
                    margin=m,
                )
            )


def _spec_pool(seed: int, tag: int, count: int, planted: tuple, scfg: SampleConfig):
    """The planted specs, then ``count`` random generators drawn from the stream (seed, tag)."""
    rng = np.random.default_rng([seed, tag])
    return list(planted) + [sample_generator(int(s), scfg) for s in rng.integers(0, 2**62, size=count)]


def _sample_z(seed: int, idx: int, cfg: SuiteConfig) -> np.ndarray:
    """Per-generator sample set: log-spaced circles, random fill, axis points.

    Extremal behavior concentrates near the boundary and near atom
    directions, so the outermost circle is at r_max and the exact axis
    points +-r_max, +-i r_max are always present.  The claims divide by
    |z|, so z = 0 is dropped.
    """
    radii = np.geomspace(0.1, cfg.r_max, cfg.n_radii)
    angles = 2.0 * np.pi * np.arange(cfg.n_angles) / cfg.n_angles + 0.236
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    rng = np.random.default_rng([seed, idx, 0x5A])
    rr = cfg.r_max * np.sqrt(rng.uniform(0.0, 1.0, cfg.n_random))
    aa = rng.uniform(0.0, 2.0 * np.pi, cfg.n_random)
    axis = np.array([cfg.r_max, -cfg.r_max, 1j * cfg.r_max, -1j * cfg.r_max])
    zs = np.concatenate([grid, rr * np.exp(1j * aa), axis])
    return zs[zs != 0]


# ---------------------------------------------------------------------------
# the solver suites: one sweep loop, one row each
# ---------------------------------------------------------------------------

def _grid_passes(specs, lams):
    """Every generator at every lambda of the grid, generator by generator."""
    return [(i, lam) for i in range(len(specs)) for lam in lams]


@dataclass(frozen=True)
class _Sweep:
    """What one solver suite checks; the loop is ``_sweep``."""

    planted: tuple
    claim: Callable  # (spec, lam, zs, grid solution) -> (bound, observed)
    control: Callable  # bound -> a falsified bound that a planted case breaks
    tol: float = 1e-9
    floor: bool = False  # the claim is observed >= bound, not observed <= bound
    sample_cfg: Callable = SuiteConfig.sample_config
    passes: Callable = _grid_passes  # (specs, lambda grid) -> [(spec index, lam)]
    side: Callable | None = None  # (spec, lam) -> (bound, observed), closed form, never falsified


def _sweep(row: _Sweep, cfg: SuiteConfig, seed: int):
    """One cold solve per run of a generator's passes, checked once against the row's claim.

    Consecutive passes on one generator share one ``solve_resolvent_grid``
    call, one row of points per lambda, and the claim, its control and the
    side check run once on that block, with lambda as a column.  Returns the
    collector, the number of generators and the samples per generator.
    """
    col = _Collector(row.tol)
    specs = _spec_pool(seed, 0xA5, cfg.n_generators, row.planted, row.sample_cfg(cfg))
    zsets = [_sample_z(seed, i, cfg) for i in range(len(specs))]
    grid = np.geomspace(*cfg.lambda_range, cfg.n_lambdas)
    for i, run in itertools.groupby(row.passes(specs, grid), key=lambda p: p[0]):
        spec, zs = specs[i], zsets[i]
        lams = np.array([lam for _, lam in run], dtype=float)[:, None]
        sol = solve_resolvent_grid(spec, lams, zs[None, :])
        bound, observed = row.claim(spec, lams, zs, sol)
        if cfg.negative_control:
            bound = row.control(bound)
        margin = observed - bound if row.floor else bound - observed
        col.add_array(margin, bound, observed, spec, lams, zs)
        if row.side is not None:
            bound, observed = row.side(spec, lams)
            col.add_array(bound - observed, bound, observed, spec, lams, tol=1e-12)
    return col, len(specs), col.count // len(specs)


def _est1_samples(cfg: SuiteConfig) -> SampleConfig:
    """The a = 0 class, with scale kept off 0 (est1 is about Re q > 0)."""
    lo, hi = (max(s, 0.05) for s in cfg.scale_range)
    return dataclasses.replace(cfg.sample_config(), a_range=(0.0, 0.0), scale_range=(lo, hi))


def _f_compose_claim(spec, lam, zs, sol):
    fw = eval_p(spec, sol.w) * sol.w
    return composed_accretivity(spec.q, spec.a, lam), (np.conj(zs) * fw).real / (np.abs(zs) ** 2)


def _ineq_z_claim(spec, lam, zs, sol):
    """|w|^2 (|1 - lam q|^2 + 4 lam a + 1) - |w|^4 |1 + 2 lam a - lam q|^2 < 1."""
    q, a = spec.q, spec.a
    t = np.abs(sol.w) ** 2
    # np.hypot is Python's complex abs; numpy's own complex abs rounds differently
    far = np.hypot(1.0 + 2.0 * lam * a - lam * q.real, lam * q.imag)
    near = np.hypot(1.0 - lam * q.real, lam * q.imag)
    return 1.0, -(t * t) * (far * far) + t * (near * near + 4.0 * lam * a + 1.0)


# Deviation of the planted sharp case peaks near 0.956 (single atom,
# lambda just below 2, sampled at z = -r_max), so a factor-0.9 falsified
# bound must trip while the true bound 1 passes.  Every generator gets the
# lambda = 1.999 pass, after the grid, so each has the same sample count.
_STARLIKE_CONTROL_FACTOR = 0.9
_STARLIKE_SHARP_LAMBDA = 1.999


def _starlike_half_passes(specs, lams):
    return _grid_passes(specs, lams) + _grid_passes(specs, (_STARLIKE_SHARP_LAMBDA,))


# Measured deviation of the planted (q=1, a=1/4, lambda=2) case is ~0.33 of
# its T bound 1.0, so a factor-0.2 falsified bound must trip.
_STARLIKE_T_CONTROL_FACTOR = 0.2


def _starlike_t_passes(specs, lams):
    """The grid plus lambda = 2, where the hypothesis rho <= rho* holds."""
    lams = np.append(lams, 2.0)
    q = np.array([spec.q for spec in specs])[:, None]
    a = np.array([spec.a for spec in specs])[:, None]
    rows, cols = np.nonzero(_t_refines(q, a, lams, distortion_bound(q, a, lams)))
    return list(zip(rows.tolist(), lams[cols].tolist()))


def _starlike_t_claim(spec, lam, zs, sol):
    rho = distortion_bound(spec.q, spec.a, lam)
    return t_function(*_alpha_beta(spec.q, spec.a, lam), rho), np.abs(sol.Q - 1.0)


_SHARP = extremal_generator(1.0, 0.0)
_SHARP_PAIR = (constant_generator(1.0), _SHARP)
_QUARTER = extremal_generator(1.0, 0.25)

_SWEEPS = {
    "distortion": _Sweep(
        planted=(_SHARP,),
        claim=lambda spec, lam, zs, sol: (distortion_bound(spec.q, spec.a, lam), np.abs(sol.w) / np.abs(zs)),
        control=lambda b: 0.99 * b,
    ),
    "est1": _Sweep(
        planted=(_SHARP,),
        claim=lambda spec, lam, zs, sol: (est1_bound(spec.q, lam), np.abs(sol.w) / np.abs(zs)),
        control=lambda b: 0.99 * b,
        sample_cfg=_est1_samples,
        # the a = 0 simplification is never tighter than the general bound
        side=lambda spec, lam: (est1_bound(spec.q, lam), distortion_bound(spec.q, 0.0, lam)),
    ),
    "accretivity_f_compose": _Sweep(
        planted=_SHARP_PAIR,
        claim=_f_compose_claim,
        control=lambda b: b * 1.01 + 1e-9,
        tol=1e-8,
        floor=True,
    ),
    "accretivity_resolvent": _Sweep(
        planted=_SHARP_PAIR,
        claim=lambda spec, lam, zs, sol: (
            resolvent_accretivity(spec.q, spec.a, lam),
            (np.conj(zs) * sol.w).real / (np.abs(zs) ** 2),
        ),
        control=lambda b: b * 1.01 + 1e-9,
        tol=1e-8,
        floor=True,
    ),
    "ineq_z_oracle": _Sweep(
        planted=(_SHARP,),
        claim=_ineq_z_claim,
        control=lambda b: 0.99 * b,
    ),
    "starlike_half": _Sweep(
        planted=(_SHARP,),
        claim=lambda spec, lam, zs, sol: (1.0, np.abs(sol.Q - 1.0)),
        control=lambda b: _STARLIKE_CONTROL_FACTOR * b,
        passes=_starlike_half_passes,
    ),
    "starlike_T": _Sweep(
        planted=(_QUARTER,),
        claim=_starlike_t_claim,
        control=lambda b: _STARLIKE_T_CONTROL_FACTOR * b,
        passes=_starlike_t_passes,
    ),
}


# ---------------------------------------------------------------------------
# suites with their own loops
# ---------------------------------------------------------------------------

def _suite_herglotz_equiv(cfg: SuiteConfig, seed: int):
    """Value-disk membership, the Harnack sandwich, and the floor Re p >= a.

    Control: disk radius and upper Harnack bound * 0.99 (the planted single
    atom sits exactly on the disk boundary along the real axis).  Near an
    atom, p, the disk center and its radius all grow like 1/(1 - r), and
    their rounding errors grow with them, so the tolerance is 1e-10
    relative to |center| + radius, which bounds every quantity compared on
    the circle.
    """
    specs = _spec_pool(seed, 0xA5, cfg.n_generators, (_SHARP,), cfg.sample_config())
    col = _Collector(1e-10)
    factor = 0.99 if cfg.negative_control else 1.0
    radii = np.geomspace(0.1, cfg.r_max, 2 * cfg.n_radii)
    for spec in specs:
        for r in radii:
            ang = 2.0 * np.pi * np.arange(cfg.n_angles) / cfg.n_angles
            zs = r * np.exp(1j * ang)
            zs = np.concatenate([zs, [r + 0.0j, -r + 0.0j]])
            p = eval_p(spec, zs)
            disk = value_disk(spec, float(r))
            lo, hi = harnack_bounds(spec, float(r))
            tol = 1e-10 * max(1.0, abs(disk.center) + disk.radius)
            dist = np.abs(p - disk.center)
            col.add_array(factor * disk.radius - dist, factor * disk.radius, dist, spec, None, zs, tol)
            col.add_array(p.real - lo, lo, p.real, spec, None, zs, tol)
            col.add_array(factor * hi - p.real, factor * hi, p.real, spec, None, zs, tol)
            col.add_array(p.real - spec.a, spec.a, p.real, spec, None, zs, tol)
    return col, len(specs), col.count // len(specs)


def _suite_squeeze(cfg: SuiteConfig, seed: int):
    """Trajectories respect the envelope e^(-a t)|z0|; control: envelope * 0.99.

    The planted constant generator attains the envelope with equality, so
    the falsified envelope must trip.
    """
    col = _Collector(1e-8)
    planted = (constant_generator(1.0), constant_generator(1.0 + 1.0j), _QUARTER)
    specs = _spec_pool(seed, 0xE0, cfg.n_trajectories, planted, cfg.sample_config())
    factor = 0.99 if cfg.negative_control else 1.0
    z0s = [0.6 + 0.0j, -0.45 + 0.45j]
    for spec in specs:
        for z0 in z0s:
            traj = integrate(spec, z0, cfg.t_end)
            env, r = factor * traj.envelope(spec.a), np.abs(traj.points)
            col.add_array(env - r, env, r, spec, None, z0)
    return col, len(specs), col.count // len(specs)


_PRODUCT_RATIO_BOUND = 0.8
_PRODUCT_RATIO_CONTROL = 0.25
_PRODUCT_GAP_FLOOR = 1e-7


def _suite_product_formula(cfg: SuiteConfig, seed: int):
    """Composition gaps decay along the n-ladder: gap(2n) <= 0.8 gap(n).

    Asymptotically the gap is O(1/n) so consecutive ratios sit near 1/2;
    pairs with gaps below 1e-7 are skipped.  Control:
    require ratio <= 0.25, which the planted single-atom ladder (ratios
    near 1/2) must fail.  ``SuiteConfig`` makes each rung double the one before.
    """
    col = _Collector(0.0)
    specs = _spec_pool(seed, 0xF0, cfg.n_trajectories, (_SHARP, constant_generator(1.0)), cfg.sample_config())
    bound = _PRODUCT_RATIO_CONTROL if cfg.negative_control else _PRODUCT_RATIO_BOUND
    z0s = [0.5 + 0.0j, -0.35 + 0.35j]
    for spec in specs:
        for z0 in z0s:
            gaps = ladder_gaps(spec, z0, cfg.t_end, ns=cfg.ladder)
            for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
                if g1 < _PRODUCT_GAP_FLOOR:
                    continue
                col.add_array(bound * g1 - g2, bound * g1, g2, spec, cfg.t_end / n1, z0)
    return col, len(specs), col.count // len(specs)


def _suite_thresholds(cfg: SuiteConfig, seed: int):
    """Closed-form identities and implications over random parameters.

    T(rho*) = 1 to 1e-12 times the conditioning of T at rho*; certified
    conditions imply the radius comparison; the region boundary crosses
    zero exactly at the a = 0 threshold.  Control: evaluates T at
    rho* * (1 + 1e-6), which breaks the identity.

    The conditioning r T'(r) / T(r) at rho* is 1 + rho* + (1 + beta)
    (1 - rho*) / alpha.  It is large when alpha is small, where 1 - rho*
    cancels, so one rounding of rho* moves T(rho*) by far more than 1e-12.
    """
    col = _Collector(1e-12)
    # Re q, Im q, a and log lambda, as uniform(lo, hi) = lo + (hi - lo) u drew them one at a time
    u = np.random.default_rng([seed, 0x7D]).random((cfg.n_draws, 4))
    rq = 0.05 + (3.0 - 0.05) * u[:, 0]
    q = rq + 1j * (-2.0 + 4.0 * u[:, 1])
    a = rq * u[:, 2]
    lam = np.exp(np.log(1e-3) + (np.log(50.0) - np.log(1e-3)) * u[:, 3])
    def spec(on, floor):
        """Draw k of those in ``on`` as a spec with floor ``floor``, built only for a draw that is recorded."""
        draws = np.flatnonzero(on)
        return lambda k: {"q": [rq[draws[k]].item(), q.imag[draws[k]].item()], "a": floor[draws[k]].item()}
    alpha, beta = _alpha_beta(q, a, lam)
    rs = rho_star(q, a, lam)
    r = rs * (1.0 + 1e-6 if cfg.negative_control else 1.0)
    on = (alpha > 0.0) & (r < 1.0)
    err = np.abs(t_function(alpha[on], beta[on], r[on]) - 1.0)
    cond = 1.0 + rs[on] + (1.0 + beta[on]) * (1.0 - rs[on]) / alpha[on]
    col.add_array(-err, 0.0, err, spec(on, a), lam[on], tol=1e-12 * cond)
    # certified conditions must imply the radius comparison
    on = np.logical_or(*_certifying_conditions(q, a, lam))
    margin = starlike_main_margin(q[on], a[on], lam[on])
    col.add_array(margin, 0.0, -margin, spec(on, a), lam[on])
    # region boundary root sits at the a = 0 lambda threshold
    err = np.abs(region_boundary(rq * threshold_m1(q, 0.0)))
    col.add_array(-err, 0.0, err, spec(np.ones_like(rq, dtype=bool), np.zeros_like(a)), None, tol=1e-10)
    return col, cfg.n_draws, 3


_SUITES = {
    **{name: partial(_sweep, row) for name, row in _SWEEPS.items()},
    "herglotz_equiv": _suite_herglotz_equiv,
    "squeeze": _suite_squeeze,
    "product_formula": _suite_product_formula,
    "thresholds": _suite_thresholds,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, config: SuiteConfig | None = None, seed: int | None = None) -> VerificationReport:
    """Run one named suite and return its (deterministic) report.

    Raises ConfigError when the config leaves the suite nothing to check.
    """
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    cfg = config or SuiteConfig()
    seed = default_seed() if seed is None else int(seed)
    start = time.perf_counter()
    collector, n_gen, per_gen = _SUITES[name](cfg, seed)
    elapsed = time.perf_counter() - start
    if collector.count == 0:
        raise ConfigError(f"suite {name} checked no samples at this config")
    return VerificationReport(
        suite=name,
        generators_tested=n_gen,
        samples_per_generator=int(per_gen),
        violations=collector.violations,
        worst_margin=collector.worst,
        seed=seed,
        elapsed=elapsed,
    )
