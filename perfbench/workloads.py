"""The four workloads: inputs made from the seed, the operations, and their checks.

Each workload has a fixed list of operations (one pass), an untimed
warm-up, and a check for one operation's output.  A check returns
``(failed, error)``: ``failed`` marks an operation that did not complete
as the program promises (it counts in ``failed``), ``error`` a completed
operation whose output is wrong (it makes the run incorrect).  Library
functions are looked up on their modules at call time, so the traced run
sees the benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

from resolvent_lab import herglotz, resolvent, semigroup, starlike, verify

import reference as ref

SUITES = (
    "accretivity_f_compose",
    "accretivity_resolvent",
    "distortion",
    "est1",
    "herglotz_equiv",
    "ineq_z_oracle",
    "product_formula",
    "squeeze",
    "starlike_T",
    "starlike_half",
    "thresholds",
)

# Small enough to run in well under a second, large enough that every
# suite's negative control still meets its planted sharp case.
SMALL_SUITE_CONFIG = dict(n_generators=2, n_lambdas=3, n_random=8, n_angles=16, n_draws=200, n_trajectories=1)

LAMBDAS = np.geomspace(0.02, 50.0, 12)


def _random_spec(rng, n_atoms):
    return herglotz.GeneratorSpec(
        atoms=tuple(zip(rng.uniform(0.0, 2.0 * math.pi, n_atoms).tolist(), rng.uniform(0.05, 1.0, n_atoms).tolist())),
        a=float(rng.uniform(0.0, 1.0)),
        scale=float(rng.uniform(0.05, 2.0)),
        gamma=float(rng.uniform(-1.0, 1.0)),
    )


def _ref_p(spec, z):
    thetas, weights = zip(*spec.atoms)
    return ref.p_atoms(thetas, weights, spec.a, spec.scale, spec.gamma, z)


class Suites:
    """All eleven suites through run_suite at verify's default config; one operation is one suite.

    The suites run at their own default seed, not the benchmark seed: the
    seed picks the random generators, and from one seed to the next that
    changes a pass's work by up to 20%, more than any bound this noisy box
    allows.  The benchmark seed drives the warm-up and the negative controls.
    """

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.ops = [(name, self._runner(name)) for name in SUITES]

    @staticmethod
    def _runner(name):
        return lambda: verify.run_suite(name, verify.SuiteConfig(), seed=verify.DEFAULT_SEED)

    def warm_up(self):
        # every suite once at a small config: the same code paths as a pass
        # at a fraction of its 7-9 s, since set-up is repeated in each run
        small = verify.SuiteConfig(**SMALL_SUITE_CONFIG)
        for name in SUITES:
            verify.run_suite(name, small, seed=self.seed)

    @staticmethod
    def _stable(report):
        data = report.to_dict()
        data.pop("elapsed")
        return data

    def same(self, a, b):
        return self._stable(a) == self._stable(b)

    def check(self, i, report):
        if report.violations:
            return False, f"{report.suite}: {len(report.violations)} violation(s), worst margin {report.worst_margin}"
        if report.generators_tested < 1 or report.samples_per_generator < 1:
            return False, f"{report.suite}: sampled nothing"
        return False, None

    def controls(self):
        """Each suite with its bound falsified must report a violation."""
        cfg = verify.SuiteConfig(negative_control=True, **SMALL_SUITE_CONFIG)
        return [
            f"{name}: negative control reported no violation"
            for name in SUITES
            if not verify.run_suite(name, cfg, seed=self.seed).violations
        ]


class Grid:
    """Cold solves plus the functional Q on ~2k points per (generator, lambda) call."""

    N_POINTS = 2048

    # The generator pool and the ring do not take the benchmark seed.  About
    # a third of random generators have points near an atom at |z| = 0.999
    # where small-lambda solves stall for ~30 rounds and cost 10-40x the
    # median, so a seeded pool of ten would change a pass by +-30%.  A
    # fixed pool keeps those hard cases at one share; the seed draws the
    # interior points.
    POOL_SEED = 0x67

    def __init__(self, seed, workdir):
        pool = np.random.default_rng(self.POOL_SEED)
        self.specs = [
            herglotz.extremal_generator(1.0, 0.0),
            herglotz.extremal_generator(1.0, 0.25),
        ] + [_random_spec(pool, 1 + k % 6) for k in range(10)]
        rng = np.random.default_rng([int(seed), 0x67])
        self.points = [self._points(rng, spec) for spec in self.specs]
        self.ops = [
            (f"g{i}-l{j}", self._op(i, float(lam))) for i in range(len(self.specs)) for j, lam in enumerate(LAMBDAS)
        ]

    def _points(self, rng, spec):
        """The |z| = 0.999 ring, each atom direction at four radii, and a seeded uniform fill."""
        ring = 0.999 * np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
        thetas = np.array([t for t, _ in spec.atoms])
        atoms = np.multiply.outer(np.array([0.5, 0.9, 0.99, 0.999]), np.exp(1j * thetas)).ravel()
        n_fill = self.N_POINTS - ring.size - atoms.size
        fill = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, n_fill)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_fill))
        return np.concatenate([ring, atoms, fill])

    def _op(self, i, lam):
        spec, zs = self.specs[i], self.points[i]

        def op():
            w = resolvent.solve_resolvent_grid(spec, lam, zs).w
            return w, starlike.starlike_functional_grid(spec, lam, zs)

        op.case = (i, lam)
        return op

    def warm_up(self):
        for _, op in self.ops:
            op()

    def same(self, a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def check(self, i, out):
        gi, lam = self.ops[i][1].case
        spec, zs = self.specs[gi], self.points[gi]
        w, Q = out
        where = f"generator {gi}, lambda {lam:.6g}"
        p = _ref_p(spec, w)
        scale = np.abs(w) * (1.0 + lam * np.abs(p)) + np.abs(zs)
        residual = np.abs(w * (1.0 + lam * p) - zs)
        if np.any(residual > 1e-12 + 1e-14 * scale):
            return False, f"{where}: residual {residual.max():.3e}"
        bound = ref.distortion(spec.q, spec.a, lam)
        over = np.abs(w) - bound * np.abs(zs)
        if np.any(over > 1e-9 * np.abs(zs)):
            return False, f"{where}: |w| exceeds the distortion bound by {over.max():.3e}"
        dev = np.abs(Q - 1.0)
        if np.any(dev > 1.0 + 1e-9):
            return False, f"{where}: |Q - 1| = {dev.max():.12g} > 1"
        if gi == 0:
            err = np.abs(w - ref.single_atom_resolvent(lam, zs))
            if np.any(err > 1e-11):
                return False, f"{where}: w off the closed-form root by {err.max():.3e}"
        return False, None

    def kernel_inputs(self):
        return list(zip(self.specs, self.points))


class Flow:
    """Product-formula ladders and composed flows, one scalar solve at a time."""

    T_END = 1.0
    # Generators and lambdas do not take the benchmark seed: the cost of a
    # composed flow depends on them so much that seeding them moved the
    # median operation by 50% between seeds.  The seed draws the directions
    # of the three starting points.
    POOL_SEED = 0xF1

    def __init__(self, seed, workdir):
        pool = np.random.default_rng(self.POOL_SEED)
        q = complex(pool.uniform(0.3, 1.5), pool.uniform(-1.0, 1.0))
        self.specs = [herglotz.constant_generator(q), herglotz.extremal_generator(1.0, 0.0)] + [
            _random_spec(pool, k) for k in (2, 3, 4, 6)
        ]
        # two composed flows per ladder, so that the median operation is a
        # composed flow and not a toss-up between a ~90 ms ladder and a ~25 ms flow
        lams = np.exp(pool.uniform(math.log(0.2), math.log(5.0), (len(self.specs), 3, 2)))
        rng = np.random.default_rng([int(seed), 0xF1])
        z0s = np.array([0.25, 0.4, 0.55]) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
        self.ops = []
        for i, spec in enumerate(self.specs):
            for j, z0 in enumerate(z0s):
                self.ops.append((f"ladder-g{i}-z{j}", self._ladder(i, complex(z0))))
                for k in range(2):
                    self.ops.append((f"composed-g{i}-z{j}-{k}", self._composed(i, float(lams[i, j, k]), complex(z0))))

    def _ladder(self, i, z0):
        spec = self.specs[i]

        def op():
            return semigroup.ladder_gaps(spec, z0, self.T_END)

        op.case = ("ladder", i, z0, None)
        return op

    def _composed(self, i, lam, z0):
        spec = self.specs[i]

        def op():
            return semigroup.integrate_composed(spec, lam, z0, self.T_END)

        op.case = ("composed", i, z0, lam)
        return op

    def warm_up(self):
        for _, op in self.ops:
            op()

    def same(self, a, b):
        if isinstance(a, list):
            return a == b
        return np.array_equal(a.times, b.times) and np.array_equal(a.points, b.points)

    def check(self, i, out):
        kind, gi, z0, lam = self.ops[i][1].case
        spec = self.specs[gi]
        where = f"{kind}, generator {gi}, z0 {z0:.6g}"
        t = self.T_END
        if kind == "ladder":
            gaps = dict(out)
            if gi == 0:
                want = {n: ref.constant_gap(spec.q, z0, t, n) for n in gaps}
            elif gi == 1:
                want = {n: ref.single_atom_gap(z0, t, n) for n in gaps}
            else:
                want = {}
            for n, g in want.items():
                if abs(gaps[n] - g) > 1e-9:
                    return False, f"{where}: gap at n = {n} is {gaps[n]:.12g}, closed form {g:.12g}"
            ns = sorted(gaps)
            for n1, n2 in zip(ns, ns[1:]):
                if gaps[n1] >= 1e-7 and not gaps[n2] < gaps[n1]:
                    return False, f"{where}: gap does not shrink from n = {n1} to n = {n2}"
            return False, None
        if out.times[-1] != t:
            return False, f"{where}: trajectory stops at t = {out.times[-1]}"
        envelope = np.exp(-ref.a_lambda(spec.q, spec.a, lam) * out.times) * abs(z0)
        over = np.abs(out.points) - envelope
        if np.any(over > 1e-8):
            return False, f"{where}, lambda {lam:.6g}: |u| exceeds e^(-a_lambda t)|z0| by {over.max():.3e}"
        return False, None


def _fmt_complex(z):
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def import_times(stderr):
    """Seconds spent importing resolvent_lab, numpy and scipy, from `python -X importtime` output.

    numpy and scipy each sum their package's outermost entries that are not
    nested in the other's, so the two never count the same import twice.
    """
    entries = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    out = {"resolvent_lab": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack = []
    # importtime prints a module after its children; reversed, parents come first
    for depth, name, cumulative in reversed(entries):
        del stack[depth:]
        root = name.split(".")[0]
        outer = {a.split(".")[0] for a in stack}
        if root in out and root not in outer and not (root != "resolvent_lab" and outer & {"numpy", "scipy"}):
            out[root] += cumulative
        stack.append(name)
    return out


def _parse_json(proc):
    return json.loads(proc.stdout)


def _parse_csv(proc):
    lines = proc.stdout.splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def _close(x, y, rel=1e-12, abs_=0.0):
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


class Cli:
    """Sequential `python -m resolvent_lab.cli` processes over a fixed mix; one operation is one process."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([int(seed), 0xC1])
        self.importtime = False
        self.import_records = []
        self.bad_spec = os.path.join(workdir, "spec_a_string.json")
        with open(self.bad_spec, "w", encoding="utf-8") as fh:
            json.dump({"atoms": [{"theta": 0.0, "weight": 1.0}], "a": "0.5", "scale": 1.0, "gamma": 0.0}, fh)
        lam_c = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        q = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(0.0, 0.9 * q.real))
        lam_b = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        lam_r = float(np.exp(rng.uniform(math.log(0.02), math.log(50.0))))
        z = complex(rng.uniform(0.3, 0.95) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        a_o, lam_o = float(rng.uniform(0.3, 0.7)), float(rng.uniform(3.0, 6.0))
        s_lo, s_hi = float(rng.uniform(0.05, 0.5)), float(rng.uniform(5.0, 10.0))
        z0 = complex(rng.uniform(0.3, 0.7) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        self.mix = [
            ("bounds", ["bounds", "--q", "1", "--a", "1", f"--lambda={lam_c!r}", "--json"],
             lambda p: self._bounds(p, 1.0 + 0j, 1.0, lam_c)),
            ("bounds", ["bounds", f"--q={_fmt_complex(q)}", f"--a={a!r}", f"--lambda={lam_b!r}", "--json"],
             lambda p: self._bounds(p, q, a, lam_b)),
            ("resolve", ["resolve", "--q", "1", "--a", "0", f"--lambda={lam_r!r}", f"--z={_fmt_complex(z)}", "--json"],
             lambda p: self._resolve(p, lam_r, z)),
            ("order", ["order", "--q", "1", f"--a={a_o!r}", f"--lambda={lam_o!r}", "--json"],
             lambda p: self._order(p, 1.0 + 0j, a_o, lam_o)),
            ("fig2", ["fig2", f"--s-min={s_lo!r}", f"--s-max={s_hi!r}", "--n-points", "200"],
             lambda p: self._fig2(p, s_lo, s_hi, 200)),
            ("semigroup", ["semigroup", "--q", "1", "--a", "0", f"--z0={_fmt_complex(z0)}", "--t-end", "2"],
             lambda p: self._semigroup(p, z0, 2.0)),
            # rejected inputs: exit 2 with a one-line error and no traceback
            ("resolve", ["resolve", "--q", "1", "--lambda", "1", "--z", "1.5"], None),
            ("bounds", ["bounds", "--q", "1", "--lambda", "1e200", "--json"], None),
            ("resolve", ["resolve", "--spec-file", self.bad_spec, "--lambda", "1", "--z", "0.5"], None),
        ]
        self.ops = [(f"{k}-{sub}", self._runner(args)) for k, (sub, args, _) in enumerate(self.mix)]

    def _runner(self, args):
        def op():
            flags = ["-X", "importtime"] if self.importtime else []
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "resolvent_lab.cli", *args],
                capture_output=True, text=True, timeout=120,
            )
            if self.importtime:
                self.import_records.append(import_times(proc.stderr))
                proc.stderr = "".join(l for l in proc.stderr.splitlines(True) if not l.startswith("import time:"))
            return proc

        return op

    def warm_up(self):
        self.ops[0][1]()

    def same(self, a, b):
        return (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)

    def check(self, i, proc):
        sub, args, checker = self.mix[i]
        if checker is None:
            lines = proc.stderr.strip().splitlines()
            ok = proc.returncode == 2 and len(lines) == 1 and "Traceback" not in proc.stderr
            return not ok, None
        if proc.returncode != 0:
            return True, None
        try:
            err = checker(proc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            err = f"unreadable output: {exc!r}"
        return False, None if err is None else f"{' '.join(args)}: {err}"

    @staticmethod
    def _bounds(proc, q, a, lam):
        data = _parse_json(proc)
        A, B = ref.ab(q, a, lam)
        want = {
            "A": A, "B": B,
            "distortion": ref.distortion(q, a, lam),
            "a_lambda": ref.a_lambda(q, a, lam),
            "rho_star": ref.rho_star(q, a, lam),
            "alpha": lam * (q.real - a),
            "beta": lam * a,
            "M2": ref.m2(q, lam),
        }
        if a < q.real:
            want["M1"] = ref.m1(q, a)
        if a == 0.0:
            want["est1"] = ref.est1(q, lam)
        for key, value in want.items():
            if not _close(data[key], value, rel=1e-12, abs_=1e-15):
                return f"{key} = {data[key]!r}, closed form {value!r}"
        d_ref = 1.0 / (1.0 + lam) if (q == 1.0 and a == 1.0) else ref.d_lambda(q, a, lam)
        if not _close(data["d_lambda"], d_ref, rel=1e-10, abs_=1e-12):
            return f"d_lambda = {data['d_lambda']!r}, reference {d_ref!r}"
        return None

    @staticmethod
    def _resolve(proc, lam, z):
        data = _parse_json(proc)
        w = complex(*data["w"])
        want = complex(ref.single_atom_resolvent(lam, z))
        if abs(w - want) > 1e-11:
            return f"w = {w!r}, closed-form root {want!r}"
        return None

    @staticmethod
    def _order(proc, q, a, lam):
        data = _parse_json(proc)
        certified, rho, order, strong, refined = ref.order(q, a, lam)
        got = data["certified"]
        if (got is None) != (certified is None):
            return f"certified = {got!r}, closed form {certified!r}"
        if certified is not None and (got["condition"] != certified[1] or not _close(got["order"], certified[0])):
            return f"certified = {got!r}, closed form {certified!r}"
        if data["refined"] != refined:
            return f"refined = {data['refined']!r}, closed form {refined!r}"
        for key, value in (("rho", rho), ("order", order), ("strong_order", strong)):
            if not _close(data[key], value, rel=1e-12, abs_=1e-15):
                return f"{key} = {data[key]!r}, closed form {value!r}"
        return None

    @staticmethod
    def _fig2(proc, s_lo, s_hi, n):
        header, rows = _parse_csv(proc)
        if header != "s,t_star" or len(rows) != n:
            return f"header {header!r} with {len(rows)} rows"
        for (s, t), s_want in zip(rows, np.linspace(s_lo, s_hi, n)):
            if not _close(s, s_want, rel=1e-11) or not _close(t, ref.t_star(s), rel=1e-11, abs_=1e-11):
                return f"row s = {s!r}, t* = {t!r}; closed form s = {s_want!r}, t* = {ref.t_star(s)!r}"
        return None

    @staticmethod
    def _semigroup(proc, z0, t_end):
        header, rows = _parse_csv(proc)
        if header != "t,re_u,im_u,abs_u,envelope" or not rows or rows[-1][0] != t_end:
            return f"header {header!r}, last row {rows[-1] if rows else None!r}"
        for t, re_u, im_u, abs_u, env in rows:
            u, want = complex(re_u, im_u), ref.koebe_flow(z0, t)
            if abs(u - want) > 1e-7 or not _close(abs_u, abs(u), rel=1e-11) or not _close(env, abs(z0), rel=1e-11):
                return f"row t = {t!r}: u = {u!r}, closed form {want!r}"
        return None


WORKLOADS = {"suites": Suites, "grid": Grid, "flow": Flow, "cli": Cli}
