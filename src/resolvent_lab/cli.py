"""Command-line surface: solving, bound evaluation, figure data, verification.

Subcommands: resolve, bounds, order, fig1, fig2, semigroup, verify.
Exit codes: 0 success (verify: no violations), 1 verify found violations,
2 input/configuration/IO error (also a count too large for memory),
3 solver non-convergence.

Complex inputs use the "re+imi" form (e.g. "1+0.5i"); CSV outputs are
dot-decimal, newline-terminated, with exact header rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from .bounds import (
    calc_order,
    distortion_bound,
    distortion_coefficients,
    est1_bound,
    region_boundary,
    starlike_order_from_rho,
    threshold_m1,
    threshold_m2,
)
from .exceptions import ConfigError, NonConvergenceError, ResolventLabError, _check_count
from .herglotz import _read_json, extremal_generator, load_spec
from .resolvent import solve_resolvent
from .semigroup import integrate, squeeze_check
from .verify import SUITE_NAMES, SuiteConfig, run_suite


def parse_complex(text: str) -> complex:
    """Parse "re+imi" strings such as "1+0.5i", "-i", "2i", "0.7"."""
    t = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    t = re.sub(r"(?<![\d.])i", "1i", t)  # bare i -> 1i
    try:
        return complex(t.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_complex(v: complex) -> str:
    sign = "+" if v.imag >= 0 else "-"
    return f"{_fmt(v.real)}{sign}{_fmt(abs(v.imag))}i"


def _generator_from_args(args) -> "GeneratorSpec":
    """Resolve the one generator source: a spec file XOR inline (q, a).

    Inline parameters build the single-atom extremal generator with
    p(0) = q and floor a, the configuration at which the bounds are sharp.
    """
    has_file = getattr(args, "spec_file", None) is not None
    has_inline = getattr(args, "q", None) is not None
    if has_file == has_inline:
        raise ConfigError("provide exactly one generator source: --spec-file or --q [--a]")
    if has_file:
        return load_spec(args.spec_file)
    return extremal_generator(parse_complex(args.q), args.a)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write(path, header: str, rows=()) -> None:
    """Write the header line and the comma-joined rows to a file, or to stdout for None or "-"."""
    fh, owned = _open_out(path)
    try:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    finally:
        if owned:
            fh.close()


def cmd_resolve(args) -> int:
    spec = _generator_from_args(args)
    z = parse_complex(args.z)
    sol = solve_resolvent(spec, args.lam, z, tol=args.tol)
    if args.json:
        print(json.dumps({
            "w": [sol.w.real, sol.w.imag],
            "g": [sol.g.real, sol.g.imag],
            "residual": sol.residual,
            "iterations": sol.iterations,
            "converged": sol.converged,
        }, indent=2))
    else:
        print(f"w = {_fmt_complex(sol.w)}")
        print(f"g = {_fmt_complex(sol.g)}")
        print(f"residual = {sol.residual:.3e}")
        print(f"iterations = {sol.iterations}")
        print(f"converged = {str(sol.converged).lower()}")
    return 0


def cmd_bounds(args) -> int:
    q = parse_complex(args.q)
    bs = distortion_coefficients(q, args.a, args.lam)
    data = bs.to_dict()
    if args.a == 0.0:
        data["est1"] = est1_bound(q, args.lam)
    if q.real > 0.0:
        if args.a < q.real:
            data["M1"] = threshold_m1(q, args.a)
        data["M2"] = threshold_m2(q, args.lam)
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            if isinstance(value, list):
                print(f"{key} = {_fmt_complex(complex(value[0], value[1]))}")
            else:
                print(f"{key} = {_fmt(value)}")
    return 0


def cmd_order(args) -> int:
    q = parse_complex(args.q)
    cert = calc_order(q, args.a, args.lam)
    rho = args.rho if args.rho is not None else distortion_bound(q, args.a, args.lam)
    est = starlike_order_from_rho(q, args.a, args.lam, rho)
    data = {
        "certified": None if cert is None else {"order": cert.order, "condition": cert.condition},
        "rho": rho,
        "order": est.order,
        "strong_order": est.strong_order,
        "refined": est.refined,
    }
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        if cert is None:
            print("certified = none (no threshold condition holds)")
        else:
            print(f"certified order = {_fmt(cert.order)} (condition {cert.condition})")
        print(f"rho = {_fmt(rho)}")
        print(f"order = {_fmt(est.order)}")
        print(f"strong_order = {_fmt(est.strong_order)}")
        print(f"refined = {str(est.refined).lower()}")
    return 0


def cmd_fig1(args) -> int:
    if args.lambda_min <= 0 or args.lambda_max < args.lambda_min:
        raise ConfigError("need 0 < lambda-min <= lambda-max")
    q = parse_complex(args.q)
    lams = np.linspace(args.lambda_min, args.lambda_max, int(_check_count(args.n_points, "n_points")))
    rows = ((_fmt(l), _fmt(d)) for l, d in zip(lams, distortion_bound(q, args.a, lams)))
    _write(args.out, "lambda,distortion", rows)
    return 0


def cmd_fig2(args) -> int:
    if not (0 < args.s_min < args.s_max):
        raise ConfigError("need 0 < s-min < s-max")
    grid = np.linspace(args.s_min, args.s_max, int(_check_count(args.n_points, "n_points")))
    rows = ((_fmt(s), _fmt(t)) for s, t in zip(grid, region_boundary(grid)))
    _write(args.out, "s,t_star", rows)
    return 0


def cmd_semigroup(args) -> int:
    spec = _generator_from_args(args)
    z0 = parse_complex(args.z0)
    traj = integrate(spec, z0, args.t_end)
    env = traj.envelope(spec.a)
    rows = (
        (_fmt(t), _fmt(u.real), _fmt(u.imag), _fmt(abs(u)), _fmt(e))
        for t, u, e in zip(traj.times, traj.points, env)
    )
    _write(args.out, "t,re_u,im_u,abs_u,envelope", rows)
    report = squeeze_check(traj, spec.a)
    print(f"endpoint = {_fmt_complex(traj.endpoint)}", file=sys.stderr)
    print(
        f"squeeze ok = {str(report.ok).lower()} (worst margin {report.worst_margin:.3e})",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args) -> int:
    cfg = SuiteConfig() if args.config is None else SuiteConfig.from_dict(_read_json(args.config))
    if args.negative_control:
        cfg = dataclasses.replace(cfg, negative_control=True)
    report = run_suite(args.suite, cfg, args.seed)
    _write(args.out, report.to_json())
    n = len(report.violations)
    print(
        f"suite {report.suite}: {n} violation(s), worst margin {report.worst_margin:.3e}, "
        f"{report.elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if report.violations else 0


def _add_qal(sub):
    """--q --a --lambda --json: the closed-form parameters and the output format."""
    sub.add_argument("--q", required=True)
    sub.add_argument("--a", type=float, default=0.0)
    sub.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_argument("--json", action="store_true")


def _add_generator_source(sub):
    sub.add_argument("--spec-file", help="path to a generator spec JSON file")
    sub.add_argument("--q", help='inline p(0), "re+imi" form (single-atom extremal generator)')
    sub.add_argument("--a", type=float, default=0.0, help="accretivity floor for inline q")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvent-lab",
        description="Nonlinear resolvents on the unit disk: solve, bound, verify.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("resolve", help="solve w + lambda p(w) w = z")
    _add_generator_source(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--z", required=True, help='evaluation point, "re+imi" form')
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = subs.add_parser("bounds", help="closed-form constants for (q, a, lambda)")
    _add_qal(p)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("order", help="starlikeness order certification")
    _add_qal(p)
    p.add_argument("--rho", type=float, default=None, help="radius bound (default: distortion)")
    p.set_defaults(func=cmd_order)

    p = subs.add_parser("fig1", help='emit CSV "lambda,distortion" along a lambda grid')
    p.add_argument("--q", default="1")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fig1)

    p = subs.add_parser("fig2", help='emit CSV "s,t_star" for the certified region boundary')
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fig2)

    p = subs.add_parser("semigroup", help="integrate the flow and emit a trajectory CSV")
    _add_generator_source(p)
    p.add_argument("--z0", required=True)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_semigroup)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--config", help="path to a suite config JSON file")
    p.add_argument("--seed", type=int, default=None, help="RESOLVENT_LAB_SEED overrides the default")
    p.add_argument("--negative-control", action="store_true",
                   help="falsify the bound; expect violations (exit 1)")
    p.add_argument("--out", default="-", help="report JSON destination")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ResolventLabError, OSError, ValueError, MemoryError) as exc:
        # MemoryError: a count too large for memory, such as n_angles = 1e15
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
