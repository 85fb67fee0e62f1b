"""Spans around the calls into each layer of resolvent_lab, for the traced run.

A wrapper replaces a public function where the calling module binds it
(``resolvent_lab.verify.solve_resolvent_grid``, not only
``resolvent_lab.resolvent.solve_resolvent_grid``), so calls between
modules are seen without touching the library.  Each call records a span
(layer, start, end, parent) and the work counts read from its arguments
and result.  Self time is a span's duration minus the time its child spans
cover.  The timed runs install none of this.
"""

from __future__ import annotations

import time

import numpy as np

from resolvent_lab import herglotz, resolvent, semigroup, starlike, verify

from workloads import SUITES

_BOUNDS_NAMES = (
    "composed_accretivity",
    "distortion_bound",
    "est1_bound",
    "region_boundary",
    "resolvent_accretivity",
    "rho_star",
    "starlike_main_margin",
    "t_function",
    "threshold_m1",
    "threshold_m2",
)


def _point_atoms(args, kwargs, result):
    spec, z = args[0], args[1]
    return {"point_atoms": int(np.size(z)) * (spec.n_atoms if spec.scale > 0.0 else 0)}


def _grid_counts(args, kwargs, result):
    it = result.iterations
    top = int(it.max()) if it.size else 0
    return {"points": int(it.size), "iterations": int(it.sum()), "rounds": top, "slots": top * int(it.size)}


def _scalar_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _suite_name(args, kwargs, result):
    return {"suite": args[0]}


# (module, attribute, layer, counter); the module is where callers look the
# name up.  Only the bindings that the workloads' call paths go through.
BINDINGS = [
    (verify, "eval_p", "herglotz.eval_p", _point_atoms),
    (semigroup, "eval_p", "herglotz.eval_p", _point_atoms),
    (herglotz, "eval_p", "herglotz.eval_p", _point_atoms),
    (verify, "solve_resolvent_grid", "resolvent.grid", _grid_counts),
    (starlike, "solve_resolvent_grid", "resolvent.grid", _grid_counts),
    (resolvent, "solve_resolvent_grid", "resolvent.grid", _grid_counts),
    (resolvent, "solve_resolvent", "resolvent.scalar", _scalar_counts),
    (semigroup, "solve_resolvent", "resolvent.scalar", _scalar_counts),
    (verify, "starlike_functional_grid", "starlike.functional_grid", None),
    (starlike, "starlike_functional_grid", "starlike.functional_grid", None),
    (verify, "integrate", "semigroup.integrate", None),
    (semigroup, "integrate", "semigroup.integrate", None),
    (semigroup, "integrate_composed", "semigroup.integrate_composed", None),
    (verify, "ladder_gaps", "semigroup.ladder_gaps", None),
    (semigroup, "ladder_gaps", "semigroup.ladder_gaps", None),
    (verify, "run_suite", "verify", _suite_name),
] + [(verify, name, "bounds", None) for name in _BOUNDS_NAMES]


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = None

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Installs the wrappers, keeps the spans in memory, restores on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved = []

    def _wrap(self, fn, layer, counter):
        spans, stack = self.spans, self._stack
        name = fn.__name__

        def wrapper(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attr, layer, counter in BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_metrics(spans, n_passes):
    """Per-pass totals of every traced layer, keyed by the BENCHMARK.json names."""
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def per_pass(x):
        return x / n_passes

    def total(layer, key=None):
        group = by_layer.get(layer, [])
        if key is None:
            return sum(s.self_s for s in group)
        return sum(s.counts[key] for s in group if s.counts)

    out = {}
    ev = by_layer.get("herglotz.eval_p", [])
    out["herglotz.eval_p.calls"] = per_pass(len(ev))
    out["herglotz.eval_p.self_s"] = per_pass(total("herglotz.eval_p"))
    out["herglotz.kernel.point_atoms_per_s"] = kernel_rate(ev)

    grid = by_layer.get("resolvent.grid", [])
    points, slots = total("resolvent.grid", "points"), total("resolvent.grid", "slots")
    iterations = total("resolvent.grid", "iterations")
    grid_s = total("resolvent.grid")
    out["resolvent.grid.calls"] = per_pass(len(grid))
    out["resolvent.grid.points"] = per_pass(points)
    out["resolvent.grid.self_s"] = per_pass(grid_s)
    out["resolvent.grid.us_per_point"] = 1e6 * grid_s / points if points else 0.0
    out["resolvent.grid.iterations"] = per_pass(iterations)
    out["resolvent.grid.rounds"] = per_pass(total("resolvent.grid", "rounds"))
    out["resolvent.grid.max_iter"] = max((s.counts["rounds"] for s in grid if s.counts), default=0)
    out["resolvent.grid.active_share"] = iterations / slots if slots else 0.0

    scalar = by_layer.get("resolvent.scalar", [])
    scalar_s = total("resolvent.scalar")
    out["resolvent.scalar.calls"] = per_pass(len(scalar))
    out["resolvent.scalar.self_s"] = per_pass(scalar_s)
    out["resolvent.scalar.us_per_call"] = 1e6 * scalar_s / len(scalar) if scalar else 0.0
    out["resolvent.scalar.iterations"] = per_pass(total("resolvent.scalar", "iterations"))

    out["bounds.calls"] = per_pass(len(by_layer.get("bounds", [])))
    out["bounds.self_s"] = per_pass(total("bounds"))
    ra = [s for s in by_layer.get("bounds", []) if s.name == "resolvent_accretivity"]
    out["bounds.resolvent_accretivity.us_per_call"] = 1e6 * sum(s.self_s for s in ra) / len(ra) if ra else 0.0

    out["starlike.functional_grid.calls"] = per_pass(len(by_layer.get("starlike.functional_grid", [])))
    out["starlike.functional_grid.self_s"] = per_pass(total("starlike.functional_grid"))

    for name in ("integrate", "integrate_composed", "ladder_gaps"):
        out[f"semigroup.{name}.self_s"] = per_pass(total(f"semigroup.{name}"))
    out["semigroup.integrate.calls"] = per_pass(len(by_layer.get("semigroup.integrate", [])))

    suites = by_layer.get("verify", [])
    for suite in SUITES:
        out[f"verify.{suite}.s"] = per_pass(sum(s.end - s.start for s in suites if s.counts and s.counts["suite"] == suite))
    out["verify.self_s"] = per_pass(total("verify"))
    return out


def kernel_rate(eval_spans):
    """Kernel point-atom evaluations per second of eval_p self time."""
    done = [s for s in eval_spans if s.counts]
    work = sum(s.counts["point_atoms"] for s in done)
    busy = sum(s.self_s for s in done)
    return work / busy if busy > 0.0 else 0.0
