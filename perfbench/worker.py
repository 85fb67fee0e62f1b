"""One workload in one fresh process: set up, measure, check, print one JSON line.

Started by run.py, which passes the monotonic instant at which it spawned
this process, so that ``setup_s`` covers interpreter start, the import of
resolvent_lab (through the imports below), building the inputs and the
warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

from resolvent_lab import herglotz

import spans
from workloads import WORKLOADS, import_times


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent spawned us")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Measurement:
    """Timed passes over one workload; keeps the first pass's outputs as the reference."""

    def __init__(self, workload):
        self.wl = workload
        self.first = None
        self.pass_s = []
        self.by_op = [[] for _ in workload.ops]
        self.errors = []

    def run(self, seconds):
        """Whole passes until ``seconds`` have gone by; returns their wall times."""
        walls = []
        start = time.perf_counter()
        while True:
            outs = []
            t_pass = time.perf_counter()
            for k, (_, op) in enumerate(self.wl.ops):
                t = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # an operation that raises counts as failed
                    traceback.print_exc(file=sys.stderr)
                    out = exc
                self.by_op[k].append(time.perf_counter() - t)
                outs.append(out)
            walls.append(time.perf_counter() - t_pass)
            self._compare(outs)
            if time.perf_counter() - start >= seconds:
                break
        self.pass_s.extend(walls)
        return walls

    def _compare(self, outs):
        if self.first is None:
            self.first = outs
            return
        for (name, _), a, b in zip(self.wl.ops, self.first, outs):
            if isinstance(a, Exception) or isinstance(b, Exception):
                same = type(a) is type(b) and str(a) == str(b)
            else:
                same = self.wl.same(a, b)
            if not same:
                self.errors.append(f"{name}: output differs between passes")

    def failures(self):
        """Failed operations per pass, from the full check of the first pass."""
        failed = 0
        for k, out in enumerate(self.first):
            if isinstance(out, Exception):
                failed += 1
                continue
            op_failed, error = self.wl.check(k, out)
            failed += op_failed
            if error:
                self.errors.append(error)
        return failed


def bare_interpreter_s(runs=5):
    """Median wall time of `python -c pass`."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def import_metrics(records):
    """Medians of import_times() records under their BENCHMARK.json names."""
    return {
        "cli.import_s": statistics.median(r["resolvent_lab"] for r in records),
        "cli.import.numpy_s": statistics.median(r["numpy"] for r in records),
        "cli.import.scipy_s": statistics.median(r["scipy"] for r in records),
    }


CLI_SUBCOMMANDS = ("bounds", "resolve", "order", "fig2", "semigroup")


def traced(workload, name, m, seconds):
    """Half the run untraced, half with spans; the per-layer metrics."""
    plain = m.run(seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    if name == "cli":
        workload.importtime = True
    try:
        with_spans = m.run(seconds / 2.0)
        layers = spans.layer_metrics(tracer.spans, len(with_spans))
        if hasattr(workload, "kernel_inputs"):
            mark = len(tracer.spans)
            for _ in range(20):
                for spec, zs in workload.kernel_inputs():
                    herglotz.eval_p(spec, zs)
            layers["herglotz.kernel.point_atoms_per_s"] = spans.kernel_rate(tracer.spans[mark:])
    finally:
        tracer.uninstall()
    layers["cli.python_s"] = bare_interpreter_s()
    if name == "cli":
        layers.update(import_metrics(workload.import_records))
        for sub in CLI_SUBCOMMANDS:
            times = [t for (label, _), ts in zip(workload.ops, m.by_op) if label.endswith("-" + sub) for t in ts[: len(plain)]]
            layers[f"cli.{sub}.s"] = statistics.median(times)
    else:
        cmd = [sys.executable, "-X", "importtime", "-c", "import resolvent_lab"]
        records = [import_times(subprocess.run(cmd, capture_output=True, text=True, check=True).stderr) for _ in range(3)]
        layers.update(import_metrics(records))
        layers.update({f"cli.{sub}.s": 0.0 for sub in CLI_SUBCOMMANDS})
    layers["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    return layers


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    m = Measurement(workload)
    if args.trace:
        metrics = traced(workload, args.workload, m, args.seconds)
    else:
        m.run(args.seconds)
        if args.workload == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(m.pass_s),
            # each operation's median over the passes, then the median operation
            "op_p50_ms": 1e3 * statistics.median(statistics.median(ts) for ts in m.by_op),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    failed_per_pass = m.failures()
    if hasattr(workload, "controls"):
        m.errors.extend(workload.controls())
    for error in m.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not m.errors,
        "attempted": len(workload.ops) * len(m.pass_s),
        "failed": failed_per_pass * len(m.pass_s),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
