"""Benchmark entry point: one workload of resolvent-lab, one JSON result line.

    python3 perfbench/run.py --workload {suites,grid,flow,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs to be installed.
The workload runs in a fresh worker process (perfbench/worker.py) with
``src`` on its path and one BLAS thread.  With ``--trace 0`` the
last line of standard output holds the end-to-end metrics; set-up is
repeated in SETUP_PROBES extra processes and reported as the median.
With ``--trace 1`` it holds the per-layer metrics of a run with spans
around each layer.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("suites", "grid", "flow", "cli")
SETUP_PROBES = 2
DEADLINE_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one resolvent-lab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on a 2-core box a second OpenBLAS thread made the same
    # 2048-point solve take anywhere from 0.02 s to 0.9 s.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir, deadline, setup_only=False):
    """Start one worker, wait for it, return its last stdout line as JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env(), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker did not finish within {DEADLINE_S:.0f} s")
    finally:
        if proc.poll() is None:  # timed out or interrupted: end the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: {args.workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "resolvent_lab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a resolvent-lab checkout (no src/resolvent_lab or BENCHMARK.json)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        probes = [] if args.trace else [run_worker(args, workdir, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        result = run_worker(args, workdir, deadline)
    if not args.trace:
        setups = [p["setup_s"] for p in probes] + [result["metrics"]["setup_s"]]
        result["metrics"]["setup_s"] = statistics.median(setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print(f"perfbench: metrics {sorted(set(units) ^ set(result['metrics']))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
