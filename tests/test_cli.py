"""CLI contract: subcommands, exit codes, CSV formats, complex parsing."""

import ast
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import resolvent_lab
from resolvent_lab import spec_to_dict, extremal_generator
from resolvent_lab.cli import main, parse_complex
from resolvent_lab.exceptions import MAX_COMPOSITIONS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    """Run the CLI in its own process, killed after 10 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(resolvent_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "resolvent_lab.cli", *argv], capture_output=True, text=True, env=env, timeout=10
    )


def assert_exits_2_at_once(*argv):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1+0.5i", 1 + 0.5j),
            ("1-0.5i", 1 - 0.5j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("1+i", 1 + 1j),
            ("0.75", 0.75),
            ("-0.3", -0.3),
            ("1e-3+2e-2i", 0.001 + 0.02j),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "1+2x", "abc", "1 + + 2i"])
    def test_rejects(self, text):
        from resolvent_lab import ConfigError

        with pytest.raises(ConfigError):
            parse_complex(text)


class TestResolve:
    def test_single_atom_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolve", "--q", "1", "--a", "0", "--lambda", "1", "--z", "0.5"
        )
        assert code == 0
        assert "w = 0.2+0i" in out
        assert "g = 0.4+0i" in out
        # an unconverged solve exits 3, so there is no "converged" line to print
        assert out.endswith("iterations = 4\n")

    def test_constant_via_spec_file(self, capsys, tmp_path):
        path = tmp_path / "const.json"
        path.write_text(
            json.dumps({"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 1.0, "scale": 0.0, "gamma": 0.0})
        )
        code, out, _ = run_cli(
            capsys, "resolve", "--spec-file", str(path), "--lambda", "1", "--z", "0.5", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["w"] == pytest.approx([0.25, 0.0])

    def test_tol_flag_exits_2(self):
        # the solver owns its stopping rule, so --tol is gone and argparse rejects it
        proc = run_process("resolve", "--q", "1", "--lambda", "1", "--z", "0.5", "--tol", "1e-12")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --tol 1e-12" in proc.stderr

    def test_bad_z_exits_2(self, capsys):
        for z in ("1.5", "nan"):
            code, out, err = run_cli(capsys, "resolve", "--q", "1", "--lambda", "1", "--z", z)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [("a", "0.5"), ("a", None), ("scale", True), ("gamma", "0")])
    def test_non_numeric_spec_field_exits_2(self, capsys, tmp_path, key, value):
        data = {"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 0.0, "scale": 1.0, "gamma": 0.0}
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "resolve", "--spec-file", str(path), "--lambda", "1", "--z", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"atoms": [{"theta": 0.0, "weight": 1e308}, {"theta": 1.0, "weight": 1e308}], "a": 0.0, "scale": 1.0,
             "gamma": 0.0},
            {"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 1e308, "scale": 1e308, "gamma": 0.0},
        ],
        ids=["weight-total-overflows", "q-overflows"],
    )
    def test_overflowing_spec_exits_2(self, capsys, tmp_path, data):
        # both once ran: exit 0 with g = -0.5 at lambda = 3, or 10 000 iterations and exit 3
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        for lam, z in (("3", "0.9"), ("1", "0.5")):
            code, out, err = run_cli(capsys, "resolve", "--spec-file", str(path), "--lambda", lam, "--z", z)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["resolve", "--lambda", "1", "--z", "0.5"], ["semigroup", "--z0", "0.5", "--t-end", "1e-310"]],
        ids=["resolve", "semigroup"],
    )
    def test_spec_where_p_overflows_exits_2_at_once(self, tmp_path, argv):
        # q is finite, but p overflows at z = 0.5: resolve once printed numpy warnings and exited 3 after
        # 10 000 iterations, and semigroup was still running after 60 s
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"atoms": [{"theta": 0, "weight": 1}], "a": 0, "scale": 1e308, "gamma": 1e308}))
        assert_exits_2_at_once(argv[0], "--spec-file", str(path), *argv[1:])

    def test_exactly_one_source(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec_to_dict(extremal_generator(1.0, 0.0))))
        code, _, _ = run_cli(capsys, "resolve", "--lambda", "1", "--z", "0.5")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "resolve", "--spec-file", str(path), "--q", "1", "--lambda", "1", "--z", "0.5"
        )
        assert code == 2

    def test_nonconvergence_exits_3(self, capsys, monkeypatch):
        from resolvent_lab import resolvent

        # z = -0.95 takes more than one round, so a budget of one leaves it unconverged
        monkeypatch.setattr(resolvent, "MAX_ITER", 1)
        code, out, err = run_cli(capsys, "resolve", "--q", "1", "--lambda", "1", "--z=-0.95")
        assert (code, out) == (3, "")
        assert err.startswith("error: 1 of 1 points unconverged after 1 iterations")


class TestFig1:
    def test_reference_rows(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run_cli(
            capsys,
            "fig1", "--q", "1", "--a", "0",
            "--lambda-min", "2", "--lambda-max", "3", "--n-points", "2",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "lambda,distortion"
        assert lines[1] == "2,1"
        assert lines[2] == "3,0.5"

    def test_small_floor_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fig1", "--q", "1", "--a", "0.025",
            "--lambda-min", "2", "--lambda-max", "2", "--n-points", "1",
        )
        assert code == 0
        row = out.splitlines()[1]
        value = float(row.split(",")[1])
        # A = 2.2, B = 1.6 by substitution
        assert value == pytest.approx(math.sqrt(2 / (2.2 + math.sqrt(1.6))), abs=1e-10)

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "fig1", "--lambda-min", "0", "--lambda-max", "1", "--n-points", "5"
        )
        assert code == 2


class TestFig2:
    def test_reference_rows(self, capsys):
        s0 = 1 + math.sqrt(5)
        code, out, _ = run_cli(
            capsys, "fig2", "--s-min", "2", "--s-max", f"{s0}", "--n-points", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,t_star"
        assert lines[1].split(",")[1] == "0.25"
        assert abs(float(lines[2].split(",")[1])) < 1e-12

    def test_near_zero_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig2", "--s-min", "0.1", "--s-max", "0.2", "--n-points", "2"
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.9501133787, abs=1e-9)

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "fig2", "--s-min", "-1", "--s-max", "1")
        assert code == 2

    def test_overflowing_s_exits_2(self, capsys):
        # t*(s) overflows a double above s = 1e154
        code, out, err = run_cli(capsys, "fig2", "--s-min", "1", "--s-max", "1e200", "--n-points", "2")
        assert code == 2
        assert out == ""
        assert err == "error: t* overflows a double at s = 1e+200\n"


class TestBoundsAndOrder:
    def test_bounds_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "1", "--a", "0.25", "--lambda", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["distortion"] == pytest.approx(0.5)
        assert data["a_lambda"] == pytest.approx(0.25)
        assert data["M1"] == pytest.approx(2.0)

    def test_overflowing_lambda_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--q", "1", "--lambda", "1e200", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # in its own process too, where a numpy RuntimeWarning would print more stderr lines
        assert_exits_2_at_once("bounds", "--q", "1", "--lambda", "1e200", "--json")

    def test_order_certified(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--q", "1", "--a", "0", "--lambda", "3.5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["certified"]["condition"] == "i"
        assert 0.5 < data["certified"]["order"] < 1.0

    def test_order_not_certified(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--q", "1", "--a", "0", "--lambda", "3", "--json")
        assert code == 0
        assert json.loads(out)["certified"] is None

    @pytest.mark.parametrize(
        "argv",
        [("--q", "1", "--a", "0", "--lambda", "1"), ("--q", "1e-200", "--lambda", "1e100")],
        ids=["distortion-one", "distortion-rounds-to-one"],
    )
    def test_order_at_rho_one(self, capsys, argv):
        code, out, _ = run_cli(capsys, "order", *argv, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rho"] == 1.0
        assert (data["order"], data["strong_order"], data["refined"]) == (0.5, 1.0, False)

    def test_bounds_m1_overflow_exits_2(self):
        # M1 ~ 3.2e310 at q = 1e-310 once printed "M1": Infinity, which is not JSON, and exited 0
        assert_exits_2_at_once("bounds", "--q", "1e-310", "--lambda", "1", "--json")

    def test_order_reads_m1_overflow_as_not_certified(self, capsys):
        code, out, err = run_cli(capsys, "order", "--q", "1e-310", "--lambda", "1")
        assert code == 0, err
        assert out.startswith("certified = none")

    def test_order_names_a_distortion_bound_that_rounds_to_one(self, capsys):
        # condition (ii) holds (M2 = 0.9999999999999998 < a < Re q, so alpha > 0), but the distortion
        # bound rounds to 1, where T has no value
        code, out, err = run_cli(capsys, "order", "--q", "1", "--a", "0.9999999999999999", "--lambda", "1.2e-16")
        assert (code, out) == (2, "")
        assert err == ("error: the distortion bound rounds to 1 at q = (1+0j), a = 0.9999999999999999, "
                       "lambda = 1.2e-16, so T(rho) and the certified order have no value\n")

    def test_order_is_one_where_alpha_is_zero(self, capsys):
        # a = Re q: T vanishes at every radius, so the order is 1 though the distortion bound rounds to 1
        code, out, err = run_cli(capsys, "order", "--q", "1", "--a", "1", "--lambda", "1.2e-16")
        assert code == 0, err
        assert out.startswith("certified order = 1 (condition ii)\nrho = 1\n")

    @pytest.mark.parametrize(
        "argv",
        [("--q", "1", "--a", "1", "--lambda", "5", "--rho", "1"), ("--q", "1", "--a", "1", "--lambda", "1.2e-16")],
        ids=["rho-one", "distortion-rounds-to-one"],
    )
    def test_order_agrees_with_the_certificate_where_alpha_is_zero(self, capsys, argv):
        # T vanishes at every radius, rho = 1 included: the order printed below the certificate was 1/2
        code, out, err = run_cli(capsys, "order", *argv, "--json")
        assert code == 0, err
        data = json.loads(out)
        assert (data["rho"], data["certified"]["order"]) == (1.0, 1.0)
        assert (data["order"], data["strong_order"], data["refined"]) == (1.0, 0.0, True)

    def test_order_at_tiny_lambda_re_q_is_not_certified(self):
        # M2 ~ Re q = 1e-9 > a; its direct form cancelled to below a, and the order failed its own
        # radius comparison with a RuntimeError traceback and exit 1
        proc = run_process("order", "--q", "1e-9", "--a", "1e-12", "--lambda", "1e-9")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("certified = none")

    def test_bounds_tiny_q(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--q", "1e-200", "--lambda", "1e100", "--json")
        assert code == 0, err
        assert json.loads(out)["M1"] == pytest.approx((1 + math.sqrt(5)) * 1e200, rel=1e-12)


class TestSemigroupCommand:
    def test_trajectory_csv(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, err = run_cli(
            capsys,
            "semigroup", "--q", "1", "--a", "1", "--z0", "0.5", "--t-end", "1", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,re_u,im_u,abs_u,envelope"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[3]) == pytest.approx(0.5 * math.exp(-1), abs=1e-6)
        assert float(last[4]) == pytest.approx(0.5 * math.exp(-1), abs=1e-12)
        assert "squeeze ok = true" in err

    @staticmethod
    def _assert_exits_0_at_once(*argv):
        # in its own process within run_process's timeout: 201 finite rows, and only the two summary lines on stderr
        proc = run_process("semigroup", "--q", "1", "--z0", "0.5", *argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,re_u,im_u,abs_u,envelope" and len(lines) == 202
        assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
        err = proc.stderr.splitlines()
        assert len(err) == 2 and err[0].startswith("endpoint = ") and err[1].startswith("squeeze ok = true")

    def test_huge_t_end_exits_0_at_once(self):
        # the exact flow's cost does not grow with t_end
        self._assert_exits_0_at_once("--t-end", "1e300")

    def test_tol_flag_exits_2(self):
        # the flow is exact, so --tol is gone and argparse rejects it
        proc = run_process("semigroup", "--q", "1", "--z0", "0.5", "--tol", "1e-9")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --tol 1e-9" in proc.stderr

    def test_large_q_exits_0_at_once(self):
        # nor with |q| t_end (q = 1e6, t_end = 1)
        self._assert_exits_0_at_once("--q", "1e6")


class TestVerifyCommand:
    CONFIG = {
        "n_generators": 4,
        "n_lambdas": 4,
        "n_radii": 2,
        "n_angles": 8,
        "n_random": 8,
        "n_trajectories": 1,
        "n_draws": 200,
    }

    def test_pass_exit_0(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            "verify", "--suite", "distortion", "--config", str(cfg), "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["violations"] == []
        assert report["seed"] == 3

    def test_negative_control_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, _, _ = run_cli(
            capsys,
            "verify", "--suite", "distortion", "--config", str(cfg), "--seed", "3",
            "--negative-control",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "override",
        [{"n_lambdas": 0}, {"n_generators": "3"}, {"ladder": "abc"}, {"solver_tol": 1e300}, {"r_max": -0.5}],
        ids=["checks-nothing", "string-count", "string-ladder", "huge-solver-tol", "negative-r-max"],
    )
    def test_bad_config_exit_2(self, capsys, tmp_path, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, **override}))
        code, out, err = run_cli(capsys, "verify", "--suite", "distortion", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("suite,code,last", [("squeeze", 0, "suite squeeze: 0 violation(s)"),
                                                 ("product_formula", 2, "error: suite product_formula checked no")])
    def test_flow_suites_take_huge_t_end(self, tmp_path, suite, code, last):
        # every sample underflows to 0: squeeze passes, and the product formula has no gap above its floor left
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "t_end": 1e300}))
        proc = run_process("verify", "--suite", suite, "--config", str(cfg))
        assert proc.returncode == code
        assert proc.stderr.startswith(last) and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "suite,override",
        [("thresholds", {"max_atoms": 0}), ("distortion", {"ladder": [8, 9, 10]}),
         ("thresholds", {"scale_range": [2.0, 1.0]}), ("thresholds", {"t_end": -1.0}),
         ("distortion", {"t_end": -1.0})],
        ids=["zero-max-atoms", "ladder-in-distortion", "empty-scale-range", "negative-t-end-in-thresholds",
             "negative-t-end-in-distortion"],
    )
    def test_config_is_checked_for_every_suite(self, capsys, tmp_path, suite, override):
        # a suite that never reads the key still rejects the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, **override}))
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_count_too_large_for_memory_exit_2(self, capsys, tmp_path):
        # 1e15 angles ask numpy for 7 PiB, which it refuses at once
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 10**15}))
        code, out, err = run_cli(capsys, "verify", "--suite", "distortion", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ladder_above_the_composition_cap_exits_2_at_once(self, tmp_path):
        # 2**41 steps once ran for ever; a rung that size would be a 32 TiB chain, so it must be refused unbuilt
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ladder": [2**40, 2**41]}))
        proc = run_process("verify", "--suite", "product_formula", "--config", str(cfg))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: composition count must be at most {MAX_COMPOSITIONS}, got {2**40}\n"

    def test_ladder_that_does_not_double_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "ladder": [8, 9, 10]}))
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--suite", "product_formula", "--config", str(cfg), "--out", str(out_path)
        )
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_object_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        code, _, _ = run_cli(capsys, "verify", "--suite", "distortion", "--config", str(cfg), "--negative-control")
        assert code == 2

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RESOLVENT_LAB_SEED", "4242")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run_cli(capsys, "verify", "--suite", "thresholds", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["seed"] == 4242


STARTUP_PROBE = """
import contextlib
import io
import sys
import resolvent_lab.cli as cli
from resolvent_lab import semigroup

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert cli.main(["bounds", "--q", "1+0.5i", "--a", "0.25", "--lambda", "2", "--json"]) == 0
assert cli.main(["resolve", "--q", "1", "--lambda", "2", "--z", "0.5+0.3i", "--json"]) == 0
assert scipy_loaded() == [], scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["semigroup", "--q", "1", "--z0", "0.5", "--t-end", "2"]) == 0
spec = cli.extremal_generator(1.0, 0.0)
semigroup.integrate(spec, 0.5, 1.0)
semigroup.integrate_composed(spec, 2.0, 0.5, 1.0)
semigroup.ladder_gaps(spec, 0.5, 1.0)
assert scipy_loaded() == [], scipy_loaded()
print("ok", file=sys.stderr)
"""


def test_library_imports_no_scipy():
    # scipy is a test dependency only
    imported = []
    for path in sorted(pathlib.Path(resolvent_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert [(name, module) for name, module in imported if module.split(".")[0] == "scipy"] == []
    assert ("semigroup.py", "numpy") in imported  # the scan sees the imports


def test_startup_loads_no_scipy():
    """No command and no flow imports scipy: bounds, resolve, semigroup and both integrators run without it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(resolvent_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "ok\n"


# ---------------------------------------------------------------------------
# golden transcript: stdout of successful commands, byte for byte
# ---------------------------------------------------------------------------

GOLDEN_CLI_PATH = pathlib.Path(__file__).with_name("golden_cli.json")
GOLDEN_SPEC = {
    "atoms": [{"theta": 0.4, "weight": 2.0}, {"theta": 3.5, "weight": 1.0}],
    "a": 0.3,
    "scale": 0.9,
    "gamma": -0.2,
}
# "{spec}" and "{config}" stand for files holding GOLDEN_SPEC and TestVerifyCommand.CONFIG
GOLDEN_ARGV = [
    "resolve --q 1 --a 0 --lambda 1 --z 0.5",
    "resolve --q 1+0.5i --a 0.25 --lambda 2 --z 0.3-0.4i --json",
    "resolve --spec-file {spec} --lambda 0.7 --z=-0.6+0.2i",
    "bounds --q 1 --a 0.25 --lambda 2",
    "bounds --q 1+0.5i --a 0.1 --lambda 3 --json",
    "order --q 1 --a 0 --lambda 3.5",
    "order --q 1 --a 0.25 --lambda 2 --rho 0.4 --json",
    "fig1 --q 1 --a 0.025 --lambda-min 0.5 --lambda-max 4 --n-points 8",
    "fig2 --s-min 0.1 --s-max 4 --n-points 6",
    "semigroup --q 1+0.5i --a 0.25 --z0 0.5+0.2i --t-end 2",
    "semigroup --spec-file {spec} --z0=-0.4+0.3i --t-end 1",
    "verify --suite thresholds --config {config} --seed 5",
    "verify --suite starlike_T --config {config} --seed 3",
]


def golden_stdout(command: str, tmp_dir) -> str:
    """Run one transcript command in process and return its stdout, the report's ``elapsed`` line removed."""
    paths = {"spec": tmp_dir / "spec.json", "config": tmp_dir / "config.json"}
    paths["spec"].write_text(json.dumps(GOLDEN_SPEC))
    paths["config"].write_text(json.dumps(TestVerifyCommand.CONFIG))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.format(**paths) for arg in command.split()])
    assert code == 0, command
    return re.sub(r'^  "elapsed": .*\n', "", out.getvalue(), flags=re.M)


@pytest.mark.parametrize("command", GOLDEN_ARGV)
def test_golden_transcript(command, tmp_path):
    # regenerate with `PYTHONPATH=src python tests/test_cli.py` and list every difference
    assert golden_stdout(command, tmp_path) == json.loads(GOLDEN_CLI_PATH.read_text())[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {command: golden_stdout(command, pathlib.Path(tmp)) for command in GOLDEN_ARGV}
    GOLDEN_CLI_PATH.write_text(json.dumps(golden, indent=1) + "\n")
