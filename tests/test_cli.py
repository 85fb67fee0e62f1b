"""CLI contract: subcommands, exit codes, CSV formats, complex parsing."""

import json
import math
import os
import subprocess
import sys

import pytest

import resolvent_lab
from resolvent_lab import spec_to_dict, extremal_generator
from resolvent_lab.cli import main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert "converged = true" in out

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
        from resolvent_lab import NonConvergenceError
        import resolvent_lab.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonConvergenceError("forced", residual=1.0)

        monkeypatch.setattr(cli_mod, "solve_resolvent", boom)
        code, _, err = run_cli(capsys, "resolve", "--q", "1", "--lambda", "1", "--z", "0.5")
        assert code == 3
        assert "forced" in err


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
    def _assert_exits_2_at_once(*argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(resolvent_lab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "resolvent_lab.cli", "semigroup", "--q", "1", "--z0", "0.5", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_huge_t_end_exits_2_at_once(self):
        # unbounded, the step count grows like t_end and the call never ends
        self._assert_exits_2_at_once("--t-end", "1e300")

    def test_nan_tol_exits_2_at_once(self):
        # a NaN tolerance once kept the adaptive stepper running forever
        self._assert_exits_2_at_once("--tol", "nan")


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
import sys
import resolvent_lab.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert cli.main(["bounds", "--q", "1+0.5i", "--a", "0.25", "--lambda", "2", "--json"]) == 0
assert cli.main(["resolve", "--q", "1", "--lambda", "2", "--z", "0.5+0.3i", "--json"]) == 0
assert scipy_loaded() == [], scipy_loaded()
cli.integrate(cli.extremal_generator(1.0, 0.0), 0.5, 1.0)
assert "scipy.integrate" in scipy_loaded()
print("ok", file=sys.stderr)
"""


def test_startup_loads_no_scipy():
    """Only the flow integration imports scipy; bounds and resolve run without it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(resolvent_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "ok\n"
