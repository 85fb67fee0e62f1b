"""Verification harness: suite passes, negative controls, determinism, schema.

``golden_reports.json`` holds every suite's report at ``SMALL`` (seed 101),
with and without the negative control, and the ``thresholds`` reports at the
default config (seed 1729), ``elapsed`` removed.  A change that moves a bit
of any report on purpose regenerates it with
``PYTHONPATH=src python tests/test_verify.py`` and lists the differences.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from resolvent_lab import ConfigError, SUITE_NAMES, SuiteConfig, distortion_bound, run_suite, starlike_order_from_rho
from resolvent_lab import verify

SMALL = SuiteConfig(
    n_generators=6,
    n_lambdas=5,
    n_radii=3,
    n_angles=16,
    n_random=12,
    n_trajectories=2,
    n_draws=400,
)
SMALL_SEED = 101
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def stable(report) -> dict:
    """The report as JSON data without ``elapsed``, the one field outside the determinism contract."""
    data = json.loads(report.to_json())
    data.pop("elapsed")
    return data


KINDS = (("pass", False), ("negative_control", True))


def golden_reports() -> dict:
    """Every suite's stable report at SMALL, keyed "pass/<suite>" and "negative_control/<suite>",
    then the thresholds reports at the default config, keyed "default/pass/thresholds" and so on."""
    small = {
        f"{kind}/{name}": stable(run_suite(name, dataclasses.replace(SMALL, negative_control=control), SMALL_SEED))
        for kind, control in KINDS
        for name in SUITE_NAMES
    }
    default = {
        f"default/{kind}/thresholds": stable(run_suite("thresholds", SuiteConfig(negative_control=control), 1729))
        for kind, control in KINDS
    }
    return small | default


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    report = run_suite(name, SMALL, seed=SMALL_SEED)
    assert report.violations == [], f"{name}: {report.violations[:3]}"
    assert report.generators_tested >= 1
    assert report.worst_margin > -1e-8
    assert stable(report) == GOLDEN[f"pass/{name}"]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_negative_control_trips(name):
    cfg = dataclasses.replace(SMALL, negative_control=True)
    report = run_suite(name, cfg, seed=SMALL_SEED)
    assert len(report.violations) >= 1, f"{name}: control failed to trip"
    assert stable(report) == GOLDEN[f"negative_control/{name}"]


@pytest.mark.parametrize("kind,control", KINDS)
def test_default_thresholds_report(kind, control):
    # thresholds is all closed forms, cheap enough to pin at its full default size of 10 000 draws
    report = run_suite("thresholds", SuiteConfig(negative_control=control), seed=1729)
    assert stable(report) == GOLDEN[f"default/{kind}/thresholds"]


def refined_lams(specs, grid):
    """Each spec's lambdas of the grid and lambda = 2 where starlike_order_from_rho says T(rho) refines 1/2."""
    return [
        [lam for lam in map(float, (*grid, 2.0))
         if starlike_order_from_rho(spec.q, spec.a, lam, distortion_bound(spec.q, spec.a, lam)).refined]
        for spec in specs
    ]


def test_sweep_solver_work(monkeypatch):
    # point-iterations of the seven sweep suites at SMALL: 42 094 when every solve started from
    # z / (1 + lambda q), 29 208 from the third-order start; a start that loses the saving fails here
    solve, counts, solved = verify.solve_resolvent_grid, [], []

    def counting(spec, lam, z):
        sol = solve(spec, lam, z)
        counts.append(int(sol.iterations.sum()))
        solved.append(spec)
        return sol

    monkeypatch.setattr(verify, "solve_resolvent_grid", counting)
    grid = np.geomspace(*verify._LAMBDA_RANGE, SMALL.n_lambdas)
    for name, row in verify._SWEEPS.items():
        solved.clear()
        run_suite(name, SMALL, seed=SMALL_SEED)
        # one solve per generator that has any lambda, in pool order (starlike_half once solved each twice)
        specs = verify._spec_pool(SMALL_SEED, 0xA5, SMALL.n_generators, row.planted, row.samples)
        if name == "starlike_T":
            specs = [spec for spec, lams in zip(specs, refined_lams(specs, grid)) if lams]
        assert solved == specs, name
    assert sum(counts) <= 29_208


def test_unknown_suite():
    with pytest.raises(ConfigError):
        run_suite("no_such_suite", SMALL, seed=1)


def test_deterministic_reports():
    a = run_suite("distortion", SMALL, seed=77).to_dict()
    b = run_suite("distortion", SMALL, seed=77).to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def test_seed_changes_report():
    # thresholds draws all parameters from the seed, so the worst margin moves
    a = run_suite("thresholds", SMALL, seed=1).to_dict()
    b = run_suite("thresholds", SMALL, seed=2).to_dict()
    assert a["worst_margin"] != b["worst_margin"]


def test_report_schema():
    report = run_suite("thresholds", SMALL, seed=5)
    data = json.loads(report.to_json())
    assert set(data) == {
        "suite",
        "generators_tested",
        "samples_per_generator",
        "violations",
        "worst_margin",
        "seed",
        "elapsed",
    }
    assert data["suite"] == "thresholds"
    assert data["seed"] == 5
    assert isinstance(data["violations"], list)


def test_violation_schema():
    cfg = dataclasses.replace(SMALL, negative_control=True)
    report = run_suite("distortion", cfg, seed=101)
    entry = report.to_dict()["violations"][0]
    assert set(entry) == {"spec", "lam", "z", "expected", "observed", "margin"}
    assert entry["margin"] < 0
    assert entry["observed"] > entry["expected"]


def test_config_from_dict_round_trip():
    cfg = SuiteConfig.from_dict({"n_generators": 3, "n_lambdas": 0, "negative_control": True})
    assert cfg == SuiteConfig(n_generators=3, n_lambdas=0, negative_control=True)
    assert SuiteConfig.from_dict(dataclasses.asdict(cfg)) == cfg
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"bogus_key": 1})


# Rows with the keys that are module constants now (the ranges, r_max, t_end, the ladder) stay as unknown keys.
BAD_CONFIGS = [
    {"n_generators": "3"},
    {"n_generators": 3.0},
    {"n_lambdas": True},
    {"ladder": "abc"},
    {"ladder": [8, "16"]},
    {"lambda_range": [0.1]},
    {"lambda_range": "0.1,5"},
    {"r_max": "0.9"},
    {"negative_control": 1},
    [],
    {"n_angles": -3},
    {"n_generators": -1},
    {"n_random": -5},
    {"ladder": [-8, -16]},
    {"r_max": -0.5},
    {"r_max": 0.0},
    {"r_max": 1},
    {"r_max": float("nan")},
    {"lambda_range": [0.0, 5.0]},
    {"lambda_range": [0.1, -5.0]},
    {"lambda_range": [0.1, float("inf")]},
    {"t_end": -1.0},
    {"t_end": float("-inf")},
    {"t_end": float("inf")},
    {"t_end": float("nan")},
    {"max_atoms": 0},
    {"scale_range": [2.0, 1.0]},
    {"a_range": [-1.0, 1.0]},
    {"ladder": [8, 9, 10]},
    {"n_lambdas": 2.5},
    {"t_end": 10**400},
]


@pytest.mark.parametrize("data", BAD_CONFIGS)
def test_config_from_dict_rejects_wrong_types(data):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(data)


# Bad values of the fields themselves: a key that is no field is no keyword of the constructor either
BAD_FIELDS = [
    pytest.param({"n_generators": "3"}, id="count-as-text"),
    pytest.param({"n_generators": 3.0}, id="count-as-float"),
    pytest.param({"n_lambdas": True}, id="count-as-bool"),
    pytest.param({"negative_control": 1}, id="switch-as-int"),
    pytest.param({"n_angles": -3}, id="negative-angles"),
    pytest.param({"n_generators": -1}, id="negative-generators"),
    pytest.param({"n_random": -5}, id="negative-random"),
    pytest.param({"n_lambdas": 2.5}, id="count-as-fraction"),
]


@pytest.mark.parametrize("data", BAD_FIELDS)
def test_direct_construction_rejects_the_same(data):
    with pytest.raises(ConfigError):
        SuiteConfig(**data)


def test_solver_tol_is_an_unknown_key():
    # the sweep solves at the solver's own tolerance
    with pytest.raises(ConfigError, match=r"unknown config keys: \['solver_tol'\]"):
        SuiteConfig.from_dict({"solver_tol": 1e-12})


def test_starlike_t_passes_are_where_the_order_is_refined():
    # one rule decides where T(rho) refines the universal bound: the suite's
    # lambdas and starlike_order_from_rho agree on SMALL's pool and lambdas
    row = verify._SWEEPS["starlike_T"]
    specs = verify._spec_pool(SMALL_SEED, 0xA5, SMALL.n_generators, row.planted, row.samples)
    grid = np.geomspace(*verify._LAMBDA_RANGE, SMALL.n_lambdas)
    lams = row.lams(specs, grid)
    assert [ls.tolist() for ls in lams] == refined_lams(specs, grid)
    assert 0 < sum(ls.size for ls in lams) < len(specs) * (len(grid) + 1)


@pytest.mark.parametrize("name,override", [("distortion", {"n_lambdas": 0}), ("thresholds", {"n_draws": 0})])
def test_suite_that_checks_nothing_is_config_error(name, override):
    with pytest.raises(ConfigError):
        run_suite(name, dataclasses.replace(SMALL, **override), seed=1)


@pytest.mark.parametrize("name", ["herglotz_equiv", "thresholds"])
def test_no_false_alarm_at_seed_11(name):
    # seed 11 once tripped absolute tolerances below the rounding error:
    # value-disk radii near 1.5e3 at z = -0.999, and T(rho*) at alpha ~ 3e-9
    report = run_suite(name, SuiteConfig(), seed=11)
    assert report.violations == []


if __name__ == "__main__":
    # one report per line
    lines = [f"{json.dumps(key)}: {json.dumps(report, sort_keys=True)}" for key, report in golden_reports().items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
