"""The parameters of every callable that ``resolvent_lab`` exports, in one table.

Each public function and class is listed with its parameters and their
defaults, annotations left out.  A parameter added to or removed from the
public surface, such as a tolerance or an iteration budget, shows as a
one-line change to ``EXPECTED``.  The exception classes that keep the
constructor of their builtin base have no signature to read and are
listed as None.
"""

import inspect
import types

import resolvent_lab

EXPECTED = {
    "BoundSet": "(q, a, lam, A, B, distortion, a_lambda, d_lambda, rho_star, alpha, beta)",
    "ConfigError": None,
    "DomainError": None,
    "GeneratorSpec": "(atoms, a=0.0, scale=1.0, gamma=0.0)",
    "GridSolution": "(w, g, residual, iterations, Q, p)",
    "IntegrationError": "(message, trajectory=None)",
    "NonConvergenceError": "(message, w=None, residual=None, iterations=None, z=None, lam=None)",
    "OrderCertificate": "(order, condition)",
    "OrderEstimate": "(order, strong_order, refined)",
    "ResolventLabError": None,
    "SampleConfig": "(max_atoms=6, a_range=(0.0, 1.0), scale_range=(0.0, 2.0), gamma_range=(-1.0, 1.0))",
    "SqueezeReport": "(ok, worst_margin)",
    "SuiteConfig": (
        "(n_generators=40, n_lambdas=12, n_radii=5, n_angles=64, n_random=176, n_trajectories=4, "
        "n_draws=10000, negative_control=False)"
    ),
    "Trajectory": "(times, points, z0)",
    "VerificationReport": "(suite, generators_tested, samples_per_generator, violations, worst_margin, seed, elapsed)",
    "Violation": "(spec, lam, z, expected, observed, margin)",
    "calc_order": "(q, a, lam)",
    "composed_accretivity": "(q, a, lam)",
    "constant_generator": "(q)",
    "distortion_at_critical_lambda": "(q, a)",
    "distortion_bound": "(q, a, lam)",
    "distortion_coefficients": "(q, a, lam)",
    "est1_bound": "(q, lam)",
    "eval_p": "(spec, z)",
    "extremal_generator": "(q=1.0, a=0.0)",
    "harnack_bounds": "(spec, r)",
    "integrate": "(spec, z0, t_end)",
    "integrate_composed": "(spec, lam, z0, t_end)",
    "iterate_resolvent": "(spec, lam, z, n)",
    "ladder_gaps": "(spec, z0, t)",
    "load_spec": "(path)",
    "region_boundary": "(s)",
    "resolvent_accretivity": "(q, a, lam)",
    "rho_star": "(q, a, lam)",
    "run_suite": "(name, config=None, seed=None)",
    "sample_generator": "(seed, config=None)",
    "solve_resolvent": "(spec, lam, z)",
    "solve_resolvent_grid": "(spec, lam, z)",
    "spec_from_dict": "(data)",
    "spec_to_dict": "(spec)",
    "squeeze_check": "(trajectory, a)",
    "starlike_functional_grid": "(spec, lam, z)",
    "starlike_main_margin": "(q, a, lam)",
    "starlike_order_from_rho": "(q, a, lam, rho)",
    "t_function": "(alpha, beta, r)",
    "threshold_m1": "(q, a)",
    "threshold_m2": "(q, lam)",
    "value_disk": "(spec, r)",
}


def parameters(obj):
    """The signature of ``obj`` without annotations, as text; None when it has none to read."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    empty = inspect.Parameter.empty
    return str(sig.replace(parameters=[p.replace(annotation=empty) for p in sig.parameters.values()],
                           return_annotation=empty))


def test_every_exported_callable_has_its_recorded_parameters():
    exported = {name: obj for name, obj in vars(resolvent_lab).items()
                if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)}
    assert {name: parameters(obj) for name, obj in exported.items()} == EXPECTED
