import numpy as np
import pytest

from resolvent_lab import constant_generator, extremal_generator, sample_generator


@pytest.fixture
def single_atom():
    """p(z) = (1 + z)/(1 - z): q = 1, a = 0, one atom at theta = 0."""
    return extremal_generator(1.0, 0.0)


@pytest.fixture
def quarter_floor_atom():
    """Single atom with q = 1, a = 1/4 (p = 0.75 (1+z)/(1-z) + 0.25)."""
    return extremal_generator(1.0, 0.25)


@pytest.fixture
def constant_one():
    """Constant p == 1 (the linear map f(z) = z)."""
    return constant_generator(1.0)


@pytest.fixture
def random_specs():
    """A small deterministic pool of random generators."""
    return [sample_generator(seed) for seed in range(101, 131)]


def disk_points(rng, n, r_max=0.9):
    """Uniform sample of the disk of radius r_max."""
    r = r_max * np.sqrt(rng.uniform(0, 1, n))
    a = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * a)


def critical_distortion_shortcut(q, a):
    """sqrt(Re q / (4a + Re q)): a circulating shortcut for the distortion bound at lambda0 = 2 Re q / |q|^2,
    wrong whenever a > 0 (q = 1, a = 1/4 gives sqrt(1/2) against the correct 1/2); kept as a test oracle."""
    return (q.real / (4.0 * a + q.real)) ** 0.5
