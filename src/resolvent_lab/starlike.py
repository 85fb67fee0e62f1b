"""Starlikeness functional of resolvents.

For G(z) = g(z) z solving the resolvent equation, the functional

    Q(z) = G(z) / (z G'(z)) = 1 + lambda p'(w) w / (1 + lambda p(w)),   w = G(z),

measures starlikeness: G is starlike of order gamma iff Q stays in the disk
|Q - 1/(2 gamma)| <= 1/(2 gamma), and strongly starlike of order beta iff
|arg Q| <= pi beta / 2.  Every resolvent of the implemented class satisfies
|Q - 1| <= 1 (order at least 1/2), and |Q - 1| <= T(rho) whenever
|G| <= rho on the disk.

Q at z = 0 is defined as exactly 1 by continuity (documented convention).
The module stays because perfbench imports and wraps ``starlike_functional_grid``.
"""

from __future__ import annotations

import numpy as np

from .herglotz import GeneratorSpec
from .resolvent import solve_resolvent_grid


def starlike_functional_grid(spec: GeneratorSpec, lam: float, z) -> np.ndarray:
    """Vectorized Q over an array of points (Q = 1 exactly at z = 0): the solve's ``Q``."""
    return solve_resolvent_grid(spec, lam, z).Q
