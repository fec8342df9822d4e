"""Grid-quadrature oracles shared by the test modules."""

from __future__ import annotations

import numpy as np

from catgate.metrics import scan_grid
from catgate.numerics import eval_hermite_fn, integrate


def outcome_density_quadrature(n: int, x0: float, y_m: float) -> float:
    """Outcome density as the integral of |psi_in h_n(x - y_m)|^2 on the scan
    grid, independent of the generating-function series in outcome_density."""
    grid = scan_grid(n, x0, y_m)
    x = grid.xs
    dens = np.exp(-((x - x0) ** 2)) / np.sqrt(np.pi) * eval_hermite_fn(n, x - y_m) ** 2
    return float(integrate(dens, grid))
