"""Shared numerical kernels: grids, Hermite evaluation, quadrature.

Everything downstream (state construction, gate application, Wigner engines)
is built on the uniform-grid and Hermite-recurrence primitives defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "Grid1D",
    "default_grid",
    "eval_hermite_fn",
    "integration_weights",
    "integrate",
]

_PI_QUARTER = np.pi ** 0.25


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling grid on [x_min, x_max] with `count` points inclusive."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_max > self.x_min:
            raise ValueError(f"empty grid: x_max={self.x_max} must exceed x_min={self.x_min}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)

    def covers(self, lo: float, hi: float) -> bool:
        """True when [lo, hi] lies inside the grid."""
        return self.x_min <= lo and hi <= self.x_max


def default_grid(n: int, center: float) -> Grid1D:
    """Default wavefunction grid for photon number n, centred at `center`.

    Half-width 8 + sqrt(2n+1) keeps every Gaussian-enveloped integrand below
    1e-14 at the edges; 4001 points put composite Simpson at machine accuracy
    for the bandwidths that occur here.
    """
    half = 8.0 + np.sqrt(2.0 * n + 1.0)
    return Grid1D(center - half, center + half, 4001)


def eval_hermite_fn(n: int, x):
    """Normalized Hermite function h_n(x) = H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!)).

    The recurrence

        h_0 = pi^{-1/4} e^{-x^2/2}
        h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}

    keeps every intermediate bounded, so it is safe for n well beyond 100
    where the raw polynomial and factorial would overflow.
    """
    if n < 0:
        raise ValueError("Hermite degree must be nonnegative")
    arr = np.asarray(x, dtype=float)
    h = next(islice(_hermite_orders(arr), n, None))
    return h if arr.ndim else float(h)


def _hermite_orders(x: np.ndarray):
    """Yield h_0(x), h_1(x), h_2(x), ... for a float array x, one order per
    step of the recurrence of eval_hermite_fn."""
    h = np.exp(-0.5 * x * x) / _PI_QUARTER
    h_prev = np.zeros_like(x)
    k = 0
    while True:
        yield h
        h, h_prev = x * np.sqrt(2.0 / (k + 1)) * h - np.sqrt(k / (k + 1.0)) * h_prev, h
        k += 1


def _poisson_weights(lam: np.ndarray, n: int) -> np.ndarray:
    """Pois(j; lam) = e^{-lam} lam^j / j! for j = 0..n, one row per rate in the
    1-D array lam, formed in log space so that no factor over- or underflows
    on its own: a weight is 0 only when it is below the double range."""
    log_lam = np.log(lam, out=np.full(lam.shape, -np.inf), where=lam > 0.0)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    expo = np.zeros((lam.size, n + 1))
    expo[:, 1:] = log_lam[:, None] * np.arange(1.0, n + 1.0)
    expo -= lam[:, None] + log_fact
    return np.exp(expo)


def integration_weights(grid: Grid1D) -> np.ndarray:
    """Quadrature weight vector for `grid`: composite Simpson when the point
    count is odd, trapezoid otherwise.

    Exposed separately because the Wigner quadrature engine reuses the weights
    as a diagonal factor inside a matrix product.
    """
    h = grid.spacing
    w = np.empty(grid.count)
    if grid.count % 2 == 1:
        w[0::2] = 2.0 * h / 3.0
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
    else:
        w[:] = h
        w[0] = w[-1] = h / 2.0
    return w


def integrate(values: np.ndarray, grid: Grid1D):
    """Integrate sampled values over `grid` (Simpson for odd counts)."""
    values = np.asarray(values)
    if values.shape[-1] != grid.count:
        raise ValueError(f"got {values.shape[-1]} samples for a {grid.count}-point grid")
    return values @ integration_weights(grid)
