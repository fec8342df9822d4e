"""Shared numerical kernels: grids, Hermite evaluation, quadrature, power series.

Everything downstream (state construction, gate application, Wigner engines)
is built on the uniform-grid and truncated-series primitives defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "PowerSeries",
    "default_grid",
    "eval_hermite_fn",
    "integration_weights",
    "integrate",
    "series_mul",
    "series_exp",
    "series_inv_sqrt_one_plus",
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
    h = np.exp(-0.5 * arr * arr) / _PI_QUARTER
    h_prev = np.zeros_like(arr)
    for k in range(n):
        h, h_prev = arr * np.sqrt(2.0 / (k + 1)) * h - np.sqrt(k / (k + 1.0)) * h_prev, h
    return h if arr.ndim else float(h)


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


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series sum_k coeffs[k] rho^k.

    coeffs is real, ascending in k. A second trailing axis batches
    independent series over e.g. a coordinate grid, sharing one truncation
    order; all operations broadcast over that axis.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim not in (1, 2):
            raise ValueError("series coefficients must be 1-D or 2-D (order, batch)")
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at min(a.order, b.order)."""
    order = min(a.order, b.order)
    ca = a.coeffs[: order + 1]
    cb = b.coeffs[: order + 1]
    batch = np.broadcast_shapes(ca.shape[1:], cb.shape[1:])
    if batch and ca.ndim == 1:
        ca = ca[:, None]
    if batch and cb.ndim == 1:
        cb = cb[:, None]
    out = np.empty((order + 1, *batch))
    for k in range(order + 1):
        out[k] = np.add.reduce(ca[: k + 1] * cb[k::-1], axis=0)
    return PowerSeries(out)


def series_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, truncated at a.order.

    Uses the derivative recurrence c_k = (1/k) sum_{j<=k} j a_j c_{k-j},
    which needs no factorials and is exact on the retained coefficients.
    """
    ca = a.coeffs
    if np.any(ca[0] != 0.0):
        raise ValueError("series_exp requires a vanishing constant term")
    weighted = ca * np.arange(ca.shape[0]).reshape(-1, *([1] * (ca.ndim - 1)))
    out = np.zeros_like(ca)
    out[0] = 1.0
    for k in range(1, ca.shape[0]):
        out[k] = np.add.reduce(weighted[1 : k + 1] * out[k - 1 :: -1], axis=0) / k
    return PowerSeries(out)


def series_inv_sqrt_one_plus(sign: int, order: int) -> PowerSeries:
    """Series of (1 + sign*rho)^{-1/2} up to `order`.

    Coefficients follow c_k = -sign * c_{k-1} (2k-1)/(2k); for sign = -1 they
    are the positive central-binomial weights C(2k,k)/4^k.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = np.empty(order + 1)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -sign * c[k - 1] * (2 * k - 1) / (2.0 * k)
    return PowerSeries(c)
