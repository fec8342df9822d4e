"""Shared numerical kernels: grids, Hermite evaluation, quadrature.

Everything downstream (state construction, gate application, Wigner engines)
is built on the uniform-grid and Hermite-recurrence primitives defined here.
One rescaled three-term recurrence (_three_term_rows) gives both the Hermite
functions and the generating-function coefficients of metrics._overlap_sq,
and it keeps its rows inside the double range: a row is a mantissa with a
power-of-two exponent, and _rescale moves its magnitude into the exponent
every _RESCALE_STEPS steps, exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "Grid1D",
    "eval_hermite_fn",
    "integration_weights",
    "integrate",
]

_PI_QUARTER = np.pi ** 0.25
_LN2 = math.log(2.0)
# t up to which pi^{-1/4} e^{-t} is a normal double, with room to spare
_EXP_FLOOR = 700.0
# Steps of a rescaled recurrence between two rescalings of its rows.
_RESCALE_STEPS = 32
# least exponent of h_0, so that every exponent fits an int32
_MIN_BINEXP = -(2.0**30)
# most values of a temporary of _poisson_weights (512 kB)
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling grid on [x_min, x_max] with `count` points inclusive,
    all distinct doubles."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_max < self.x_min:
            raise ValueError(f"empty grid: x_max={self.x_max} must exceed x_min={self.x_min}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        # points 2 ulp of the larger bound apart stay distinct; closer ones are checked
        magnitude = max(abs(self.x_min), abs(self.x_max))
        ulp = math.ulp(magnitude)
        if self.spacing < 2.0 * ulp and not np.all(np.diff(self.xs) > 0):
            raise ValueError(
                f"grid spacing {self.spacing:.3g} is too fine at |x| = {magnitude:.3g}, where "
                f"doubles are {ulp:.3g} apart, so its points would not be distinct"
            )

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)

    def covers(self, lo: float, hi: float) -> bool:
        """True when [lo, hi] lies inside the grid."""
        return self.x_min <= lo and hi <= self.x_max


def eval_hermite_fn(n: int, x):
    """Normalized Hermite function h_n(x) = H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!)).

    The recurrence (DLMF 18.9)

        h_0 = pi^{-1/4} e^{-x^2/2}
        h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}

    runs on mantissas with a power-of-two exponent per x (see
    _hermite_orders), applied once at the end, so h_n is 0 only where it is
    below the double range, and nothing overflows, at any order. Against
    exact arithmetic the absolute error inside the band |x| < sqrt(2n+1)
    is at most 1.7e-14 at n = 3000 and 5.4e-14 at n = 10^4, and the
    relative error beyond it at most 3.3e-13 and 9.5e-13 (x up to 90 and
    150).
    """
    if n < 0:
        raise ValueError("Hermite degree must be nonnegative")
    arr = np.asarray(x, dtype=float)
    h = np.ldexp(*next(islice(_hermite_orders(arr), n, None)))
    return h if arr.ndim else float(h)


def _hermite_orders(x: np.ndarray):
    """Yield (m, e) with h_k(x) = m 2^e for k = 0, 1, 2, ..., one order per
    step of the recurrence of eval_hermite_fn on a float array x, e int32:
    the rows of _three_term_rows with alpha = beta = 1 from h_0.

    e takes the part of e^{-x^2/2} below the double range, so it starts at
    0 wherever x^2/2 <= _EXP_FLOOR, and there m 2^e is bit for bit the
    plain recurrence: the rescaling every _RESCALE_STEPS steps is exact
    while nothing is subnormal. e stops at _MIN_BINEXP, and m starts at 0,
    past |x| = 3.86e4, where |h_n| < (2|x|)^n e^{n^2/(4x^2) - x^2/2} is
    below the double range for every n < 10^7.
    """
    half_sq = 0.5 * x * x
    binexp = np.fmax(np.fmin((_EXP_FLOOR - half_sq) / _LN2, 0.0), _MIN_BINEXP).astype(np.int32)
    return _three_term_rows(x, np.exp(-half_sq - binexp * _LN2) / _PI_QUARTER, binexp, 1.0, 1.0)


def _three_term_rows(x: np.ndarray, start: np.ndarray, binexp, alpha: float, beta: float):
    """Yield (m, e) with r_k = m 2^e for k = 0, 1, 2, ... of the recurrence

        r_0 = start 2^binexp,   r_{-1} = 0,
        r_{k+1} = x (sqrt(2/(k+1))/alpha) r_k - (sqrt(k/(k+1))/beta) r_{k-1},

    elementwise on a real or complex array x, with start of x's shape and of
    the rows' dtype. alpha = beta = 1 gives the Hermite functions
    (_hermite_orders); metrics._overlap_sq takes alpha = -3 and beta = 3.
    alpha and beta divide each step's scalar, so dividing by 1 is exact,
    and a divisor such as 3 rounds each scalar once and independently,
    where a rounded factor 1/3 would carry one bias into every step and
    compound it over the n steps. Every _RESCALE_STEPS steps both rows are
    rescaled by _rescale, exactly. The rows are stepped in place, so a
    yielded m is valid only until the generator is resumed: a caller that
    keeps rows copies them.
    """
    r = np.array(start)  # a copy, and an array even where start is a NumPy scalar
    r_prev, r_next = np.zeros_like(r), np.empty_like(r)
    k = 0
    while True:
        yield r, binexp
        np.multiply(x, math.sqrt(2.0 / (k + 1)) / alpha, out=r_next)
        r_next *= r
        r_prev *= math.sqrt(k / (k + 1.0)) / beta
        r_next -= r_prev
        r_prev, r, r_next = r, r_next, r_prev
        k += 1
        if k % _RESCALE_STEPS == 0:
            binexp = _rescale(r, r_prev, binexp)


def _rescale(a: np.ndarray, b: np.ndarray, binexp):
    """Divide rows a 2^binexp and b 2^binexp of a three-term recurrence, in
    place, by the power of two just above their larger magnitude, which is
    exact, and return the exponents that keep their values unchanged, so
    that the next _RESCALE_STEPS steps neither overflow nor underflow.
    """
    _, shift = np.frexp(np.maximum(np.abs(a), np.abs(b)))
    scale = np.ldexp(1.0, -shift)
    a *= scale
    b *= scale
    return binexp + shift


def _poisson_weights(t: np.ndarray, n: int) -> np.ndarray:
    """Pois(n - k; lam) = e^{-lam} lam^{n-k} / (n-k)! at lam = t^2/2 in column
    k = 0..n, the order of the sums over k that read them, one row per value
    of the 1-D array t, formed in log space so that no factor over- or
    underflows on its own: a weight is 0 only when it is below the double
    range. A rate past the double range (|t| above about 1.3e154) is taken
    as the largest double, where every weight is 0 too, rather than inf,
    where inf - inf would make them nan. The exponents are formed in the
    result and exponentiated in place, so no other array is as large, and a
    caller may weight the result in place."""
    with np.errstate(over="ignore"):
        lam = np.minimum(0.5 * t * t, np.finfo(float).max)
    log_lam = np.log(lam, out=np.full(lam.shape, -np.inf), where=lam > 0.0)
    expo = np.zeros((lam.size, n + 1))
    np.multiply(log_lam[:, None], np.arange(float(n), 0.0, -1.0), out=expo[:, :n])
    log_factorials = _log_factorials(1 << int(n).bit_length())[n::-1]
    # lam + log (n-k)! a block of rows at a time, so no temporary is as large as expo
    step = max(1, _BLOCK_VALUES // (n + 1))
    for start in range(0, lam.size, step):
        expo[start : start + step] -= lam[start : start + step, None] + log_factorials
    return np.exp(expo, out=expo)


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """log j! for j = 0..size-1, read-only and built once per size.

    _poisson_weights asks for the power of two above n, so one row serves
    every n up to it, and the rows held take at most four times the memory
    of the longest one n asked for.
    """
    row = np.array([math.lgamma(j + 1.0) for j in range(size)])
    row.flags.writeable = False
    return row


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
