"""Independent oracles shared by the test modules: grid quadrature and exact arithmetic."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from catgate.gate import GateParams, taylor_phase
from catgate.metrics import scan_grid
from catgate.numerics import Grid1D, eval_hermite_fn, integrate, integration_weights


def outcome_density_quadrature(n: int, x0: float, y_m: float) -> float:
    """Outcome density as the integral of |psi_in h_n(x - y_m)|^2 on the scan
    grid, independent of the generating-function series in outcome_density."""
    grid = scan_grid(n, x0, y_m)
    x = grid.xs
    dens = np.exp(-((x - x0) ** 2)) / np.sqrt(np.pi) * eval_hermite_fn(n, x - y_m) ** 2
    return float(integrate(dens, grid))


# pi to 50 significant digits
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _decimal(i: int) -> Decimal:
    """A Python integer as a Decimal, from its leading 200 bits."""
    shift = max(0, abs(i).bit_length() - 200)
    return Decimal(i >> shift) * Decimal(2) ** shift


def hermite_fn_exact(n: int, x: float) -> Decimal:
    """h_n(x) = H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!)) at the double x,
    to 40 significant digits. With x = a/2^b, G_k = H_k(x) 2^{bk} is an
    integer, and H_{k+1} = 2x H_k - 2k H_{k-1} becomes
    G_{k+1} = 2a G_k - 2k 4^b G_{k-1}, which is exact; the rest is 50-digit
    decimal, whose exponent range holds h_n where doubles underflow. The
    cost grows with b, so x with few binary digits after the point is
    cheapest."""
    frac = Fraction(x)
    a, b = frac.numerator, frac.denominator.bit_length() - 1
    g_prev, g = 0, 1
    for k in range(n):
        g_prev, g = g, 2 * a * g - (2 * k << 2 * b) * g_prev
    with localcontext() as ctx:
        ctx.prec = 50
        half_sq = frac * frac / 2
        gauss = (-Decimal(half_sq.numerator) / Decimal(half_sq.denominator)).exp()
        norm = _PI.sqrt().sqrt() * _decimal(math.factorial(n) << n).sqrt()
        return _decimal(g) * Decimal(2) ** (-b * n) * gauss / norm


def outcome_norm_exact(n: int, delta: float) -> Decimal:
    """M_n = e^{-lam} sum_k C(2k,k)/4^k lam^(n-k)/(n-k)! at lam = delta^2/2, to 40
    significant digits: the sum is exact rational arithmetic on the double
    delta and e^{-lam} is taken in decimal, so the value is independent of the
    log-space Poisson weights of gate.outcome_norm and does not underflow."""
    lam = Fraction(delta) ** 2 / 2
    total = sum(
        Fraction(math.comb(2 * k, k), 4**k) * lam ** (n - k) / math.factorial(n - k)
        for k in range(n + 1)
    )
    with localcontext() as ctx:
        ctx.prec = 40
        scale = (-Decimal(lam.numerator) / Decimal(lam.denominator)).exp()
        return Decimal(total.numerator) / Decimal(total.denominator) * scale


def poisson_exact(n: int, t: float) -> list[Decimal]:
    """Pois(n - k; lam) = e^{-lam} lam^(n-k)/(n-k)! at lam = t^2/2 for k = 0..n,
    the column order of numerics._poisson_weights, to 40 significant digits:
    lam^j/j! is exact rational arithmetic on the double t and e^{-lam} is taken
    in decimal, as in outcome_norm_exact, so nothing underflows."""
    lam = Fraction(t) ** 2 / 2
    with localcontext() as ctx:
        ctx.prec = 40
        scale = (-Decimal(lam.numerator) / Decimal(lam.denominator)).exp()
        terms = (lam ** (n - k) / math.factorial(n - k) for k in range(n + 1))
        return [Decimal(q.numerator) / Decimal(q.denominator) * scale for q in terms]


def overlap_sq_quadrature(n: int, x0: float, width: float, ys: np.ndarray) -> np.ndarray:
    """|<cat(y)|psi~(y)>|^2 for outcomes ys with |y - x0| <= width/2, by Simpson
    quadrature in the outcome frame u = x - y, independent of the generating-
    function recurrence in metrics._overlap_sq. With d = y - x0 the overlap is

        pi^{-1/2} int e^{-(u+d)^2} h_n(u) conj(cat)(c) du,
        c = theta0 + p_plus (u + d),

    where conj(cat) = e^{-ic} + s e^{ic} is 2 cos c for s = +1 and -2i sin c
    for s = -1, s = (-1)^n. The u-grid spans [-8 - width/2, 8 + width/2],
    where the envelope is below e^{-64} for every accepted d, at a spacing no
    coarser than (16 + 2 sqrt(2n+1) + width)/4000.
    """
    half = 8.0 + 0.5 * width
    step = (16.0 + 2.0 * np.sqrt(2.0 * n + 1.0) + width) / 4000.0
    grid = Grid1D(-half, half, 2 * math.ceil(half / step) + 1)
    u = grid.xs
    weights = integration_weights(grid) * eval_hermite_fn(n, u) / np.sqrt(np.pi)
    trig = np.sin if n % 2 else np.cos
    d = np.asarray(ys, dtype=float) - x0
    tp = taylor_phase(GateParams(n, 0.0), -d)
    shifted = u[None, :] + d[:, None]
    carrier = tp.theta0[:, None] + tp.p_plus[:, None] * shifted
    out = (np.exp(-shifted * shifted) * trig(carrier)) @ weights
    sign = -1.0 if n % 2 else 1.0
    norm = 2.0 + 2.0 * sign * np.exp(-tp.p_plus**2) * np.cos(2.0 * tp.theta0)
    return 4.0 * out**2 / norm
