"""Independent oracles shared by the test modules: grid quadrature and exact arithmetic."""

from __future__ import annotations

import functools
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
    to 40 significant digits: hermite_fns_exact at the one order n."""
    return hermite_fns_exact(x, [n])[0]


def hermite_fns_exact(x: float, orders) -> list[Decimal]:
    """h_k(x) at the double x for each k of the increasing `orders`, to 40
    significant digits. With x = a/2^b, G_k = H_k(x) 2^{bk} is an integer,
    and H_{k+1} = 2x H_k - 2k H_{k-1} becomes
    G_{k+1} = 2a G_k - 2k 4^b G_{k-1}, which is exact, as is the running
    k! 2^k of the norm; the rest is 50-digit decimal, whose exponent range
    holds h_k where doubles underflow. The cost grows with b, so x with few
    binary digits after the point is cheapest."""
    frac = Fraction(x)
    a, b = frac.numerator, frac.denominator.bit_length() - 1
    wanted = list(orders)
    values = []
    g_prev, g, norm_sq = 0, 1, 1  # G_{k-1}, G_k and k! 2^k at k = 0
    with localcontext() as ctx:
        ctx.prec = 50
        half_sq = frac * frac / 2
        gauss = (-Decimal(half_sq.numerator) / Decimal(half_sq.denominator)).exp()
        quarter = _PI.sqrt().sqrt()
        for k in range(wanted[-1] + 1):
            if k == wanted[len(values)]:
                norm = quarter * _decimal(norm_sq).sqrt()
                values.append(_decimal(g) * Decimal(2) ** (-b * k) * gauss / norm)
            g_prev, g = g, 2 * a * g - (2 * k << 2 * b) * g_prev
            norm_sq *= 2 * (k + 1)
    return values


def outcome_norm_exact(n: int, delta) -> Decimal:
    """M_n = sum_k C(2k,k)/4^k Pois(n - k; lam) at lam = delta^2/2, for a
    double or a Fraction delta, to 40 significant digits: the exact Poisson
    weights of poisson_exact times c_k = C(2k,k)/4^k of _central_binomials_exact,
    summed in 50-digit decimal. Every term is positive, so the sum loses no
    digits, and the value is independent of the log-space Poisson weights of
    gate.outcome_norm and does not underflow."""
    with localcontext() as ctx:
        ctx.prec = 50
        return sum(c * w for c, w in zip(_central_binomials_exact(n), poisson_exact(n, delta)))


def _central_binomials_exact(n: int) -> list[Decimal]:
    """c_k = C(2k,k)/4^k for k = 0..n in 50-digit decimal, by the running
    product c_k = c_{k-1} (2k-1)/(2k), which rounds once a step."""
    values = [Decimal(1)]
    with localcontext() as ctx:
        ctx.prec = 50
        for k in range(1, n + 1):
            values.append(values[-1] * (2 * k - 1) / (2 * k))
    return values


def poisson_exact(n: int, t) -> list[Decimal]:
    """Pois(n - k; lam) = e^{-lam} lam^(n-k)/(n-k)! at lam = t^2/2 for k = 0..n,
    the column order of numerics._poisson_weights, to 40 significant digits,
    for a double or a Fraction t. With lam = a/b, lam^j/j! = a^j/(b^j j!) is
    a ratio of exact integers, built by running products and divided in
    50-digit decimal, and e^{-lam} is taken in decimal, as in
    outcome_norm_exact, so the values are independent of the log-space
    weights and nothing underflows."""
    lam = Fraction(t) ** 2 / 2
    a, b = lam.numerator, lam.denominator
    terms = []
    num, den = 1, 1  # a^j and b^j j!
    with localcontext() as ctx:
        ctx.prec = 50
        scale = (-Decimal(a) / Decimal(b)).exp()
        for j in range(n + 1):
            terms.append(_decimal(num) / _decimal(den) * scale)
            num, den = num * a, den * b * (j + 1)
    return terms[::-1]


@functools.cache
def _even_hermite_fns_exact(n: int, x: float) -> tuple[Decimal, ...]:
    """h_0(x), h_2(x), ..., h_{2n}(x), kept for the cells that share an x."""
    return tuple(hermite_fns_exact(x, range(0, 2 * n + 1, 2)))


def wigner_cell_exact(n: int, y_m: float, x0: float, p0: float, x: float, p: float) -> Decimal:
    """W(x, p) of the gate output for the coherent input (x0, p0) and the
    outcome y_m, from the closed form of wigner.wigner_mehler,

        W = pi^{-3/4} e^{-(x - x0)^2} sum_k sqrt(c_k) h_{2k}(sqrt(2) x~)
            Pois(n - k; p~^2/2) / M_n,   c_k = C(2k,k)/4^k,

    with x~ = x - y_m and p~ = p - p0, summed in 50-digit decimal from
    hermite_fns_exact, poisson_exact and outcome_norm_exact: exact Poisson
    weights at the exact p~. The Hermite functions are taken at the double
    sqrt(2) x~ that wigner_mehler forms, np.sqrt(2.0) * (x - y_m), so the
    oracle checks the sum and its weights, not the rounding of that
    argument. A cell at n = 3000 takes about a second, and half as long
    where its x was asked for before.
    """
    hermite = _even_hermite_fns_exact(n, float(np.sqrt(2.0) * (x - y_m)))
    poisson = poisson_exact(n, Fraction(p) - Fraction(p0))
    with localcontext() as ctx:
        ctx.prec = 50
        total = sum(c.sqrt() * h * w for c, h, w in zip(_central_binomials_exact(n), hermite, poisson))
        sq = (Fraction(x) - Fraction(x0)) ** 2
        gauss = (-Decimal(sq.numerator) / Decimal(sq.denominator)).exp()
        m_n = outcome_norm_exact(n, Fraction(y_m) - Fraction(x0))
        return _PI.sqrt().sqrt() ** -3 * gauss * total / m_n


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
